// E1 — paper Table 1 analogue: the BGP corpus and vantage-point statistics
// (collectors/VPs/full feeds/prefixes/paths/links), plus what the
// sanitization pipeline removed (paper §4.1-4.2 step 1).
#include "bench_common.h"

#include "paths/sanitizer.h"

int main(int argc, char** argv) {
  using namespace asrank;
  const auto options = bench::parse_options(argc, argv);
  bench::header("E1 corpus & VP statistics (paper Table 1)", options);
  bench::paper_shape(
      "a few dozen VPs suffice to observe nearly every c2p link but only a "
      "fraction of p2p links; sanitization discards a small tail of paths");

  const auto world = bench::make_world(options);
  const auto corpus = paths::PathCorpus::from_records(world.observation.routes);

  std::size_t full = 0;
  for (const auto& vp : world.observation.vps) full += vp.full_feed;

  util::TableWriter table({"metric", "value"});
  table.add_row({"ASes (ground truth)", util::fmt_count(world.truth.graph.as_count())});
  table.add_row({"links (ground truth)", util::fmt_count(world.truth.graph.link_count())});
  table.add_row({"prefixes originated", util::fmt_count(world.truth.prefix_count())});
  table.add_row({"vantage points", util::fmt_count(world.observation.vps.size())});
  table.add_row({"  full feeds", util::fmt_count(full)});
  table.add_row({"  partial feeds", util::fmt_count(world.observation.vps.size() - full)});
  table.add_row({"raw path records", util::fmt_count(corpus.size())});
  table.add_row({"raw distinct prefixes", util::fmt_count(corpus.prefix_count())});

  const auto& stats = world.result.audit.sanitize;
  table.add_row({"sanitized records", util::fmt_count(stats.output_records)});
  table.add_row({"  prepending compressed", util::fmt_count(stats.prepended_compressed)});
  table.add_row({"  loops discarded", util::fmt_count(stats.loops_discarded)});
  table.add_row({"  reserved-ASN discarded", util::fmt_count(stats.reserved_discarded)});
  table.add_row({"  IXP hops stripped", util::fmt_count(stats.ixp_hops_stripped)});
  table.add_row({"  duplicates removed", util::fmt_count(stats.duplicates_removed)});
  table.add_row({"poisoned paths discarded", util::fmt_count(world.result.audit.poisoned_discarded)});
  table.add_row({"ASes observed", util::fmt_count(world.result.audit.ranked_ases)});
  table.add_row({"links observed", util::fmt_count(world.result.graph.link_count())});

  const auto truth_counts = world.truth.graph.link_counts();
  std::size_t p2c_seen = 0, p2p_seen = 0;
  for (const Link& link : world.truth.graph.links()) {
    if (!world.inferred.has_link(link.a, link.b)) continue;
    if (link.type == LinkType::kP2C) ++p2c_seen;
    if (link.type == LinkType::kP2P) ++p2p_seen;
  }
  table.add_row({"p2c visibility",
                 util::fmt_pct(static_cast<double>(p2c_seen) /
                               static_cast<double>(truth_counts.p2c))});
  table.add_row({"p2p visibility",
                 util::fmt_pct(static_cast<double>(p2p_seen) /
                               static_cast<double>(truth_counts.p2p))});
  table.render(std::cout);
  return 0;
}
