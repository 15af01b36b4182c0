// E8 — the AS Rank table (paper §5.4): top ASes by customer cone size, with
// ground-truth cone sizes and tiers alongside, plus rank-correlation of the
// inferred ranking against truth.
#include "bench_common.h"

#include "core/cones.h"
#include "core/ranking.h"
#include "util/stats.h"

namespace {

const char* tier_name(asrank::topogen::Tier tier) {
  using asrank::topogen::Tier;
  switch (tier) {
    case Tier::kClique: return "tier-1";
    case Tier::kTransit: return "tier-2";
    case Tier::kRegional: return "tier-3";
    case Tier::kStub: return "stub";
  }
  return "?";
}

}  // namespace

int main(int argc, char** argv) {
  using namespace asrank;
  const auto options = bench::parse_options(argc, argv);
  bench::header("E8 AS Rank: top ASes by customer cone (paper Table 5-style)", options);
  bench::paper_shape(
      "the top of the ranking is the tier-1 clique followed by large "
      "tier-2 transit providers; inferred cone ranks correlate strongly "
      "with ground-truth cone ranks");

  const auto world = bench::make_world(options);
  const auto inferred_cones =
      core::provider_peer_observed_cone(world.result.graph, world.result.arena);
  const auto truth_cones = core::recursive_cone(world.truth.graph);

  util::TableWriter table(
      {"rank", "AS", "tier", "inferred cone", "true cone", "transit degree", "in clique"});
  for (const auto& entry : core::top_n(inferred_cones, world.result.degrees, 15)) {
    const bool in_clique = std::binary_search(world.truth.clique.begin(),
                                              world.truth.clique.end(), entry.as);
    table.add_row({std::to_string(entry.rank), "AS" + entry.as.str(),
                   tier_name(world.truth.tiers.at(entry.as)),
                   util::fmt_count(entry.cone_size),
                   truth_cones.contains(entry.as)
                       ? util::fmt_count(truth_cones.at(entry.as).size())
                       : "-",
                   util::fmt_count(entry.transit_degree), in_clique ? "yes" : "no"});
  }
  table.render(std::cout);

  std::vector<double> inferred_sizes, true_sizes;
  for (const auto& [as, members] : inferred_cones) {
    if (!truth_cones.contains(as)) continue;
    inferred_sizes.push_back(static_cast<double>(members.size()));
    true_sizes.push_back(static_cast<double>(truth_cones.at(as).size()));
  }
  std::cout << "rank correlation (inferred vs true cone sizes): kendall tau = "
            << util::fmt(util::kendall_tau(inferred_sizes, true_sizes), 3)
            << ", pearson = " << util::fmt(util::pearson(inferred_sizes, true_sizes), 3)
            << "\n";
  return 0;
}
