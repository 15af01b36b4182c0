// E2 — paper Table 2 analogue: validation corpus composition by source
// (direct reports / RPSL / BGP communities), overlap conflicts, and coverage
// of the inferred graph (paper reports 34.6% coverage).
#include "bench_common.h"

#include "validation/synthesize.h"

int main(int argc, char** argv) {
  using namespace asrank;
  const auto options = bench::parse_options(argc, argv);
  bench::header("E2 validation corpus by source (paper Table 2)", options);
  bench::paper_shape(
      "communities and RPSL dominate the corpus volume; direct reports are "
      "scarce but most trusted; total coverage lands near a third of links "
      "(paper: 34.6%)");

  const auto world = bench::make_world(options);
  const auto synth = validation::synthesize_validation(world.truth, world.observation,
                                                       validation::SynthesisParams{});

  util::TableWriter table({"source", "assertions", "share"});
  const auto counts = synth.corpus.source_counts();
  const double total = static_cast<double>(synth.corpus.size());
  auto row = [&](validation::Source source) {
    const auto it = counts.find(source);
    const std::size_t n = it == counts.end() ? 0 : it->second;
    table.add_row({std::string(to_string(source)), util::fmt_count(n),
                   util::fmt_pct(static_cast<double>(n) / total)});
  };
  row(validation::Source::kDirectReport);
  row(validation::Source::kCommunities);
  row(validation::Source::kRpsl);
  table.add_row({"total (deduplicated)", util::fmt_count(synth.corpus.size()), "100.00%"});
  table.render(std::cout);

  const auto ppv = validation::evaluate_ppv(world.inferred, synth.corpus);
  std::cout << "raw assertions: direct " << synth.direct_assertions << ", rpsl "
            << synth.rpsl_assertions << ", communities " << synth.community_assertions
            << "\n";
  std::cout << "cross-source conflicts: " << synth.corpus.conflicts() << "\n";
  std::cout << "coverage of inferred links: " << util::fmt_pct(ppv.coverage())
            << " (" << ppv.validated_links << "/" << ppv.inferred_links
            << "; paper: 34.6%)\n";
  return 0;
}
