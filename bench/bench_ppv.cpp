// E3 — paper Table 3 analogue: PPV of ASRank inferences per validation
// source and relationship type.  The paper's headline numbers are 99.6%
// (c2p) and 98.7% (p2p) over the assembled corpus; the simulator substrate
// additionally allows exact scoring against full ground truth.
#include "bench_common.h"

#include "validation/synthesize.h"

int main(int argc, char** argv) {
  using namespace asrank;
  const auto options = bench::parse_options(argc, argv);
  bench::header("E3 PPV of ASRank inferences (paper Table 3)", options);
  bench::paper_shape(
      "c2p PPV ~99.6% and p2p PPV ~98.7% against the validation corpus; the "
      "corpus-based estimate tracks the exact ground-truth PPV closely");

  const auto world = bench::make_world(options);
  const auto synth = validation::synthesize_validation(world.truth, world.observation,
                                                       validation::SynthesisParams{});
  const auto ppv = validation::evaluate_ppv(world.inferred, synth.corpus);

  util::TableWriter table({"source", "c2p PPV", "c2p n", "p2p PPV", "p2p n"});
  auto row = [&](validation::Source source) {
    const auto& c2p = ppv.cells[static_cast<std::size_t>(source)][0];
    const auto& p2p = ppv.cells[static_cast<std::size_t>(source)][1];
    table.add_row({std::string(to_string(source)), util::fmt_pct(c2p.ppv()),
                   util::fmt_count(c2p.validated), util::fmt_pct(p2p.ppv()),
                   util::fmt_count(p2p.validated)});
  };
  row(validation::Source::kDirectReport);
  row(validation::Source::kCommunities);
  row(validation::Source::kRpsl);
  table.add_row({"all sources", util::fmt_pct(ppv.c2p.ppv()), util::fmt_count(ppv.c2p.validated),
                 util::fmt_pct(ppv.p2p.ppv()), util::fmt_count(ppv.p2p.validated)});

  const auto truth = validation::evaluate_against_truth(world.inferred, world.truth.graph);
  table.add_row({"exact ground truth", util::fmt_pct(truth.c2p.ppv()),
                 util::fmt_count(truth.c2p.validated), util::fmt_pct(truth.p2p.ppv()),
                 util::fmt_count(truth.p2p.validated)});
  table.render(std::cout);

  std::cout << "paper reference: c2p 99.6%, p2p 98.7% (IMC 2013 corpus)\n";
  std::cout << "direction flips among c2p errors: " << truth.direction_errors << "\n";
  std::cout << "sibling links excluded from scoring: " << truth.s2s_links << "\n";
  return 0;
}
