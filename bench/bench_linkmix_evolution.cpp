// E6 — paper figure analogue: the relationship-type mix of the inferred
// graph across snapshots of a flattening Internet.  As IXP-driven peering
// grows, the p2p share of visible links rises while c2p visibility stays
// near-total (the paper observes the p2p fraction of the AS graph growing
// year over year).
#include "bench_common.h"

int main(int argc, char** argv) {
  using namespace asrank;
  auto options = bench::parse_options(argc, argv);
  bench::header("E6 link-type mix under flattening (paper Fig. 1-style)", options);
  bench::paper_shape(
      "the p2p share of both the true and the inferred graph grows "
      "monotonically as peering densifies; inferred mix tracks truth");

  auto gen = topogen::GenParams::preset(options.preset);
  gen.seed = options.seed;
  auto truth = topogen::generate(gen);
  util::Rng rng(options.seed + 200);

  util::TableWriter table({"snapshot", "true p2c", "true p2p", "true p2p share",
                           "inferred p2c", "inferred p2p", "inferred p2p share"});
  for (int snapshot = 0; snapshot < 8; ++snapshot) {
    if (snapshot > 0) {
      topogen::EvolveParams evolve_params;
      evolve_params.new_stubs = truth.graph.as_count() / 100;
      evolve_params.new_peerings = truth.graph.link_count() / 25;  // aggressive flattening
      topogen::evolve(truth, rng, evolve_params);
    }
    bgpsim::ObservationParams obs;
    obs.seed = options.seed + 1;
    obs.full_vps = options.full_vps;
    obs.partial_vps = options.partial_vps;
    const auto observation = bgpsim::observe(truth, obs);
    const auto result = core::AsRankInference(bench::config_for(truth))
                            .run(paths::PathCorpus::from_records(observation.routes));
    const auto true_counts = truth.graph.link_counts();
    const auto inferred_counts = result.graph.link_counts();
    const double true_share = static_cast<double>(true_counts.p2p) /
                              static_cast<double>(true_counts.p2p + true_counts.p2c);
    const double inferred_share =
        static_cast<double>(inferred_counts.p2p) /
        static_cast<double>(inferred_counts.p2p + inferred_counts.p2c);
    table.add_row({std::to_string(snapshot), util::fmt_count(true_counts.p2c),
                   util::fmt_count(true_counts.p2p), util::fmt_pct(true_share),
                   util::fmt_count(inferred_counts.p2c),
                   util::fmt_count(inferred_counts.p2p), util::fmt_pct(inferred_share)});
  }
  table.render(std::cout);
  std::cout << "note: inferred p2p share is depressed by visibility (peering links\n"
               "are observable only from inside either peer's customer cone).\n";
  return 0;
}
