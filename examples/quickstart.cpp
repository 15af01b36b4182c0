// Quickstart: the full ASRank workflow in ~60 lines.
//
//   1. Generate a synthetic Internet with ground-truth relationships.
//   2. Simulate BGP route collection from a set of vantage points.
//   3. Run the ASRank inference pipeline on the observed paths.
//   4. Score the inferences against exact ground truth.
//   5. Compute customer cones and print the top-10 AS Rank.
//
// Usage: quickstart [preset] [seed]     (preset: tiny|small|medium|large)
#include <cstdlib>
#include <iostream>

#include "bgpsim/observation.h"
#include "core/asrank.h"
#include "core/cones.h"
#include "core/ranking.h"
#include "topogen/topogen.h"
#include "util/table.h"
#include "validation/ppv.h"

int main(int argc, char** argv) {
  using namespace asrank;

  const std::string preset = argc > 1 ? argv[1] : "small";
  auto gen_params = topogen::GenParams::preset(preset);
  if (argc > 2) gen_params.seed = std::strtoull(argv[2], nullptr, 10);

  // 1. Ground-truth topology.
  const auto truth = topogen::generate(gen_params);
  const auto truth_counts = truth.graph.link_counts();
  std::cout << "topology: " << truth.graph.as_count() << " ASes, "
            << truth_counts.p2c << " p2c / " << truth_counts.p2p << " p2p / "
            << truth_counts.s2s << " s2s links, clique size "
            << truth.clique.size() << "\n";

  // 2. Observe paths from vantage points.
  bgpsim::ObservationParams obs_params;
  obs_params.seed = gen_params.seed + 1;
  obs_params.threads = 0;
  const auto observation = bgpsim::observe(truth, obs_params);
  std::cout << "observed: " << observation.routes.size() << " routes from "
            << observation.vps.size() << " VPs\n";

  // 3. Infer relationships.
  core::InferenceConfig config;
  config.sanitizer.ixp_asns.insert(truth.ixp_asns.begin(), truth.ixp_asns.end());
  const auto result =
      core::AsRankInference(config).run(paths::PathCorpus::from_records(observation.routes));
  const auto inferred_counts = result.graph.link_counts();
  std::cout << "inferred: " << inferred_counts.p2c << " c2p / " << inferred_counts.p2p
            << " p2p links; clique size " << result.clique.size() << "\n";

  // 4. Score against ground truth.
  const auto accuracy = validation::evaluate_against_truth(result.graph, truth.graph);
  std::cout << "accuracy: c2p PPV " << util::fmt_pct(accuracy.c2p.ppv())
            << " (" << accuracy.c2p.correct << "/" << accuracy.c2p.validated << ")"
            << ", p2p PPV " << util::fmt_pct(accuracy.p2p.ppv())
            << " (" << accuracy.p2p.correct << "/" << accuracy.p2p.validated << ")"
            << ", overall " << util::fmt_pct(accuracy.accuracy()) << "\n";
  if (accuracy.s2s.validated > 0) {
    std::cout << "siblings: " << accuracy.s2s.correct << "/" << accuracy.s2s.validated
              << " inferred s2s links are true siblings\n";
  }

  // 5. Customer cones and AS Rank.
  const auto cones = core::provider_peer_observed_cone(result.graph, result.arena);
  util::TableWriter table({"rank", "AS", "cone size", "transit degree"});
  for (const auto& entry : core::top_n(cones, result.degrees, 10)) {
    table.add_row({std::to_string(entry.rank), "AS" + entry.as.str(),
                   std::to_string(entry.cone_size), std::to_string(entry.transit_degree)});
  }
  table.set_caption("top-10 ASes by provider/peer observed customer cone:");
  table.render(std::cout);
  return 0;
}
