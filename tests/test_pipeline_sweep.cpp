// Broad randomized assurance: the full generate -> observe -> infer pipeline
// across many seeds at tiny scale, checking the invariants that must hold on
// EVERY topology, not just the tuned presets.
#include <gtest/gtest.h>

#include "bgpsim/observation.h"
#include "core/asrank.h"
#include "core/cones.h"
#include "topogen/topogen.h"
#include "validation/ppv.h"

namespace asrank {
namespace {

class PipelineSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PipelineSweep, InvariantsOnTinyTopologies) {
  auto gen = topogen::GenParams::preset("tiny");
  gen.seed = GetParam();
  const auto truth = topogen::generate(gen);

  bgpsim::ObservationParams obs;
  obs.seed = GetParam() * 7 + 1;
  obs.full_vps = 6;
  obs.partial_vps = 2;
  const auto observation = bgpsim::observe(truth, obs);
  ASSERT_FALSE(observation.routes.empty());

  core::InferenceConfig config;
  config.sanitizer.ixp_asns.insert(truth.ixp_asns.begin(), truth.ixp_asns.end());
  config.clique.seed_size = 6;  // tiny preset has a 4-member clique
  const auto result = core::AsRankInference(config).run(
      paths::PathCorpus::from_records(observation.routes));

  // Structural invariants.
  EXPECT_TRUE(result.audit.p2c_acyclic) << "seed " << GetParam();
  for (const Asn member : result.clique) {
    const topology::NodeId id = result.graph.interner().id_of(member);
    EXPECT_TRUE(id == topology::kNoNode || result.graph.providers(id).empty())
        << "seed " << GetParam() << ": clique member AS" << member.value()
        << " has a provider";
  }

  // Quality floor: a 60-AS topology seen from 8 VPs is the hardest corner
  // (sparse visibility, noisy degree ranking), so the floor is deliberately
  // modest — the calibrated presets are held to much tighter bands by the
  // integration suite and EXPERIMENTS.md.
  const auto accuracy = validation::evaluate_against_truth(result.graph, truth.graph);
  EXPECT_GT(accuracy.c2p.ppv(), 0.75) << "seed " << GetParam();
  EXPECT_GT(accuracy.accuracy(), 0.70) << "seed " << GetParam();

  // Cone invariants.
  const auto recursive = core::recursive_cone(result.graph);
  const auto ppdc = core::provider_peer_observed_cone(result.graph, result.arena);
  for (const auto& [as, members] : recursive) {
    EXPECT_TRUE(std::binary_search(members.begin(), members.end(), as));
    ASSERT_TRUE(ppdc.contains(as));
    const auto proven = ppdc.at(as);
    EXPECT_TRUE(std::includes(members.begin(), members.end(), proven.begin(), proven.end()))
        << "seed " << GetParam() << " AS" << as.value();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PipelineSweep,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14,
                                           15, 16, 17, 18, 19, 20));

}  // namespace
}  // namespace asrank
