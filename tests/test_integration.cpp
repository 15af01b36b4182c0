// Cross-module integration tests: the full generate -> observe -> (MRT) ->
// sanitize -> infer -> validate pipeline, with accuracy thresholds that
// guard the paper-band results recorded in EXPERIMENTS.md.
#include <gtest/gtest.h>

#include <sstream>

#include "baselines/gao.h"
#include "bgpsim/observation.h"
#include "core/asrank.h"
#include "core/cones.h"
#include "core/ranking.h"
#include "mrt/table_dump_v2.h"
#include "topogen/topogen.h"
#include "topology/serialization.h"
#include "util/stats.h"
#include "validation/ppv.h"
#include "validation/synthesize.h"

namespace asrank {
namespace {

struct World {
  topogen::GroundTruth truth;
  bgpsim::Observation observation;
  core::InferenceResult result;
};

World make_world(const std::string& preset, std::uint64_t seed,
                 std::size_t full_vps = 30, std::size_t partial_vps = 10) {
  auto gen = topogen::GenParams::preset(preset);
  gen.seed = seed;
  World world{topogen::generate(gen), {}, {}};
  bgpsim::ObservationParams obs;
  obs.seed = seed + 1;
  obs.full_vps = full_vps;
  obs.partial_vps = partial_vps;
  world.observation = bgpsim::observe(world.truth, obs);
  core::InferenceConfig config;
  config.sanitizer.ixp_asns.insert(world.truth.ixp_asns.begin(), world.truth.ixp_asns.end());
  world.result = core::AsRankInference(config).run(
      paths::PathCorpus::from_records(world.observation.routes));
  return world;
}

const World& small_world() {
  static const World world = make_world("small", 42);
  return world;
}

TEST(Integration, InferredGraphIsAcyclic) {
  EXPECT_TRUE(small_world().result.audit.p2c_acyclic);
}

TEST(Integration, CliqueRecoveredAlmostExactly) {
  // On a 300-AS topology a single clique member can fall below the
  // visibility needed for full adjacency; allow one miss but never a false
  // member.  (The medium preset recovers all 10/10 — see EXPERIMENTS.md.)
  const auto& world = small_world();
  std::size_t recovered = 0;
  for (const Asn as : world.result.clique) {
    EXPECT_TRUE(std::binary_search(world.truth.clique.begin(), world.truth.clique.end(), as))
        << "false clique member AS" << as.value();
    ++recovered;
  }
  EXPECT_GE(recovered + 1, world.truth.clique.size());
}

TEST(Integration, AccuracyMeetsPaperBand) {
  const auto& world = small_world();
  const auto accuracy =
      validation::evaluate_against_truth(world.result.graph, world.truth.graph);
  EXPECT_GT(accuracy.c2p.ppv(), 0.95) << "paper band: 99.6%";
  EXPECT_GT(accuracy.p2p.ppv(), 0.85) << "paper band: 98.7%";
  EXPECT_GT(accuracy.accuracy(), 0.93);
  // Loop-free clique-insert poisoning is structurally undetectable on paths
  // that never cross a genuine clique segment, so a small phantom residue is
  // expected — but it must stay marginal.
  EXPECT_LT(accuracy.unknown_links, world.result.graph.link_count() / 100);
}

TEST(Integration, ValidationCorpusPpvTracksTruthPpv) {
  const auto& world = small_world();
  const auto synth = validation::synthesize_validation(world.truth, world.observation,
                                                       validation::SynthesisParams{});
  const auto ppv = validation::evaluate_ppv(world.result.graph, synth.corpus);
  const auto truth_ppv =
      validation::evaluate_against_truth(world.result.graph, world.truth.graph);
  EXPECT_GT(ppv.validated_links, 0u);
  // The sampled-corpus estimate should be within a few points of exact truth.
  EXPECT_NEAR(ppv.c2p.ppv(), truth_ppv.c2p.ppv(), 0.05);
  EXPECT_GT(ppv.coverage(), 0.10);
}

TEST(Integration, MrtRoundTripPreservesInference) {
  const auto& world = small_world();
  // Serialize the observation as a binary MRT RIB dump, read it back, and
  // re-run inference: the result must be identical.
  std::stringstream stream;
  mrt::write_table_dump_v2(bgpsim::to_rib_dump(world.observation), stream);
  const auto recovered = bgpsim::from_rib_dump(mrt::read_table_dump_v2(stream));

  core::InferenceConfig config;
  config.sanitizer.ixp_asns.insert(world.truth.ixp_asns.begin(), world.truth.ixp_asns.end());
  const auto result =
      core::AsRankInference(config).run(paths::PathCorpus::from_records(recovered));
  EXPECT_EQ(result.graph.links(), world.result.graph.links());
  EXPECT_EQ(result.clique, world.result.clique);
}

TEST(Integration, AsRelExportReimportIdentity) {
  const auto& world = small_world();
  std::stringstream text;
  write_as_rel(world.result.graph, text);
  const AsGraph parsed = read_as_rel(text);
  EXPECT_EQ(parsed.links(), world.result.graph.links());
}

TEST(Integration, DeterministicEndToEnd) {
  const auto a = make_world("tiny", 9);
  const auto b = make_world("tiny", 9);
  EXPECT_EQ(a.result.graph.links(), b.result.graph.links());
  EXPECT_EQ(a.result.clique, b.result.clique);
  const auto cones_a = core::recursive_cone(a.result.graph);
  const auto cones_b = core::recursive_cone(b.result.graph);
  EXPECT_EQ(cones_a, cones_b);
}

TEST(Integration, MoreVpsSeeMoreLinks) {
  const auto few = make_world("small", 11, 5, 2);
  const auto many = make_world("small", 11, 40, 10);
  EXPECT_GT(many.result.graph.link_count(), few.result.graph.link_count());
}

TEST(Integration, SanitizerRemovesExactlyInjectedLoops) {
  const auto& world = small_world();
  // Every loop-style poisoned path the simulator injected produces a loop;
  // sanitized corpora must contain none, and the sanitizer's loop counter
  // must cover that slice of the injection audit.  (Clique-insert poisoning
  // is loop-free and is handled by the pipeline's step 4 instead.)
  EXPECT_GE(world.result.audit.sanitize.loops_discarded +
                world.result.audit.sanitize.duplicates_removed,
            world.observation.audit.poisoned_loop);
  const auto sanitized = world.result.arena.materialize();
  for (const auto& record : sanitized.records()) {
    EXPECT_FALSE(record.path.has_loop());
    EXPECT_FALSE(record.path.has_reserved_asn());
    EXPECT_FALSE(record.path.has_prepending());
  }
}

TEST(Integration, ConeSizeOrderingAcrossMethods) {
  const auto& world = small_world();
  const auto recursive = core::recursive_cone(world.result.graph);
  const auto view = world.result.graph;
  const auto ppdc = core::provider_peer_observed_cone(view, world.result.arena);
  const auto observed = core::bgp_observed_cone(view, world.result.arena);
  std::size_t sum_recursive = 0, sum_ppdc = 0, sum_observed = 0;
  for (const auto& [as, members] : recursive) sum_recursive += members.size();
  for (const auto& [as, members] : ppdc) sum_ppdc += members.size();
  for (const auto& [as, members] : observed) sum_observed += members.size();
  // Paper §5: recursive over-counts relative to both path-based cones.
  // (recursive >= ppdc and recursive >= observed are guaranteed member-wise;
  // ppdc vs observed ordering is empirical and scale-dependent — checked at
  // medium scale by bench_cone_ccdf, not asserted here.)
  EXPECT_GE(sum_recursive, sum_ppdc);
  EXPECT_GE(sum_recursive, sum_observed);
}

TEST(Integration, TopOfRankingIsCliqueDominated) {
  const auto& world = small_world();
  const auto cones =
      core::provider_peer_observed_cone(world.result.graph, world.result.arena);
  const auto top = core::top_n(cones, world.result.degrees, world.truth.clique.size());
  std::size_t clique_in_top = 0;
  for (const auto& entry : top) {
    if (std::binary_search(world.truth.clique.begin(), world.truth.clique.end(), entry.as)) {
      ++clique_in_top;
    }
  }
  EXPECT_GE(clique_in_top * 2, world.truth.clique.size());  // at least half
}

TEST(Integration, InferredConeCorrelatesWithTruthCone) {
  const auto& world = small_world();
  const auto inferred_cones = core::recursive_cone(world.result.graph);
  const auto truth_cones = core::recursive_cone(world.truth.graph);
  std::vector<double> inferred_sizes, truth_sizes;
  for (const auto& [as, members] : inferred_cones) {
    if (!truth_cones.contains(as)) continue;
    inferred_sizes.push_back(static_cast<double>(members.size()));
    truth_sizes.push_back(static_cast<double>(truth_cones.at(as).size()));
  }
  EXPECT_GT(util::kendall_tau(inferred_sizes, truth_sizes), 0.6);
}

TEST(Integration, AsRankOutperformsGaoOnPpv) {
  const auto& world = small_world();
  const auto corpus = paths::PathCorpus::from_records(world.observation.routes);
  const auto gao_graph = baselines::GaoInference().infer(corpus);
  const auto gao = validation::evaluate_against_truth(gao_graph, world.truth.graph);
  const auto ours =
      validation::evaluate_against_truth(world.result.graph, world.truth.graph);
  EXPECT_GT(ours.accuracy(), gao.accuracy());
}

class SeedSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SeedSweep, PipelineInvariantsAcrossSeeds) {
  const auto world = make_world("small", GetParam(), 20, 6);
  EXPECT_TRUE(world.result.audit.p2c_acyclic);
  const auto accuracy =
      validation::evaluate_against_truth(world.result.graph, world.truth.graph);
  EXPECT_GT(accuracy.accuracy(), 0.90) << "seed " << GetParam();
  EXPECT_LT(accuracy.unknown_links, world.result.graph.link_count() / 50);
  // Clique recovery: at least all-but-one member, no false members beyond one.
  std::size_t shared = 0;
  for (const Asn as : world.result.clique) {
    if (std::binary_search(world.truth.clique.begin(), world.truth.clique.end(), as)) {
      ++shared;
    }
  }
  EXPECT_GE(shared + 1, world.truth.clique.size()) << "seed " << GetParam();
  EXPECT_LE(world.result.clique.size(), world.truth.clique.size() + 1)
      << "seed " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Seeds, SeedSweep, ::testing::Values(1, 2, 3, 5, 8, 13));

}  // namespace
}  // namespace asrank
