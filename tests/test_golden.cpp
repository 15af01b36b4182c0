// Golden-fixture equivalence tests for the dense inference pipeline.
//
// The files under tests/golden/ were produced by the pre-refactor (hash-map)
// pipeline on seeded topogen topologies and committed verbatim.  These tests
// regenerate the same runs on the current code and require byte-identical
// serialized output — the strongest possible check that the dense
// NodeId/CSR refactor changed the representation and nothing else — at 1, 2,
// and 8 worker threads.
//
// If an intentional inference-semantics change ever lands, regenerate the
// fixtures with the recipe below and explain the diff in the commit.
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>
#include <tuple>

#include "bgpsim/observation.h"
#include "core/asrank.h"
#include "core/cones.h"
#include "topogen/topogen.h"
#include "topology/serialization.h"

namespace asrank {
namespace {

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.is_open()) << "missing golden fixture: " << path;
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

struct Fixture {
  std::uint64_t gen_seed;
  std::uint64_t obs_seed;
  const char* tag;
};

constexpr Fixture kFixtures[] = {
    {20130817u, 20130818u, "20130817"},
    {424242u, 424243u, "424242"},
};

TEST(Golden, InferenceOutputIsByteIdenticalToCommittedFixtures) {
  for (const Fixture& fixture : kFixtures) {
    auto gen = topogen::GenParams::preset("small");
    gen.seed = fixture.gen_seed;
    const auto truth = topogen::generate(gen);
    bgpsim::ObservationParams obs;
    obs.seed = fixture.obs_seed;
    obs.full_vps = 25;
    obs.partial_vps = 8;
    const auto corpus =
        paths::PathCorpus::from_records(bgpsim::observe(truth, obs).routes);

    const std::string base =
        std::string(ASRANK_GOLDEN_DIR) + "/topogen_small_" + fixture.tag;
    const std::string want_rel = slurp(base + ".as-rel");
    const std::string want_ppdc = slurp(base + ".ppdc-ases");

    for (const std::size_t threads : {1u, 2u, 8u}) {
      core::InferenceConfig config;
      config.threads = threads;
      config.sanitizer.ixp_asns.insert(truth.ixp_asns.begin(), truth.ixp_asns.end());
      const auto result = core::AsRankInference(config).run(corpus);

      std::ostringstream rel;
      write_as_rel(result.graph.to_graph(), rel);
      EXPECT_EQ(rel.str(), want_rel)
          << fixture.tag << " as-rel differs at " << threads << " threads";

      std::ostringstream ppdc;
      write_ppdc(core::provider_peer_observed_cone(result.graph, result.arena,
                                                   threads),
                 ppdc);
      EXPECT_EQ(ppdc.str(), want_ppdc)
          << fixture.tag << " ppdc differs at " << threads << " threads";
    }
  }
}

}  // namespace
}  // namespace asrank
