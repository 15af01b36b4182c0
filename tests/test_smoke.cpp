// End-to-end smoke test: generate -> observe -> infer -> validate.  Deeper
// per-module suites live in the sibling test files.
#include <gtest/gtest.h>

#include "bgpsim/observation.h"
#include "core/asrank.h"
#include "core/cones.h"
#include "topogen/topogen.h"
#include "validation/ppv.h"
#include "validation/synthesize.h"

namespace asrank {
namespace {

TEST(Smoke, EndToEndPipeline) {
  const auto params = topogen::GenParams::preset("tiny");
  const auto truth = topogen::generate(params);
  EXPECT_TRUE(truth.graph.p2c_acyclic());

  bgpsim::ObservationParams obs_params;
  obs_params.full_vps = 4;
  obs_params.partial_vps = 2;
  const auto observation = bgpsim::observe(truth, obs_params);
  EXPECT_FALSE(observation.routes.empty());

  core::InferenceConfig config;
  config.sanitizer.ixp_asns.insert(truth.ixp_asns.begin(), truth.ixp_asns.end());
  const auto result = core::AsRankInference(config).run(
      paths::PathCorpus::from_records(observation.routes));
  EXPECT_TRUE(result.audit.p2c_acyclic);
  EXPECT_GT(result.graph.link_count(), 0u);

  const auto accuracy = validation::evaluate_against_truth(result.graph.to_graph(), truth.graph);
  EXPECT_GT(accuracy.accuracy(), 0.8);

  const auto cones = core::recursive_cone(result.graph);
  EXPECT_EQ(cones.size(), result.graph.node_count());
}

}  // namespace
}  // namespace asrank
