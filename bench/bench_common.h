// Shared setup for the experiment harness binaries (see DESIGN.md §5).
//
// Every bench binary accepts the same optional positional arguments:
//     <binary> [preset] [seed]
// and prints a `# paper-shape:` annotation stating the qualitative claim
// from the paper it reproduces, followed by the table/series itself.
#pragma once

#include <cstdlib>
#include <iostream>
#include <string>

#include "bgpsim/observation.h"
#include "core/asrank.h"
#include "paths/corpus.h"
#include "topogen/topogen.h"
#include "util/table.h"
#include "validation/ppv.h"

namespace asrank::bench {

struct Options {
  std::string preset = "medium";
  std::uint64_t seed = 42;
  std::size_t full_vps = 30;
  std::size_t partial_vps = 10;
};

inline Options parse_options(int argc, char** argv) {
  Options options;
  if (argc > 1) options.preset = argv[1];
  if (argc > 2) options.seed = std::strtoull(argv[2], nullptr, 10);
  return options;
}

struct World {
  topogen::GroundTruth truth;
  bgpsim::Observation observation;
  core::InferenceResult result;
  AsGraph inferred;  ///< result.graph as an AsGraph, for the ASN-keyed scorers
};

inline core::InferenceConfig config_for(const topogen::GroundTruth& truth) {
  core::InferenceConfig config;
  config.sanitizer.ixp_asns.insert(truth.ixp_asns.begin(), truth.ixp_asns.end());
  return config;
}

inline World make_world(const Options& options) {
  auto gen = topogen::GenParams::preset(options.preset);
  gen.seed = options.seed;
  World world{topogen::generate(gen), {}, {}, {}};
  bgpsim::ObservationParams obs;
  obs.seed = options.seed + 1;
  obs.full_vps = options.full_vps;
  obs.partial_vps = options.partial_vps;
  obs.threads = 0;  // identical results at any thread count (per-dest RNG)
  world.observation = bgpsim::observe(world.truth, obs);
  world.result = core::AsRankInference(config_for(world.truth))
                     .run(paths::PathCorpus::from_records(world.observation.routes));
  world.inferred = world.result.graph.to_graph();
  return world;
}

inline void paper_shape(const std::string& claim) {
  std::cout << "# paper-shape: " << claim << "\n";
}

inline void header(const std::string& experiment, const Options& options) {
  std::cout << "== " << experiment << " (preset " << options.preset << ", seed "
            << options.seed << ") ==\n";
}

}  // namespace asrank::bench
