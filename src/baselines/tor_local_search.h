// Type-of-Relationship (ToR) local search baseline.
//
// A second family of classic algorithms (Di Battista/Erlebach/Subramanian
// et al., 2003-2007) casts relationship inference as combinatorial
// optimization: label every link c2p (one of two orientations) or p2p so as
// to maximize the number of valley-free paths.  The exact problem is
// NP-hard; this baseline is the standard hill-climbing heuristic —
// initialize from a degree comparison, then repeatedly re-label single
// links whenever that strictly reduces the number of valley violations
// among the paths crossing them.
//
// Its failure mode is instructive next to ASRank: maximizing valley-freeness
// alone is degenerate (labelling everything c2p in path order satisfies most
// paths), so it recovers transit well but over-infers c2p, and has no
// notion of a clique to anchor the top of the hierarchy.
#pragma once

#include <cstdint>

#include "algo/algorithm.h"

namespace asrank::baselines {

struct TorConfig {
  /// Initial labelling degree ratio (same meaning as DegreeHeuristic).
  double initial_provider_ratio = 2.0;
  /// Hill-climbing sweeps over all links.
  std::size_t max_passes = 4;
};

class TorLocalSearch final : public algo::InferenceAlgorithm {
 public:
  explicit TorLocalSearch(TorConfig config = {}) : config_(config) {}

  [[nodiscard]] std::string name() const override { return "tor-local-search"; }
  [[nodiscard]] topology::TopologyView infer(const paths::PathCorpus& corpus) const override;

  /// Count valley violations of `corpus`'s paths under the labelling in
  /// `view` (exposed for tests and for measuring convergence).
  [[nodiscard]] static std::size_t violations(const topology::TopologyView& view,
                                              const paths::PathCorpus& corpus);

 private:
  TorConfig config_;
};

}  // namespace asrank::baselines
