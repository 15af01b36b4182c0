// Naive degree-ratio heuristic: the strawman baseline.  For every observed
// link, the side with the much larger node degree is the provider; links
// between comparable-degree ASes are peers.  No valley-free reasoning at all
// — its error rate shows why structural algorithms are needed.
#pragma once

#include <cstddef>

#include "algo/algorithm.h"

namespace asrank::baselines {

struct DegreeHeuristicConfig {
  /// A link is p2c when max(deg)/min(deg) exceeds this ratio, else p2p.
  double provider_ratio = 2.0;
};

/// The rule for one link (lo, hi), lo the lower id, from the two node
/// degrees: hi's relationship seen from lo.  kCustomer (lo provides) when
/// the degree ratio exceeds `provider_ratio` and lo's degree is the larger
/// or equal one, kProvider when hi's is larger, kPeer otherwise.
[[nodiscard]] RelView degree_ratio_view(std::size_t lo_degree, std::size_t hi_degree,
                                        double provider_ratio) noexcept;

class DegreeHeuristic final : public algo::InferenceAlgorithm {
 public:
  explicit DegreeHeuristic(DegreeHeuristicConfig config = {}) : config_(config) {}

  [[nodiscard]] std::string name() const override { return "degree-ratio"; }
  [[nodiscard]] topology::TopologyView infer(const paths::PathCorpus& corpus) const override;

 private:
  DegreeHeuristicConfig config_;
};

}  // namespace asrank::baselines
