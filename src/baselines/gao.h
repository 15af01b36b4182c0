// Gao's classic relationship-inference algorithm (L. Gao, "On inferring
// autonomous system relationships in the Internet", IEEE/ACM ToN 2001) — the
// baseline the paper compares against.
//
// The algorithm assumes every path is valley-free around its highest-degree
// AS ("top provider"):
//   Phase 1: compute node degrees from the paths.
//   Phase 2: for each path, the AS pairs before the top provider are uphill
//            (right side provides), pairs after are downhill (left side
//            provides); accumulate transit counts per directed pair.
//   Phase 3: assign relationships from the counts: both directions above the
//            sibling threshold L -> sibling; one-sided or dominant -> p2c.
//   Phase 4: peering: links adjacent to a path's top provider whose endpoint
//            degrees are within ratio R and which were not already classified
//            as transit in either direction -> p2p.
#pragma once

#include <cstdint>

#include "algo/algorithm.h"

namespace asrank::baselines {

struct GaoConfig {
  /// Phase 3 sibling threshold: both directions observed more than L times.
  std::uint32_t sibling_threshold = 1;
  /// Phase 4 degree ratio bound for plausible peering.
  double peering_degree_ratio = 60.0;
};

class GaoInference final : public algo::InferenceAlgorithm {
 public:
  explicit GaoInference(GaoConfig config = {}) : config_(config) {}

  [[nodiscard]] std::string name() const override { return "gao2001"; }
  [[nodiscard]] topology::TopologyView infer(const paths::PathCorpus& corpus) const override;

 private:
  GaoConfig config_;
};

}  // namespace asrank::baselines
