#include "baselines/degree_heuristic.h"

#include <vector>

#include "core/degrees.h"

namespace asrank::baselines {

RelView degree_ratio_view(std::size_t lo_degree, std::size_t hi_degree,
                          double provider_ratio) noexcept {
  const auto da = static_cast<double>(lo_degree);
  const auto db = static_cast<double>(hi_degree);
  const double big = da > db ? da : db;
  const double small = da > db ? db : da;
  if (small <= 0.0 || big / small > provider_ratio) {
    return da >= db ? RelView::kCustomer : RelView::kProvider;
  }
  return RelView::kPeer;
}

topology::TopologyView DegreeHeuristic::infer(const paths::PathCorpus& corpus) const {
  using topology::NodeId;

  // The degree tally's id space and observed adjacency (CSR rows), so node
  // degree is a row length and the pair sweep is an ascending-id walk: the
  // link keys come out sorted.
  const core::Degrees degrees = core::Degrees::compute(corpus);
  const topology::AsnInterner& interner = degrees.interner();
  const core::ObservedAdjacency& adjacency = degrees.adjacency();

  std::vector<std::uint64_t> keys;
  std::vector<RelView> lo_views;
  for (NodeId node = 0; node < interner.size(); ++node) {
    const auto row = adjacency.neighbors(node);
    for (const NodeId other : row) {
      if (other <= node) continue;  // visit each pair once
      keys.push_back(std::uint64_t{node} << 32 | other);
      lo_views.push_back(degree_ratio_view(row.size(), adjacency.neighbors(other).size(),
                                           config_.provider_ratio));
    }
  }
  return topology::TopologyView::from_link_table(interner, std::move(keys), lo_views);
}

}  // namespace asrank::baselines
