#include "baselines/degree_heuristic.h"

#include <vector>

#include "core/degrees.h"

namespace asrank::baselines {

AsGraph DegreeHeuristic::infer(const paths::PathCorpus& corpus) const {
  using topology::NodeId;

  // The degree tally's id space and observed adjacency (CSR rows), so node
  // degree is a row length and the pair sweep is an ascending-id walk.
  const core::Degrees degrees = core::Degrees::compute(corpus);
  const topology::AsnInterner& interner = degrees.interner();
  const core::ObservedAdjacency& adjacency = degrees.adjacency();

  AsGraph graph;
  for (NodeId node = 0; node < interner.size(); ++node) {
    const auto row = adjacency.neighbors(node);
    for (const NodeId other : row) {
      if (other <= node) continue;  // visit each pair once
      const auto da = static_cast<double>(row.size());
      const auto db = static_cast<double>(adjacency.neighbors(other).size());
      const double big = da > db ? da : db;
      const double small = da > db ? db : da;
      const Asn a = interner.asn_of(node);
      const Asn b = interner.asn_of(other);
      if (small <= 0.0 || big / small > config_.provider_ratio) {
        graph.add_p2c(da >= db ? a : b, da >= db ? b : a);
      } else {
        graph.add_p2p(a, b);
      }
    }
  }
  return graph;
}

}  // namespace asrank::baselines
