// Customer cones (paper §5): the set of ASes reachable from an AS by
// descending only customer links.  Cone size is the paper's measure of an
// AS's influence, and the basis of the AS Rank.  Three computations, from
// most to least inclusive:
//
//   * Recursive: full transitive closure over every inferred p2c link.
//     Overestimates when providers don't actually route to all indirect
//     customers (multihomed customers filter announcements).
//   * Provider/peer observed (the canonical "ppdc" CAIDA publishes): closure
//     restricted to p2c links that were observed in a path while descending —
//     i.e. links whose provider was itself reached through one of its
//     providers or peers.  This keeps only customer links proven to carry
//     traffic downward from above.
//   * BGP observed: only ASes seen in an actual contiguous customer-link
//     chain after the AS in some path; no closure.  The most conservative.
//
// Invariant (tested): recursive ⊇ provider/peer observed and
// recursive ⊇ BGP observed, for every AS.  Every cone contains its own AS.
//
// All computations run on the dense-id CSR substrate (topology::TopologyView):
// the closure walks flat customer rows indexed by NodeId and unions fixed-
// width bitsets, so the hot loop is cache-linear with no hashing.  The
// AsGraph overloads freeze the graph first; callers that already hold a view
// (the CLI, the snapshot builder) should pass it directly and pay the freeze
// cost once.
#pragma once

#include <cstddef>
#include <string_view>

#include "core/degrees.h"
#include "paths/corpus.h"
#include "topology/as_graph.h"
#include "topology/serialization.h"
#include "topology/topology_view.h"

namespace asrank::core {

enum class ConeMethod { kRecursive, kBgpObserved, kProviderPeerObserved };

[[nodiscard]] constexpr std::string_view to_string(ConeMethod method) noexcept {
  switch (method) {
    case ConeMethod::kRecursive: return "recursive";
    case ConeMethod::kBgpObserved: return "bgp-observed";
    case ConeMethod::kProviderPeerObserved: return "provider-peer-observed";
  }
  return "?";
}

// Every computation below takes a worker-thread count: 1 (the default) is
// the exact sequential legacy path, 0 means all hardware threads, and the
// result is bit-identical at any count (see util/thread_pool.h — the closure
// parallelizes over reverse-topological levels of the p2c DAG, the observed
// cones over path-corpus chunks with commutative merges).

/// Establish assumption A3 in place: inside every strongly connected
/// component of the provider->customer digraph, re-orient c2p edges so the
/// higher-ranked endpoint (by transit degree, ASN tie-break) provides.  The
/// strict total order breaks all cycles without discarding transit evidence.
/// This is the asrank pipeline's step-11 repair, exposed for callers that
/// freeze cones over graphs other inference algorithms produced — the
/// baselines (gao2001, tor-local-search, degree-ratio) promise nothing about
/// acyclicity.  Returns the number of re-oriented p2c edges (0 when the
/// graph was already acyclic — the common case — in which case nothing is
/// touched).
std::size_t break_provider_cycles(AsGraph& graph, const Degrees& degrees);

/// Full transitive closure over p2c links.  Requires an acyclic provider
/// graph (throws std::invalid_argument otherwise — assumption A3).
[[nodiscard]] ConeMap recursive_cone(const topology::TopologyView& view,
                                     std::size_t threads = 1);
[[nodiscard]] ConeMap recursive_cone(const AsGraph& graph, std::size_t threads = 1);

/// Direct observation: contiguous descending chains after each AS in paths,
/// using the view to classify links as p2c.
[[nodiscard]] ConeMap bgp_observed_cone(const topology::TopologyView& view,
                                        const paths::PathCorpus& corpus,
                                        std::size_t threads = 1);
[[nodiscard]] ConeMap bgp_observed_cone(const AsGraph& graph, const paths::PathCorpus& corpus,
                                        std::size_t threads = 1);

/// Closure over p2c links observed in descending path positions where the
/// provider was reached via one of its providers or peers.
[[nodiscard]] ConeMap provider_peer_observed_cone(const topology::TopologyView& view,
                                                  const paths::PathCorpus& corpus,
                                                  std::size_t threads = 1);
[[nodiscard]] ConeMap provider_peer_observed_cone(const AsGraph& graph,
                                                  const paths::PathCorpus& corpus,
                                                  std::size_t threads = 1);

/// Dispatch by method.  kRecursive ignores `corpus`.
[[nodiscard]] ConeMap compute_cone(ConeMethod method, const AsGraph& graph,
                                   const paths::PathCorpus& corpus,
                                   std::size_t threads = 1);
[[nodiscard]] ConeMap compute_cone(ConeMethod method, const topology::TopologyView& view,
                                   const paths::PathCorpus& corpus,
                                   std::size_t threads = 1);

}  // namespace asrank::core
