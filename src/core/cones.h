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
// width bitsets (one per AS that has customers) straight into the CSR
// ConeMap, so the hot loop is cache-linear with no hashing.  The observed
// cones walk a paths::PathArena's distinct paths that some record carries
// (multiplicity > 0), once each: cones are sets, so how many records carry
// a path does not matter.  Arena ids map to view ids through one table
// built by a merge walk of the two interners (both ascend by ASN); AS0 and
// ASes the view lacks map to kNoNode.  The pipeline's InferenceResult::arena
// is the post-step-4 corpus; a raw corpus is passed as an arena built with
// every sanitizer stage off, so the walk sees its hops as they were read.
// Every inference algorithm returns a view, so the cones of an inferred
// graph never freeze; recursive_cone's AsGraph overload, for ground-truth
// graphs, freezes the graph first.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/degrees.h"
#include "paths/arena.h"
#include "topology/as_graph.h"
#include "topology/serialization.h"
#include "topology/topology_view.h"

namespace asrank::core {

// Every computation below takes a worker-thread count: 1 (the default) runs
// the same code inline on the calling thread, 0 means all hardware threads,
// and the result is bit-identical at any count (see util/thread_pool.h — the
// closure parallelizes within reverse-topological levels of the p2c DAG, the
// observed cones over chunks of arena paths with sorted merges).  Each call
// makes one pool of that many workers; recursive_cone runs a graph of under
// 16,384 ASes inline, where starting workers costs more than the closure.

/// Strongly connected components of the view's provider->customer digraph
/// (iterative Tarjan over the customer rows, after BGPExtrapolator's
/// ASGraph::tarjan).  A view has no self-links, so the digraph is acyclic
/// (assumption A3) iff every component is a single AS.
struct ProviderComponents {
  std::vector<std::uint32_t> component;  ///< by NodeId
  std::size_t count = 0;

  [[nodiscard]] bool acyclic() const noexcept { return count == component.size(); }
};
[[nodiscard]] ProviderComponents provider_components(const topology::TopologyView& view);

/// Establish assumption A3 in place: inside every strongly connected
/// component of the provider->customer digraph, re-orient c2p edges so the
/// higher-ranked endpoint (`degrees.rank_of`: transit degree, ASN
/// tie-break) provides.  The strict total order breaks all cycles without
/// discarding transit evidence.  The one cycle repair: the asrank pipeline
/// runs it as step 11, and the snapshot builder runs it on the baselines'
/// views (gao2001, tor-local-search and degree-ratio promise nothing about
/// acyclicity).  Returns the number of re-oriented p2c edges.  An acyclic
/// view, the common case, costs one Tarjan pass and is left untouched (0);
/// otherwise the view is rebuilt without a clique, which no inference
/// result carries.
std::size_t break_provider_cycles(topology::TopologyView& view, const Degrees& degrees);

/// Full transitive closure over p2c links.  Requires an acyclic provider
/// graph (throws std::invalid_argument otherwise — assumption A3).
[[nodiscard]] ConeMap recursive_cone(const topology::TopologyView& view,
                                     std::size_t threads = 1);
[[nodiscard]] ConeMap recursive_cone(const AsGraph& graph, std::size_t threads = 1);

/// Direct observation: contiguous descending chains after each AS in the
/// arena's paths, using the view to classify links as p2c.
[[nodiscard]] ConeMap bgp_observed_cone(const topology::TopologyView& view,
                                        const paths::PathArena& arena,
                                        std::size_t threads = 1);

/// Closure over p2c links observed in descending path positions where the
/// provider was reached via one of its providers or peers.
[[nodiscard]] ConeMap provider_peer_observed_cone(const topology::TopologyView& view,
                                                  const paths::PathArena& arena,
                                                  std::size_t threads = 1);

}  // namespace asrank::core
