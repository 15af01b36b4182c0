// Clique inference (paper §4.3 step 3, assumption A1).
//
// The top of the transit hierarchy is a set of networks that peer with each
// other and buy transit from no one.  The paper seeds a Bron–Kerbosch maximal
// clique search with the ASes of highest transit degree, takes the largest
// clique containing the top-ranked AS, then considers further ASes in rank
// order, admitting each that is observed adjacent to every current member.
//
// The inference runs on the dense NodeId space of the path arena the Degrees
// were tallied over: observed adjacency is the tally's CSR
// (Degrees::adjacency), membership and ban sets are bitmaps, and
// customer-evidence witnesses are counted via sorted pair lists over the
// arena's distinct paths — no hashing and no ASN lookups in the path loops.
#pragma once

#include <cstddef>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "asn/asn.h"
#include "core/degrees.h"
#include "paths/arena.h"
#include "topology/interner.h"

namespace asrank::core {

struct CliqueConfig {
  /// Number of top-transit-degree ASes seeding the Bron–Kerbosch search
  /// (paper value: 10).
  std::size_t seed_size = 10;

  /// How many further ranked ASes to test for admission after the seed
  /// clique is chosen.
  std::size_t expansion_candidates = 30;

  /// During expansion, admit a candidate missing observed adjacency to at
  /// most this many current members.  Peering links between two tier-1s are
  /// visible only from below either one, so with a finite VP set a true
  /// member can easily lack one observed link.  The customer-evidence test
  /// below keeps this tolerance safe.
  std::size_t max_missing_links = 1;

  /// Reject any candidate observed *below* two consecutive members: in a
  /// valley-free path "A B X" with A,B both in the clique, the A-B link is
  /// p2p, so B-X must be p2c — X buys transit and cannot be tier-1.  An AS
  /// sandwiched between two members is rejected on the same reasoning.
  bool reject_customer_evidence = true;

  /// Customer evidence must be witnessed by at least this many distinct
  /// origin ASes.  A single origin poisoning its announcements with tier-1
  /// ASNs fabricates such patterns on every path toward itself; requiring
  /// independent origins defuses that.
  std::size_t customer_evidence_min_origins = 2;
};

/// Undirected adjacency as nested hash sets.  Legacy representation kept for
/// hand-built test fixtures and small ad-hoc queries; the inference itself
/// uses ObservedAdjacency.
using AdjacencySet = std::unordered_map<Asn, std::unordered_set<Asn>>;

/// All maximal cliques of the sub-graph induced by `vertices`
/// (Bron–Kerbosch with pivoting).  Intended for small vertex sets.
[[nodiscard]] std::vector<std::vector<Asn>> maximal_cliques(const AdjacencySet& adjacency,
                                                            const std::vector<Asn>& vertices);

/// Infer the top clique.  Returns members sorted ascending.  `degrees` must
/// be Degrees::compute(arena): the clique reuses its ranking and observed
/// adjacency, and walks the arena's distinct paths for customer evidence.
[[nodiscard]] std::vector<Asn> infer_clique(const paths::PathArena& arena,
                                            const Degrees& degrees,
                                            const CliqueConfig& config);

}  // namespace asrank::core
