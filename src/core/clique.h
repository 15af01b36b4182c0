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
// customer-evidence witnesses are counted over the arena's distinct paths
// bucketed by origin, one stamp per node — no hashing, no sorting and no
// ASN lookups in the path loops.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
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

namespace detail {

/// All maximal cliques of the sub-graph of `adjacency` induced by
/// `vertices` (Bron–Kerbosch with pivoting), each as a sorted NodeId list.
/// Intended for small vertex sets (infer_clique's seed).
[[nodiscard]] std::vector<std::vector<topology::NodeId>> maximal_cliques(
    const ObservedAdjacency& adjacency, const std::vector<topology::NodeId>& vertices);

/// Ids of the arena's distinct paths of three or more hops (the only ones
/// that can carry customer evidence), grouped by origin (last hop): a
/// counting sort on the origin id, with kNoNode (an AS0 origin) as its own
/// last bucket.  Within a bucket, ids ascend.
[[nodiscard]] std::vector<std::uint32_t> paths_by_origin(const paths::PathArena& arena);

/// Customer evidence relative to a candidate member set: an AS observed
/// directly after two consecutive members (either path direction) must buy
/// transit from a member — the member-member link is p2p, so the next link
/// can only be p2c.  An AS *sandwiched between* two members must buy from at
/// least one (two consecutive p2p links would violate valley-freeness);
/// this also neutralizes path poisoning that inserts a victim between two
/// tier-1s.  The sandwich rule applies to members themselves: a "member"
/// seen between two genuine members is a customer that slipped in.
///
/// Returns per-node distinct-witness counts: evidence is recorded per
/// distinct origin AS — a single origin poisoning its announcements
/// (inserting a real tier-1 ASN) taints every path toward itself but no path
/// toward anyone else, so callers can demand independent witnesses where
/// robustness matters.  `by_origin` must be paths_by_origin(arena): each
/// origin bucket is one witness, so a per-node stamp of the last bucket
/// that counted it dedups (node, origin) pairs in one linear walk, and a
/// repeated path adds no new witness.  An AS0 origin (kNoNode) is still
/// one distinct witness.
[[nodiscard]] std::vector<std::uint32_t> customer_evidence(
    const paths::PathArena& arena, std::span<const std::uint32_t> by_origin,
    std::span<const topology::NodeId> members);

}  // namespace detail

/// Infer the top clique.  Returns members sorted ascending.  `degrees` must
/// be Degrees::compute(arena): the clique reuses its ranking and observed
/// adjacency, and walks the arena's distinct paths for customer evidence.
[[nodiscard]] std::vector<Asn> infer_clique(const paths::PathArena& arena,
                                            const Degrees& degrees,
                                            const CliqueConfig& config);

}  // namespace asrank::core
