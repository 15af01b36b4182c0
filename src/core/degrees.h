// Degree metrics over a path corpus (paper §4.3 step 2).
//
// The ranking that drives top-down inference uses *transit degree*: the
// number of distinct neighbours an AS has in paths where it appears between
// two other ASes (i.e. where it actually transits traffic).  Node degree
// (distinct neighbours anywhere) breaks ties, and lower ASN breaks the rest,
// making the ranking a deterministic total order.
//
// The tally walks adjacent hop pairs in NodeId space.  Degrees count
// distinct neighbours, so duplicate paths add nothing and need not be
// removed first.  Prepending runs are collapsed on the fly and kNoNode (AS0)
// hops are skipped.  Every observed (node, neighbour) pair is bucketed by
// node, both ways, as a 32-bit entry `neighbour << 1 | interior`, where
// interior says the node sat between two hops at that occurrence.  Per row,
// a sparse-set dedup keeps one entry per neighbour and ORs the interior
// flags of its repeats into it, and the row is sorted: the rows are the
// ObservedAdjacency CSR, the row lengths are node degrees and the set flags
// are transit degrees.  No per-pair hashing, no global sort, no per-hop
// search, and the clique stage reuses the adjacency instead of rebuilding
// it.  The 31-bit neighbour field caps the id space at 2^31 - 1 ASes
// (detail::require_tally_id_space).
//
// What runs on the pool, and what stays serial:
//   * compute(arena) walks the arena's distinct paths; compute(corpus) walks
//     the corpus records themselves, with no arena and no path dedup.  Its
//     one serial pass interns every hop through a topology::FirstSeenIds
//     table (AS0 stays out and reads back as kNoNode).
//   * Counting and filling the buckets run in pool chunks over the paths or
//     records.  Each chunk counts into its own per-node array; a serial
//     prefix over (node, chunk) turns those counts into per-chunk fill
//     cursors, so every row holds its entries in path order at any worker
//     count.
//   * The row dedup and sort run in chunks of about equal entry counts, and
//     the copy into the CSR in node chunks.
//   * The ranking sorts each chunk of ranked ids and merges the chunks.
// All scratch is allocated on the calling thread; results are identical at
// any worker count.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "asn/asn.h"
#include "paths/arena.h"
#include "paths/corpus.h"
#include "topology/interner.h"

namespace asrank::util {
class ThreadPool;
}  // namespace asrank::util

namespace asrank::core {

namespace detail {

/// Largest id space the degree tally accepts: entries keep a neighbour id
/// in 31 bits.
inline constexpr std::size_t kMaxTallyIds = (std::size_t{1} << 31) - 1;

/// Throws std::length_error if `ids` exceeds kMaxTallyIds.
void require_tally_id_space(std::size_t ids);

}  // namespace detail

/// Undirected adjacency restricted to links observed in paths, keyed by
/// dense node id (CSR, rows sorted ascending).  Produced by the degree tally
/// (Degrees::adjacency) and consumed by infer_clique and the baselines.
class ObservedAdjacency {
 public:
  ObservedAdjacency() = default;
  ObservedAdjacency(std::vector<std::uint64_t> offsets, std::vector<topology::NodeId> neighbors)
      : offsets_(std::move(offsets)), neighbors_(std::move(neighbors)) {}

  [[nodiscard]] std::size_t node_count() const noexcept { return offsets_.size() - 1; }

  [[nodiscard]] std::span<const topology::NodeId> neighbors(topology::NodeId node) const noexcept {
    return std::span<const topology::NodeId>(neighbors_)
        .subspan(offsets_[node], offsets_[node + 1] - offsets_[node]);
  }

  /// O(log deg) membership test on the sorted row.
  [[nodiscard]] bool adjacent(topology::NodeId a, topology::NodeId b) const noexcept;

  /// Distinct undirected pairs (each is an entry in two rows).
  [[nodiscard]] std::size_t pair_count() const noexcept { return neighbors_.size() / 2; }

 private:
  std::vector<std::uint64_t> offsets_{0};     // node_count + 1
  std::vector<topology::NodeId> neighbors_;   // rows sorted ascending
};

class Degrees {
 public:
  Degrees() = default;

  /// Tally the distinct paths of `arena` on `pool`; ids are the arena's
  /// interner ids.  Throws std::length_error if the interner holds 2^31 or
  /// more ids.
  [[nodiscard]] static Degrees compute(const paths::PathArena& arena, util::ThreadPool& pool);

  /// Same on a pool of `threads` workers (0 = all hardware threads).
  [[nodiscard]] static Degrees compute(const paths::PathArena& arena, std::size_t threads = 1);

  /// Same over the records of a corpus that need not be sanitized: every
  /// ASN but AS0 is interned, prepending is collapsed, nothing is stripped
  /// or dropped.  One pool of `threads` workers runs every phase.
  [[nodiscard]] static Degrees compute(const paths::PathCorpus& corpus,
                                       std::size_t threads = 1);

  [[nodiscard]] std::size_t transit_degree(Asn as) const noexcept;
  [[nodiscard]] std::size_t node_degree(Asn as) const noexcept;

  /// Dense-id accessors (id must be < interner().size()).
  [[nodiscard]] std::size_t transit_degree(topology::NodeId id) const noexcept {
    return transit_deg_[id];
  }
  [[nodiscard]] std::size_t node_degree(topology::NodeId id) const noexcept {
    return node_deg_[id];
  }
  [[nodiscard]] std::size_t rank_of(topology::NodeId id) const noexcept {
    return rank_[id];
  }

  /// The id space the tallies are indexed by (every corpus AS).
  [[nodiscard]] const topology::AsnInterner& interner() const noexcept { return interner_; }

  /// The observed (node, neighbour) pairs the tally counted.
  [[nodiscard]] const ObservedAdjacency& adjacency() const noexcept { return adjacency_; }

  /// All ASes in rank order: transit degree desc, node degree desc, ASN asc.
  [[nodiscard]] const std::vector<Asn>& ranked() const noexcept { return ranked_; }

  /// Position in the ranking (0 = highest).  ASes absent from the corpus
  /// rank below every present AS.
  [[nodiscard]] std::size_t rank_of(Asn as) const noexcept;

 private:
  /// The tally over `units` paths or records: walk(u, pair) calls
  /// pair(a, b, a_interior, b_interior) for each adjacent pair of unit u.
  template <typename Walk>
  static Degrees tally(topology::AsnInterner interner, std::size_t units, util::ThreadPool& pool,
                       const Walk& walk);

  /// Fills rank_ and ranked_ from the degrees.
  void rank(util::ThreadPool& pool);

  topology::AsnInterner interner_;
  ObservedAdjacency adjacency_;
  std::vector<std::uint32_t> transit_deg_;  // by NodeId
  std::vector<std::uint32_t> node_deg_;     // by NodeId
  std::vector<std::size_t> rank_;           // by NodeId; ranked_.size() if unranked
  std::vector<Asn> ranked_;
};

}  // namespace asrank::core
