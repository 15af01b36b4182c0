// Embeddable query layer over a frozen SnapshotIndex.
//
// The engine mirrors the index's accessors and adds per-query-type latency
// histograms (exposed via the STATS and METRICS opcodes and the serving
// bench), the cone bitset intersection kernel, and the two derived queries — cone
// intersection and provider-path-to-clique (BFS).  All entry points are
// thread-safe: the index is held by shared_ptr-to-const and immutable,
// metric observations are lock-free atomics (obs::Registry), the cone
// bitset is built once under std::call_once, and the BFS scratch is
// thread_local.
//
// Metrics live in an obs::Registry (asrankd_query_latency_micros{type=...},
// asrankd_queries_total).  By default that is the process-global registry;
// tests pass their own for isolated counts.  Engines sharing one registry
// share series — counts are per registry, not per engine.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "core/cone_bitset.h"
#include "obs/metrics.h"
#include "snapshot/snapshot.h"

namespace asrank::serve {

/// Shared, immutable query result.
using AsnList = std::shared_ptr<const std::vector<Asn>>;

enum class QueryType : std::uint8_t {
  kRelationship = 0,
  kRank,
  kConeSize,
  kCone,
  kInCone,
  kNeighborSet,   ///< providers/customers/peers
  kTop,
  kConeIntersect,
  kPathToClique,
  kClique,
  kStats,
  kPing,
};
inline constexpr std::size_t kQueryTypeCount = 12;

[[nodiscard]] std::string_view to_string(QueryType type) noexcept;

struct QueryStats {
  std::uint64_t count = 0;
  std::uint64_t total_micros = 0;
};

class QueryEngine {
 public:
  /// The snapshot is shared, not copied, so several engines (or an engine
  /// plus background analysis) can serve one loaded index.  `registry`
  /// receives the engine's query metrics and must outlive it.  `cone_config`
  /// tunes the blocked-bitset cone intersection kernel (core::ConeBitset,
  /// built lazily on the first cone intersection query); pass
  /// ConeBitsetConfig::disabled() to force the sorted-array merge — the
  /// answers are identical either way (tests/test_differential.cpp).  Cone
  /// difference and membership always run on the sorted arrays.
  /// `algo_slot` selects which algorithm section of a multi-algorithm
  /// snapshot the engine answers from (SnapshotIndex::algorithm_at); slot 0
  /// is the primary and the only valid slot for single-algorithm files.
  explicit QueryEngine(std::shared_ptr<const snapshot::SnapshotIndex> index,
                       obs::Registry* registry = &obs::Registry::global(),
                       core::ConeBitsetConfig cone_config = {},
                       std::size_t algo_slot = 0);

  /// Convenience for callers holding the index by value (wraps it in a
  /// shared_ptr).
  explicit QueryEngine(snapshot::SnapshotIndex index,
                       obs::Registry* registry = &obs::Registry::global(),
                       core::ConeBitsetConfig cone_config = {});

  /// The algorithm section this engine answers from (the root index for
  /// slot 0, a nested per-algorithm index otherwise).
  [[nodiscard]] const snapshot::SnapshotIndex& index() const noexcept { return *view_; }
  /// Canonical name of the algorithm behind index().
  [[nodiscard]] const std::string& algorithm() const noexcept { return algo_name_; }
  [[nodiscard]] const std::shared_ptr<const snapshot::SnapshotIndex>& index_ptr()
      const noexcept {
    return index_;
  }
  [[nodiscard]] obs::Registry& registry() const noexcept { return *registry_; }

  // Direct lookups (O(1)/O(log n) against the index).
  [[nodiscard]] std::optional<RelView> relationship(Asn a, Asn b);
  [[nodiscard]] std::optional<std::uint32_t> rank(Asn as);
  [[nodiscard]] std::size_t cone_size(Asn as);
  [[nodiscard]] std::span<const Asn> cone(Asn as);
  [[nodiscard]] bool in_cone(Asn as, Asn member);
  [[nodiscard]] std::vector<Asn> providers(Asn as);
  [[nodiscard]] std::vector<Asn> customers(Asn as);
  [[nodiscard]] std::vector<Asn> peers(Asn as);
  [[nodiscard]] std::vector<snapshot::TopEntry> top(std::size_t n);
  [[nodiscard]] std::span<const Asn> clique();
  void ping();

  // Derived queries.
  /// Sorted intersection of two customer cones.
  [[nodiscard]] AsnList cone_intersection(Asn a, Asn b);
  /// Members of `as`'s cone absent from `other` (a sorted ASN list, e.g.
  /// the same AS's cone in another epoch) — one direction of a CONE_DIFF.
  /// One sorted set difference; the result is ascending.
  [[nodiscard]] std::vector<Asn> cone_minus(Asn as, std::span<const Asn> other);
  /// Shortest provider-chain from `as` to any clique member (BFS over
  /// provider links; ties broken toward lower ASNs, so the result is
  /// deterministic).  First hop is `as`, last is the clique member; empty
  /// when `as` is unknown or no provider path reaches the clique.
  [[nodiscard]] AsnList path_to_clique(Asn as);

  /// Counter snapshot, indexed by QueryType (a view over the registry's
  /// latency histograms).
  [[nodiscard]] std::array<QueryStats, kQueryTypeCount> stats() const;
  void record_stats_query();  ///< count a kStats serve (rendering is external)

  /// Human-readable stats table (also the STATS opcode's response body).
  /// Its `cache_hits` column is always 0; it is kept so STATS bytes stay
  /// stable for existing parsers.
  [[nodiscard]] std::string render_stats() const;

 private:
  class Timer;  ///< RAII counter update (defined in the .cpp)

  void record(QueryType type, std::uint64_t micros);

  /// The per-epoch cone bitset, built thread-safely on first use (cone
  /// intersection only; engines that never see one never pay for it).
  [[nodiscard]] const core::ConeBitset& cone_bits();

  std::shared_ptr<const snapshot::SnapshotIndex> index_;
  /// Slot view into *index_ (== index_.get() for slot 0).  Never null; owned
  /// by index_, so the shared_ptr keeps it alive.
  const snapshot::SnapshotIndex* view_;
  std::string algo_name_;
  obs::Registry* registry_;

  core::ConeBitsetConfig cone_config_;
  std::once_flag cone_bits_once_;
  std::unique_ptr<const core::ConeBitset> cone_bits_store_;

  /// asrankd_query_latency_micros{type=}, indexed by QueryType and resolved
  /// once in the constructor so the per-query hot path is pointer-chasing
  /// plus relaxed atomics.
  std::array<obs::Histogram*, kQueryTypeCount> latency_{};
  obs::Counter* queries_total_ = nullptr;  ///< asrankd_queries_total
  /// asrankd_algo_queries_total{algo=...}: per-algorithm query volume.
  obs::Counter* algo_queries_total_ = nullptr;
  /// asrankd_cone_kernel_total{kernel=bitset|hybrid|sorted}: which kernel
  /// answered each cone intersection/diff/membership query (diff and
  /// membership always count as sorted).
  obs::Counter* kernel_bitset_ = nullptr;
  obs::Counter* kernel_hybrid_ = nullptr;
  obs::Counter* kernel_sorted_ = nullptr;
};

}  // namespace asrank::serve
