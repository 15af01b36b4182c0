// Incremental route-table maintenance: the front half of the streaming
// ingest conveyor (docs/INGEST.md).
//
// An UpdateApplier consumes decoded BGP4MP UPDATE messages one at a time
// (typically straight off an mrt::UpdateReader) and maintains the (vantage
// point, prefix) -> AS-path table a collector would hold — withdrawals erase
// rows, announcements insert or implicitly replace them.  The table
// materializes on demand as a paths::PathCorpus in deterministic (vp,
// prefix) order, so feeding the same cumulative update stream always yields
// the same corpus bytes and therefore (via the deterministic inference
// pipeline) the same ASRK1 epoch bytes.
//
// The table is one flat vector of rows sorted by (vp, prefix), so an epoch
// cut is a sequential copy, not a tree walk.  Between cuts an update pays a
// binary search: an announcement for a held key overwrites its path in
// place, and a withdrawal only flags its row.  A key new since the last cut
// waits in a small ordered side set.  corpus() compacts in place (drops the
// flagged rows, merges the side set in from the back) and then copies the
// rows out once.  seed() appends, and the seeded rows are sorted once on
// first use, the last seed of a key winning; so a base RIB loads with one
// sort instead of one tree insert per route.
//
// Semantics deliberately mirror bgpsim::apply_updates — the differential
// suite replays streams through both and asserts the emitted epochs match a
// from-scratch batch build — with one widening: an applier accepts every
// peer it sees (a long-running ingest daemon has no pre-configured peer
// list), where the simulator's collector tracks only its configured VPs.
#pragma once

#include <cstdint>
#include <map>
#include <utility>
#include <vector>

#include "asn/as_path.h"
#include "asn/asn.h"
#include "asn/prefix.h"
#include "mrt/bgp4mp.h"
#include "obs/metrics.h"
#include "paths/corpus.h"

namespace asrank::ingest {

/// Running tallies over every message an applier has consumed.
struct ApplierStats {
  std::uint64_t messages = 0;         ///< UPDATE messages applied
  std::uint64_t announced = 0;        ///< announced prefixes accepted
  std::uint64_t withdrawn = 0;        ///< withdrawn prefixes processed
  std::uint64_t as_set_rejected = 0;  ///< announcements refused (AS_SET path)
  std::uint64_t empty_path_rejected = 0;  ///< announcements with no AS_PATH hops
  std::uint64_t noop_withdrawn = 0;   ///< withdrawals for routes never held

  friend bool operator==(const ApplierStats&, const ApplierStats&) = default;
};

/// Not thread-safe: one thread owns an applier, and the const accessors
/// reorganize the table's storage (never its contents) on the way.
class UpdateApplier {
 public:
  explicit UpdateApplier(obs::Registry& metrics = obs::Registry::global());

  /// Install one base-RIB row (bootstrap before replaying a stream).
  /// Counted as an announcement but not as a message.
  void seed(Asn vp, const Prefix& prefix, AsPath path);

  /// Apply one UPDATE: withdrawals first, then announcements, exactly as the
  /// message orders them.  Announcements carrying an AS_SET or an empty
  /// AS_PATH are rejected (counted; any previously held route survives) —
  /// the sanitizer would drop such paths anyway, and rejecting them here
  /// keeps the table equal to what bgpsim::apply_updates reconstructs.
  void apply(const mrt::UpdateMessage& update);

  /// The current table as an inference input, rows in ascending (vp, prefix)
  /// order.  O(routes); called once per epoch flush.
  [[nodiscard]] paths::PathCorpus corpus() const;

  [[nodiscard]] std::size_t route_count() const noexcept {
    settle();
    return live_;
  }
  [[nodiscard]] const ApplierStats& stats() const noexcept { return stats_; }

  /// Flush bookkeeping: mark() at each epoch cut; messages_since_mark()
  /// drives count-based flush policies.
  void mark() noexcept { mark_ = stats_.messages; }
  [[nodiscard]] std::uint64_t messages_since_mark() const noexcept {
    return stats_.messages - mark_;
  }

 private:
  /// One table row: a paths::PathRecord's fields and a withdrawal flag.  A
  /// PathRecord has no padding to hide the flag in, so a row is one 8-byte
  /// word larger.
  struct Row {
    Asn vp;
    bool withdrawn = false;
    Prefix prefix;
    AsPath path;
  };
  static_assert(sizeof(Row) == sizeof(paths::PathRecord) + 8);
  using Key = std::pair<Asn, Prefix>;

  /// Sort the rows seed() appended before the first use, keeping the last
  /// seed of each key.
  void settle() const noexcept;
  /// Insert or replace the route for `key`.
  void upsert(const Key& key, AsPath path);
  /// Remove the route for `key`; false if none was held.
  bool erase(const Key& key);
  /// The row holding `key` (withdrawn or not), or nullptr.
  Row* find(const Key& key);

  // Storage changes lazily under the const accessors: the seeded rows sort
  // on first use, and corpus() folds withdrawals and new keys into rows_.
  mutable std::vector<Row> rows_;     ///< sorted by (vp, prefix) once sorted_
  mutable std::map<Key, AsPath> fresh_;  ///< keys added since the last corpus()
  mutable std::size_t withdrawn_rows_ = 0;
  mutable std::size_t live_ = 0;      ///< routes held
  mutable bool sorted_ = false;       ///< false while seed() appends unsorted
  ApplierStats stats_;
  std::uint64_t mark_ = 0;

  obs::Counter* announce_total_;
  obs::Counter* withdraw_total_;
  obs::Counter* as_set_total_;
  obs::Gauge* routes_gauge_;
};

}  // namespace asrank::ingest
