// Hot-swappable, multi-epoch snapshot holder for asrankd.
//
// A long-lived daemon must pick up new inference runs without dropping
// queries.  SnapshotRegistry holds one QueryEngine per loaded epoch label
// ("2013-04", "rib-20260801", ...) behind an RCU-style generation pointer:
//
//   * The query hot path is ONE atomic shared_ptr load (current()) or one
//     load plus a small label scan (epoch(label)) — no locks, no waiting on
//     writers.  In-flight queries keep their engine alive through the
//     shared_ptr even while a reload swaps the generation under them.
//   * Writers (install / load_file) serialize on a mutex, build a fresh
//     generation (copy-on-write of the entry list), and publish it with one
//     atomic store.  A failed load — missing file, bad CRC, wrong version —
//     leaves the serving generation untouched and only bumps
//     asrankd_reload_failures_total.
//   * Retention is bounded: at most `retention` epochs stay resident, the
//     least-recently-queried non-current epoch is evicted when a new install
//     would exceed the bound.
//
// Instrumentation (obs::Registry): asrankd_reloads_total,
// asrankd_reload_failures_total, asrankd_reload_duration_micros,
// asrankd_epochs_loaded, asrankd_epoch_ases{epoch=...}, plus the serve
// dispatcher's RequestCounters.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "obs/metrics.h"
#include "runtime/ebr.h"
#include "serve/query_engine.h"
#include "util/result.h"

namespace asrank::serve {

struct SnapshotRegistryConfig {
  /// Maximum number of resident epochs (>= 1).  Installing beyond this
  /// evicts the least-recently-queried non-current epoch.
  std::size_t retention = 4;
  /// load_file() uses the zero-copy mmap loader (SnapshotIndex::map_file):
  /// epochs serve straight from the page cache and N replicas of one file
  /// share a single physical copy.  false reads the file into an owned
  /// image and re-validates every per-link and per-cone invariant
  /// (behavior-identical answers, slower load) — the switch for untrusted
  /// files.
  bool mmap_load = true;
  /// Blocked-bitset cone kernel tuning for each installed engine.
  core::ConeBitsetConfig cone_bitset = {};
};

class SnapshotRegistry {
 public:
  explicit SnapshotRegistry(SnapshotRegistryConfig config = {},
                            obs::Registry* registry = &obs::Registry::global());

  SnapshotRegistry(const SnapshotRegistry&) = delete;
  SnapshotRegistry& operator=(const SnapshotRegistry&) = delete;

  /// Install an already-built index under `label` and make it current.
  /// Re-installing an existing label replaces that epoch.  Fails
  /// (kInvalidArgument) on a malformed label; the serving state is then
  /// unchanged.
  Result<std::shared_ptr<QueryEngine>> install(const std::string& label,
                                               snapshot::SnapshotIndex index);

  /// What load_file installed: the engine plus the label it actually ended
  /// up under (which differs from the filename stem when de-duplication
  /// kicked in).
  struct InstalledEpoch {
    std::string label;
    std::shared_ptr<QueryEngine> engine;
  };

  /// Read an ASRK1 file and install it.  Empty `label` derives one from the
  /// file name (basename minus extension); a derived label that is already
  /// resident is de-duplicated with a `-2`, `-3`, ... suffix instead of
  /// replacing the existing epoch (re-loading "rib.asrk" twice must not
  /// silently clobber the first vintage — explicit labels keep replace
  /// semantics).  Any failure — unreadable file, truncation, CRC mismatch,
  /// bad label — leaves the current generation serving and increments
  /// asrankd_reload_failures_total.
  Result<InstalledEpoch> load_file(const std::string& path,
                                   const std::string& label = "");

  /// The current (most recently installed) engine; nullptr before the first
  /// install.  Lock-free: one atomic shared_ptr load.
  [[nodiscard]] std::shared_ptr<QueryEngine> current() const noexcept;

  /// Label of the current epoch ("" before the first install).
  [[nodiscard]] std::string current_label() const;

  /// Engine for a named epoch, or nullptr if not resident.  Lock-free; also
  /// bumps the epoch's LRU clock.
  [[nodiscard]] std::shared_ptr<QueryEngine> epoch(std::string_view label) const;

  /// Resident epoch labels, current first, then most-recently-installed
  /// first.
  [[nodiscard]] std::vector<std::string> epochs() const;

  [[nodiscard]] std::size_t epoch_count() const noexcept;

  /// Successful installs beyond the initial load (what a "reload" means
  /// operationally; mirrors asrankd_reloads_total).
  [[nodiscard]] std::uint64_t reloads() const noexcept {
    return reloads_total_->value();
  }
  [[nodiscard]] std::uint64_t reload_failures() const noexcept {
    return reload_failures_total_->value();
  }

  [[nodiscard]] obs::Registry& registry() const noexcept { return *registry_; }

  /// Request-path counters the serve dispatcher bumps, resolved once here
  /// so no request takes the obs::Registry lock.
  struct RequestCounters {
    obs::Counter* epoch_queries;     ///< asrankd_epoch_queries_total
    obs::Counter* algo_selected;     ///< asrankd_algo_selected_queries_total
    obs::Counter* disagreements;     ///< asrankd_disagreements_total
    obs::Counter* cone_diffs;        ///< asrankd_cone_diffs_total
    obs::Counter* metrics_requests;  ///< asrankd_metrics_requests_total
  };
  [[nodiscard]] const RequestCounters& request_counters() const noexcept {
    return request_counters_;
  }

  /// Epoch-based-reclamation domain that owns retired generations.  Server
  /// workers register one slot per thread and pin it per request; the
  /// convenience handler wrappers pin a transient slot per call.
  [[nodiscard]] runtime::ebr::Domain& reclaim_domain() const noexcept {
    return ebr_;
  }

  // (defined below; forward-declared for ReadView)
  struct Generation;
  struct Entry;

  /// Raw-pointer view of the published generation for EBR-guarded readers.
  /// The caller MUST hold a runtime::ebr::Guard on reclaim_domain() for the
  /// whole lifetime of the view and of every engine pointer obtained from
  /// it: the guard — not a shared_ptr refcount — is what keeps a swapped-out
  /// generation alive.  This is the serve hot path; current()/epoch() above
  /// stay for callers that want owning handles.
  class ReadView {
   public:
    /// Current engine; nullptr before the first install.
    [[nodiscard]] QueryEngine* current() const noexcept {
      return gen_->entries.empty() ? nullptr : gen_->entries.front()->engine.get();
    }
    [[nodiscard]] std::string_view current_label() const noexcept {
      return gen_->entries.empty() ? std::string_view{}
                                   : std::string_view(gen_->entries.front()->label);
    }
    /// Engine for a named epoch (bumps its LRU clock), or nullptr.
    [[nodiscard]] QueryEngine* epoch(std::string_view label) const noexcept;
    /// Entry of the current epoch (for per-algorithm dispatch), or nullptr
    /// before the first install.
    [[nodiscard]] const Entry* current_entry() const noexcept {
      return gen_->entries.empty() ? nullptr : gen_->entries.front().get();
    }
    /// Entry for a named epoch (bumps its LRU clock), or nullptr.
    [[nodiscard]] const Entry* find_epoch(std::string_view label) const noexcept;
    [[nodiscard]] std::vector<std::string> epochs() const;
    [[nodiscard]] std::size_t epoch_count() const noexcept {
      return gen_->entries.size();
    }
    /// The registry the view was taken from (for RELOAD and metrics).
    [[nodiscard]] SnapshotRegistry& owner() const noexcept { return *registry_; }

   private:
    friend class SnapshotRegistry;
    ReadView(SnapshotRegistry* registry, const Generation* gen) noexcept
        : registry_(registry), gen_(gen) {}
    SnapshotRegistry* registry_;
    const Generation* gen_;
  };

  /// Takes an EBR-guarded view of the published generation (see ReadView).
  [[nodiscard]] ReadView read_view() noexcept {
    return ReadView(this, gen_raw_.load(std::memory_order_acquire));
  }

  /// Opportunistically advances the reclamation epoch and frees quiesced
  /// generations.  Cheap when nothing is pending; workers call it when idle.
  void reclaim_pass() noexcept;

  /// Labels are operator-facing identifiers that travel over the wire and
  /// into metric labels: 1..64 chars of [A-Za-z0-9._:-].
  [[nodiscard]] static bool valid_label(std::string_view label) noexcept;

  /// Label from a snapshot path: basename minus a final extension
  /// ("/data/2013-04.asrk" -> "2013-04").  Fails (kInvalidArgument) when the
  /// result is not a valid label.
  [[nodiscard]] static Result<std::string> derive_label(const std::string& path);

  struct Entry {
    std::string label;
    /// Primary-algorithm engine (== engines[0]); the default answer path.
    std::shared_ptr<QueryEngine> engine;
    /// One engine per algorithm section in the snapshot, slot order.  A
    /// single-algorithm file yields exactly {engine}.
    std::vector<std::shared_ptr<QueryEngine>> engines;
    /// Algorithm names, slot order (mirrors SnapshotIndex::algorithm_names).
    std::vector<std::string> algo_names;
    /// LRU clock: stamped from use_clock_ on every epoch(label) hit and on
    /// install, so eviction tracks query recency, not just install order.
    mutable std::atomic<std::uint64_t> last_used{0};

    Entry(std::string l, std::shared_ptr<QueryEngine> e) noexcept
        : label(std::move(l)), engine(std::move(e)) {}

    /// Engine for a named algorithm, or nullptr if this epoch lacks it.
    [[nodiscard]] QueryEngine* algo(std::string_view name) const noexcept {
      for (std::size_t i = 0; i < algo_names.size(); ++i) {
        if (algo_names[i] == name) return engines[i].get();
      }
      return nullptr;
    }
  };

  /// One immutable published state: entries[0] is the current epoch.
  struct Generation {
    std::vector<std::shared_ptr<Entry>> entries;
  };

 private:
  [[nodiscard]] std::shared_ptr<const Generation> generation() const noexcept {
    return gen_.load(std::memory_order_acquire);
  }

  /// Shared writer path.  With `dedupe`, a label already resident is
  /// suffixed `-2`, `-3`, ... under the writer lock (collision checks and
  /// publish are atomic with respect to other writers); `*final_label`
  /// receives the label actually installed.
  Result<std::shared_ptr<QueryEngine>> install_impl(const std::string& label,
                                                    snapshot::SnapshotIndex index,
                                                    bool dedupe,
                                                    std::string* final_label);

  SnapshotRegistryConfig config_;
  obs::Registry* registry_;

  std::atomic<std::shared_ptr<const Generation>> gen_;
  /// Raw mirror of gen_ for EBR-guarded readers (read_view()).  Published
  /// after gen_; the pointee is kept alive by gen_ while current and by a
  /// retired closure in ebr_ after it is replaced.
  std::atomic<const Generation*> gen_raw_;
  mutable runtime::ebr::Domain ebr_;
  mutable std::atomic<std::uint64_t> use_clock_{0};
  std::mutex reload_mutex_;  ///< serializes writers only

  obs::Counter* reloads_total_;
  obs::Counter* reload_failures_total_;
  obs::Histogram* reload_duration_;
  obs::Gauge* epochs_loaded_;
  obs::Counter* generations_retired_total_;
  obs::Counter* generations_reclaimed_total_;
  obs::Gauge* ebr_pending_;
  RequestCounters request_counters_;
};

}  // namespace asrank::serve
