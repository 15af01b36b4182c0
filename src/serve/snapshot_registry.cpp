#include "serve/snapshot_registry.h"

#include <algorithm>
#include <chrono>

#include "algo/registry.h"
#include "obs/log.h"

namespace asrank::serve {

namespace {

[[nodiscard]] bool label_char(char c) noexcept {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
         (c >= '0' && c <= '9') || c == '.' || c == '_' || c == ':' || c == '-';
}

}  // namespace

SnapshotRegistry::SnapshotRegistry(SnapshotRegistryConfig config,
                                   obs::Registry* registry)
    : config_(config),
      registry_(registry),
      gen_(std::make_shared<const Generation>()),
      reloads_total_(&registry->counter(
          "asrankd_reloads_total",
          "Successful snapshot (re)loads beyond the initial install")),
      reload_failures_total_(&registry->counter(
          "asrankd_reload_failures_total",
          "Snapshot loads rejected (unreadable, corrupt, bad label)")),
      reload_duration_(&registry->histogram(
          "asrankd_reload_duration_micros",
          "Wall time of snapshot load + install")),
      epochs_loaded_(&registry->gauge("asrankd_epochs_loaded",
                                      "Resident snapshot epochs")),
      generations_retired_total_(&registry->counter(
          "asrankd_snapshot_generations_retired_total",
          "Snapshot generations handed to epoch-based reclamation")),
      generations_reclaimed_total_(&registry->counter(
          "asrankd_snapshot_generations_reclaimed_total",
          "Retired snapshot generations freed after reader quiesce")),
      ebr_pending_(&registry->gauge(
          "asrankd_ebr_pending_reclaims",
          "Retired snapshot generations awaiting reader quiesce")),
      request_counters_{
          &registry->counter("asrankd_epoch_queries_total",
                             "Queries naming an explicit epoch"),
          &registry->counter("asrankd_algo_selected_queries_total",
                             "Queries naming an explicit algorithm"),
          &registry->counter("asrankd_disagreements_total", "DISAGREE queries served"),
          &registry->counter("asrankd_cone_diffs_total", "CONE_DIFF queries served"),
          &registry->counter("asrankd_metrics_requests_total",
                             "METRICS opcode / `metrics` text command serves")} {
  config_.retention = std::max<std::size_t>(1, config_.retention);
  gen_raw_.store(generation().get(), std::memory_order_release);
}

QueryEngine* SnapshotRegistry::ReadView::epoch(std::string_view label) const noexcept {
  const auto* entry = find_epoch(label);
  return entry == nullptr ? nullptr : entry->engine.get();
}

const SnapshotRegistry::Entry* SnapshotRegistry::ReadView::find_epoch(
    std::string_view label) const noexcept {
  for (const auto& entry : gen_->entries) {
    if (entry->label == label) {
      entry->last_used.store(
          registry_->use_clock_.fetch_add(1, std::memory_order_relaxed) + 1,
          std::memory_order_relaxed);
      return entry.get();
    }
  }
  return nullptr;
}

std::vector<std::string> SnapshotRegistry::ReadView::epochs() const {
  std::vector<std::string> out;
  out.reserve(gen_->entries.size());
  for (const auto& entry : gen_->entries) out.push_back(entry->label);
  return out;
}

void SnapshotRegistry::reclaim_pass() noexcept {
  if (ebr_.pending() == 0) return;
  const std::size_t freed = ebr_.try_advance();
  if (freed != 0) generations_reclaimed_total_->inc(freed);
  ebr_pending_->set(static_cast<std::int64_t>(ebr_.pending()));
}

bool SnapshotRegistry::valid_label(std::string_view label) noexcept {
  if (label.empty() || label.size() > 64) return false;
  return std::all_of(label.begin(), label.end(), label_char);
}

Result<std::string> SnapshotRegistry::derive_label(const std::string& path) {
  const auto slash = path.find_last_of('/');
  std::string stem = slash == std::string::npos ? path : path.substr(slash + 1);
  const auto dot = stem.find_last_of('.');
  if (dot != std::string::npos && dot > 0) stem.resize(dot);
  if (!valid_label(stem)) {
    return make_error(ErrorCode::kInvalidArgument,
                      "cannot derive epoch label from path '" + path + "'");
  }
  return stem;
}

std::shared_ptr<QueryEngine> SnapshotRegistry::current() const noexcept {
  const auto gen = generation();
  if (gen->entries.empty()) return nullptr;
  return gen->entries.front()->engine;
}

std::string SnapshotRegistry::current_label() const {
  const auto gen = generation();
  if (gen->entries.empty()) return {};
  return gen->entries.front()->label;
}

std::shared_ptr<QueryEngine> SnapshotRegistry::epoch(std::string_view label) const {
  const auto gen = generation();
  for (const auto& entry : gen->entries) {
    if (entry->label == label) {
      entry->last_used.store(use_clock_.fetch_add(1, std::memory_order_relaxed) + 1,
                             std::memory_order_relaxed);
      return entry->engine;
    }
  }
  return nullptr;
}

std::vector<std::string> SnapshotRegistry::epochs() const {
  const auto gen = generation();
  std::vector<std::string> out;
  out.reserve(gen->entries.size());
  for (const auto& entry : gen->entries) out.push_back(entry->label);
  return out;
}

std::size_t SnapshotRegistry::epoch_count() const noexcept {
  return generation()->entries.size();
}

Result<std::shared_ptr<QueryEngine>> SnapshotRegistry::install(
    const std::string& label, snapshot::SnapshotIndex index) {
  return install_impl(label, std::move(index), /*dedupe=*/false, nullptr);
}

Result<std::shared_ptr<QueryEngine>> SnapshotRegistry::install_impl(
    const std::string& label, snapshot::SnapshotIndex index, bool dedupe,
    std::string* final_label) {
  if (!valid_label(label)) {
    reload_failures_total_->inc();
    return make_error(ErrorCode::kInvalidArgument,
                      "invalid epoch label '" + label +
                          "' (want 1-64 chars of [A-Za-z0-9._:-])");
  }

  // An epoch label that is also an algorithm name would make the text rail's
  // `@<selector>` prefix ambiguous: the first @ token resolves as an epoch
  // label first and only falls back to an algorithm name (docs/SERVING.md),
  // so installing such an epoch silently shadows the algorithm.  Reject the
  // collision at install/RELOAD time instead.
  const auto collision = [&]() -> std::string {
    if (algo::resolve(label).ok()) return "a registered algorithm name";
    for (const auto& name : index.algorithm_names()) {
      if (label == name) return "an algorithm section of the snapshot";
    }
    for (const auto& entry : generation()->entries) {
      for (const auto& name : entry->algo_names) {
        if (label == name) {
          return "an algorithm section of resident epoch '" + entry->label + "'";
        }
      }
    }
    return {};
  }();
  if (!collision.empty()) {
    reload_failures_total_->inc();
    return make_error(ErrorCode::kInvalidArgument,
                      "ambiguous epoch label '" + label + "': collides with " +
                          collision +
                          " (@<selector> tries epoch labels before algorithms)");
  }

  auto shared_index =
      std::make_shared<const snapshot::SnapshotIndex>(std::move(index));
  auto engine =
      std::make_shared<QueryEngine>(shared_index, registry_, config_.cone_bitset);
  const std::size_t as_count = engine->index().as_count();
  // One engine per algorithm section; slot 0 reuses the primary engine so
  // @algo-qualified queries for the primary share its cone bitset.
  std::vector<std::shared_ptr<QueryEngine>> engines;
  engines.push_back(engine);
  for (std::size_t slot = 1; slot < shared_index->algorithm_count(); ++slot) {
    engines.push_back(std::make_shared<QueryEngine>(shared_index, registry_,
                                                    config_.cone_bitset, slot));
  }

  std::lock_guard<std::mutex> lock(reload_mutex_);
  const auto old_gen = generation();
  const bool first_install = old_gen->entries.empty();

  std::string effective = label;
  if (dedupe) {
    const auto taken = [&](const std::string& candidate) {
      return std::any_of(old_gen->entries.begin(), old_gen->entries.end(),
                         [&](const auto& e) { return e->label == candidate; });
    };
    for (std::uint64_t n = 2; taken(effective); ++n) {
      const std::string suffix = "-" + std::to_string(n);
      std::string base = label;
      if (base.size() + suffix.size() > 64) base.resize(64 - suffix.size());
      effective = base + suffix;
    }
  }
  if (final_label != nullptr) *final_label = effective;

  auto entry = std::make_shared<Entry>(effective, engine);
  entry->engines = std::move(engines);
  const auto names = shared_index->algorithm_names();
  entry->algo_names.assign(names.begin(), names.end());
  entry->last_used.store(use_clock_.fetch_add(1, std::memory_order_relaxed) + 1,
                         std::memory_order_relaxed);
  const std::size_t algo_count = entry->algo_names.size();

  // Copy-on-write: new entry first, prior entries (minus any same-label one)
  // after, then evict the least-recently-used tail past the retention bound.
  auto next = std::make_shared<Generation>();
  next->entries.push_back(std::move(entry));
  for (const auto& old : old_gen->entries) {
    if (old->label != effective) next->entries.push_back(old);
  }
  std::vector<std::string> evicted;
  while (next->entries.size() > config_.retention) {
    auto victim = next->entries.begin() + 1;  // never evict the current epoch
    for (auto it = victim + 1; it != next->entries.end(); ++it) {
      if ((*it)->last_used.load(std::memory_order_relaxed) <
          (*victim)->last_used.load(std::memory_order_relaxed)) {
        victim = it;
      }
    }
    evicted.push_back((*victim)->label);
    next->entries.erase(victim);
  }

  std::shared_ptr<const Generation> published(std::move(next));
  const Generation* published_raw = published.get();
  gen_.store(std::move(published), std::memory_order_release);
  gen_raw_.store(published_raw, std::memory_order_release);
  // The replaced generation may still be visible to EBR-guarded readers that
  // loaded gen_raw_ before the store above; park its ownership in the
  // reclamation domain instead of dropping it here.
  ebr_.retire([keep = old_gen]() mutable { keep.reset(); });
  generations_retired_total_->inc();
  ebr_pending_->set(static_cast<std::int64_t>(ebr_.pending()));
  reclaim_pass();

  if (!first_install) reloads_total_->inc();
  epochs_loaded_->set(static_cast<std::int64_t>(generation()->entries.size()));
  registry_->gauge("asrankd_epoch_ases", "ASes in a resident epoch",
                   {{"epoch", effective}})
      .set(static_cast<std::int64_t>(as_count));
  for (const auto& gone : evicted) {
    registry_->gauge("asrankd_epoch_ases", "ASes in a resident epoch",
                     {{"epoch", gone}})
        .set(0);
  }

  obs::log_info("snapshot epoch installed",
                {{"epoch", effective},
                 {"ases", as_count},
                 {"algorithms", algo_count},
                 {"resident", generation()->entries.size()},
                 {"evicted", evicted.size()}});
  return engine;
}

Result<SnapshotRegistry::InstalledEpoch> SnapshotRegistry::load_file(
    const std::string& path, const std::string& label) {
  const auto start = std::chrono::steady_clock::now();

  std::string requested = label;
  const bool derived_label = requested.empty();
  if (derived_label) {
    auto derived = derive_label(path);
    if (!derived.ok()) {
      reload_failures_total_->inc();
      obs::log_warn("snapshot reload rejected",
                    {{"path", path}, {"error", derived.error().context}});
      return derived.take_error();
    }
    requested = std::move(derived).value();
  }

  auto index = config_.mmap_load ? snapshot::try_map_snapshot_file(path)
                                 : snapshot::try_read_snapshot_file(path);
  if (!index.ok()) {
    reload_failures_total_->inc();
    obs::log_warn("snapshot reload rejected",
                  {{"path", path},
                   {"epoch", requested},
                   {"error", index.error().context}});
    return index.take_error();
  }

  // Derived (filename-stem) labels de-duplicate instead of replacing: the
  // operator never typed the colliding name.  Explicit labels replace.
  std::string installed_as;
  auto installed = install_impl(requested, std::move(index).value(), derived_label,
                                &installed_as);
  if (!installed.ok()) return installed.take_error();
  const auto micros = std::chrono::duration_cast<std::chrono::microseconds>(
                          std::chrono::steady_clock::now() - start)
                          .count();
  reload_duration_->observe(static_cast<std::uint64_t>(micros));
  return InstalledEpoch{std::move(installed_as), std::move(installed).value()};
}

}  // namespace asrank::serve
