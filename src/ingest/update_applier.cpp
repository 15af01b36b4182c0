#include "ingest/update_applier.h"

#include <algorithm>

namespace asrank::ingest {

namespace {

bool key_less(Asn vp_a, const Prefix& prefix_a, Asn vp_b, const Prefix& prefix_b) noexcept {
  return vp_a != vp_b ? vp_a < vp_b : prefix_a < prefix_b;
}

}  // namespace

UpdateApplier::UpdateApplier(obs::Registry& metrics)
    : announce_total_(&metrics.counter("asrank_ingest_updates_total",
                                       "Announced/withdrawn prefixes applied by ingest",
                                       {{"kind", "announce"}})),
      withdraw_total_(&metrics.counter("asrank_ingest_updates_total",
                                       "Announced/withdrawn prefixes applied by ingest",
                                       {{"kind", "withdraw"}})),
      as_set_total_(&metrics.counter("asrank_ingest_as_set_rejected_total",
                                     "Announcements rejected for carrying an AS_SET")),
      routes_gauge_(&metrics.gauge("asrank_ingest_routes",
                                   "Live (vp, prefix) rows in the ingest table")) {}

void UpdateApplier::settle() const noexcept {
  if (sorted_) return;
  sorted_ = true;
  std::stable_sort(rows_.begin(), rows_.end(), [](const Row& a, const Row& b) {
    return key_less(a.vp, a.prefix, b.vp, b.prefix);
  });
  // Of each run of equal keys keep the last row: the latest seed.
  std::size_t kept = 0;
  for (std::size_t i = 0; i < rows_.size(); ++i) {
    if (i + 1 < rows_.size() && rows_[i + 1].vp == rows_[i].vp &&
        rows_[i + 1].prefix == rows_[i].prefix) {
      continue;
    }
    if (kept != i) rows_[kept] = std::move(rows_[i]);
    ++kept;
  }
  rows_.erase(rows_.begin() + static_cast<std::ptrdiff_t>(kept), rows_.end());
  live_ = rows_.size();
  routes_gauge_->set(static_cast<std::int64_t>(live_));
}

UpdateApplier::Row* UpdateApplier::find(const Key& key) {
  const auto it = std::lower_bound(rows_.begin(), rows_.end(), key,
                                   [](const Row& row, const Key& k) {
                                     return key_less(row.vp, row.prefix, k.first, k.second);
                                   });
  return it != rows_.end() && it->vp == key.first && it->prefix == key.second ? &*it
                                                                              : nullptr;
}

void UpdateApplier::upsert(const Key& key, AsPath path) {
  if (Row* row = find(key)) {
    if (row->withdrawn) {
      row->withdrawn = false;
      --withdrawn_rows_;
      ++live_;
    }
    row->path = std::move(path);
  } else if (fresh_.insert_or_assign(key, std::move(path)).second) {
    ++live_;
  }
}

bool UpdateApplier::erase(const Key& key) {
  if (Row* row = find(key)) {
    if (row->withdrawn) return false;
    row->withdrawn = true;
    ++withdrawn_rows_;
  } else if (fresh_.erase(key) == 0) {
    return false;
  }
  --live_;
  return true;
}

void UpdateApplier::seed(Asn vp, const Prefix& prefix, AsPath path) {
  if (sorted_) {
    upsert({vp, prefix}, std::move(path));
    routes_gauge_->set(static_cast<std::int64_t>(live_));
  } else {
    rows_.push_back(Row{vp, false, prefix, std::move(path)});
  }
  ++stats_.announced;
  announce_total_->inc();
}

void UpdateApplier::apply(const mrt::UpdateMessage& update) {
  settle();
  ++stats_.messages;
  for (const Prefix& prefix : update.withdrawn) {
    if (!erase({update.peer_as, prefix})) ++stats_.noop_withdrawn;
    ++stats_.withdrawn;
    withdraw_total_->inc();
  }
  if (!update.announced.empty()) {
    if (update.attrs.has_as_set) {
      stats_.as_set_rejected += update.announced.size();
      as_set_total_->inc(update.announced.size());
    } else if (update.attrs.as_path.hops().empty()) {
      stats_.empty_path_rejected += update.announced.size();
    } else {
      for (const Prefix& prefix : update.announced) {
        upsert({update.peer_as, prefix}, update.attrs.as_path);
        ++stats_.announced;
        announce_total_->inc();
      }
    }
  }
  routes_gauge_->set(static_cast<std::int64_t>(live_));
}

paths::PathCorpus UpdateApplier::corpus() const {
  settle();
  if (withdrawn_rows_ > 0) {
    std::erase_if(rows_, [](const Row& row) { return row.withdrawn; });
    withdrawn_rows_ = 0;
  }
  if (!fresh_.empty()) {
    // Merge the new keys in from the back, so each held row moves once.
    std::size_t read = rows_.size();
    rows_.resize(read + fresh_.size());
    std::size_t write = rows_.size();
    for (auto it = fresh_.rbegin(); it != fresh_.rend(); ++it) {
      const auto& [vp, prefix] = it->first;
      while (read > 0 && key_less(vp, prefix, rows_[read - 1].vp, rows_[read - 1].prefix)) {
        rows_[--write] = std::move(rows_[--read]);
      }
      rows_[--write] = Row{vp, false, prefix, std::move(it->second)};
    }
    fresh_.clear();
  }
  return paths::PathCorpus::from_records(rows_);
}

}  // namespace asrank::ingest
