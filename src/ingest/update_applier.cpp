#include "ingest/update_applier.h"

namespace asrank::ingest {

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

void UpdateApplier::seed(Asn vp, const Prefix& prefix, AsPath path) {
  routes_[{vp, prefix}] = std::move(path);
  ++stats_.announced;
  announce_total_->inc();
  routes_gauge_->set(static_cast<std::int64_t>(routes_.size()));
}

void UpdateApplier::apply(const mrt::UpdateMessage& update) {
  ++stats_.messages;
  for (const Prefix& prefix : update.withdrawn) {
    if (routes_.erase({update.peer_as, prefix}) == 0) ++stats_.noop_withdrawn;
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
        routes_[{update.peer_as, prefix}] = update.attrs.as_path;
        ++stats_.announced;
        announce_total_->inc();
      }
    }
  }
  routes_gauge_->set(static_cast<std::int64_t>(routes_.size()));
}

paths::PathCorpus UpdateApplier::corpus() const {
  paths::PathCorpus out;
  out.reserve(routes_.size());
  for (const auto& [key, path] : routes_) out.add(key.first, key.second, path);
  return out;
}

}  // namespace asrank::ingest
