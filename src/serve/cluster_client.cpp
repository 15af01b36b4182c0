#include "serve/cluster_client.h"

#include <algorithm>
#include <atomic>
#include <cctype>
#include <chrono>
#include <numeric>
#include <thread>
#include <tuple>
#include <utility>

#include "util/strings.h"

namespace asrank::serve {

namespace {

/// Failure classes that indict the endpoint (trip the breaker, fail over)
/// rather than the request.  A server-typed error means the endpoint is
/// alive and every replica would answer identically.
[[nodiscard]] bool is_connection_error(ErrorCode code) noexcept {
  return code == ErrorCode::kRefused || code == ErrorCode::kTimeout ||
         code == ErrorCode::kIo || code == ErrorCode::kShedding;
}

/// Per-endpoint label lists (nullopt = endpoint not heard from).
using LabelLists = std::vector<std::optional<std::vector<std::string>>>;

/// The labels of the first present list that every present list carries,
/// in that list's order; nullopt when no list is present.
std::optional<std::vector<std::string>> common_labels(const LabelLists& lists) {
  const auto first = std::find_if(lists.begin(), lists.end(),
                                  [](const auto& labels) { return labels.has_value(); });
  if (first == lists.end()) return std::nullopt;
  std::vector<std::string> out;
  for (const auto& label : **first) {
    const bool common = std::all_of(lists.begin(), lists.end(), [&](const auto& labels) {
      return !labels || std::find(labels->begin(), labels->end(), label) != labels->end();
    });
    if (common) out.push_back(label);
  }
  return out;
}

}  // namespace

// ------------------------------------------------------------- lifecycle --

ClusterClient::ClusterClient(ClusterMap map, ClusterClientConfig config)
    : map_(std::move(map)), config_(std::move(config)) {
  breaker_rng_.reseed(config_.backoff_seed);
  const auto& endpoints = map_.endpoints();
  transports_.reserve(endpoints.size());
  for (const auto& endpoint : endpoints) {
    transports_.emplace_back(endpoint.host, endpoint.port, config_.transport);
    transport_mutex_.push_back(std::make_unique<std::mutex>());
  }
  health_.resize(endpoints.size());

  metrics_ = config_.metrics != nullptr ? config_.metrics : &obs::Registry::global();
  fanout_total_ = &metrics_->counter("asrank_cluster_fanout_requests_total",
                                     "Per-endpoint sub-requests dispatched");
  failovers_total_ = &metrics_->counter(
      "asrank_cluster_failovers_total",
      "Sub-requests retried on a later replica after a connection-class failure");
  epoch_resolves_total_ = &metrics_->counter("asrank_cluster_epoch_resolves_total",
                                             "Cluster-wide epoch resolutions");
  epoch_skew_total_ = &metrics_->counter(
      "asrank_cluster_epoch_skew_total",
      "Mixed-vintage detections (no common label, or a pinned label vanishing)");
  unavailable_total_ = &metrics_->counter(
      "asrank_cluster_unavailable_total",
      "Queries or sub-queries failed typed kUnavailable");
  latency_ = &metrics_->histogram("asrank_cluster_request_latency_micros",
                                  "Cluster query wall time");
  for (std::size_t i = 0; i < endpoints.size(); ++i) {
    metrics_->gauge("asrank_cluster_endpoint_state",
                    "Breaker state: 0 closed, 1 half-open, 2 open",
                    {{"endpoint", endpoints[i].label()}})
        .set(0);
  }
}

// --------------------------------------------------------------- breaker --

std::uint64_t ClusterClient::now_ms() const {
  if (config_.now_ms) return config_.now_ms();
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

void ClusterClient::set_state_locked(std::size_t index, HealthState next) {
  auto& health = health_[index];
  if (health.state == next) return;
  health.state = next;
  metrics_
      ->gauge("asrank_cluster_endpoint_state",
              "Breaker state: 0 closed, 1 half-open, 2 open",
              {{"endpoint", map_.endpoints()[index].label()}})
      .set(static_cast<std::int64_t>(next));
}

bool ClusterClient::admit(std::size_t index) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto& health = health_[index];
  switch (health.state) {
    case HealthState::kClosed:
    case HealthState::kHalfOpen:
      return true;
    case HealthState::kOpen:
      if (now_ms() >= health.open_until_ms) {
        set_state_locked(index, HealthState::kHalfOpen);
        return true;
      }
      return false;
  }
  return false;
}

void ClusterClient::on_success(std::size_t index) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto& health = health_[index];
  health.consecutive_failures = 0;
  health.open_spins = 0;
  set_state_locked(index, HealthState::kClosed);
}

void ClusterClient::on_failure(std::size_t index, ErrorCode code) {
  if (!is_connection_error(code)) {
    // The endpoint answered; server-typed errors are the caller's problem.
    on_success(index);
    return;
  }
  std::lock_guard<std::mutex> lock(mutex_);
  auto& health = health_[index];
  const bool half_open_probe_failed = health.state == HealthState::kHalfOpen;
  ++health.consecutive_failures;
  if (!half_open_probe_failed &&
      health.consecutive_failures < config_.failure_threshold) {
    return;
  }
  // Trip (or re-trip) the breaker; cool-down grows with consecutive opens
  // using the same capped equal-jitter schedule transports retry with.
  const int delay = backoff_delay_ms(health.open_spins, config_.open_base_ms,
                                     config_.open_cap_ms, breaker_rng_);
  health.open_spins = std::min(health.open_spins + 1, 20);
  health.open_until_ms = now_ms() + static_cast<std::uint64_t>(delay);
  health.consecutive_failures = 0;
  set_state_locked(index, HealthState::kOpen);
  metrics_
      ->counter("asrank_cluster_endpoint_opens_total",
                "Breaker open transitions",
                {{"endpoint", map_.endpoints()[index].label()}})
      .inc();
}

HealthState ClusterClient::endpoint_state(std::size_t index) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return health_[index].state;
}

// -------------------------------------------------------------- exchange --

Result<std::vector<std::uint8_t>> ClusterClient::exchange_on(
    std::size_t index, const std::vector<std::uint8_t>& frame) {
  if (!admit(index)) {
    return make_error(ErrorCode::kUnavailable,
                      "endpoint " + map_.endpoints()[index].label() +
                          ": circuit breaker open");
  }
  fanout_total_->inc();
  Result<std::vector<std::uint8_t>> result = [&] {
    std::lock_guard<std::mutex> lock(*transport_mutex_[index]);
    return transports_[index].try_exchange(frame);
  }();
  if (result.ok()) {
    on_success(index);
  } else {
    on_failure(index, result.error().code);
  }
  return result;
}

Result<std::vector<std::uint8_t>> ClusterClient::over_endpoints(
    std::span<const std::size_t> candidates,
    const std::vector<std::uint8_t>& frame, std::string_view what) {
  std::optional<Error> last;
  bool first_attempt = true;
  for (const std::size_t index : candidates) {
    if (!first_attempt) failovers_total_->inc();
    first_attempt = false;
    auto result = exchange_on(index, frame);
    if (result.ok()) return result;
    const auto code = result.error().code;
    if (!is_connection_error(code) && code != ErrorCode::kUnavailable) {
      return result;  // the endpoint answered; fail-over cannot help
    }
    last = result.take_error();
  }
  unavailable_total_->inc();
  std::string context = "no healthy replica for " + std::string(what);
  if (last) context += " (last: " + last->message() + ")";
  return make_error(ErrorCode::kUnavailable, std::move(context));
}

Result<std::vector<std::uint8_t>> ClusterClient::routed(
    Asn key, const std::vector<std::uint8_t>& frame) {
  const auto slot = map_.slot_of(key);
  return over_endpoints(map_.replicas(slot), frame,
                        "slot " + std::to_string(slot));
}

Result<std::vector<std::uint8_t>> ClusterClient::single(
    const std::vector<std::uint8_t>& frame) {
  std::vector<std::size_t> all(map_.endpoints().size());
  std::iota(all.begin(), all.end(), 0);
  return over_endpoints(all, frame, "cluster");
}

Result<std::vector<std::size_t>> ClusterClient::cover_endpoints() {
  std::vector<std::size_t> cover;
  std::vector<bool> in_cover(map_.endpoints().size(), false);
  for (std::size_t slot = 0; slot < map_.slot_count(); ++slot) {
    bool covered = false;
    for (const std::size_t index : map_.replicas(slot)) {
      if (in_cover[index]) {
        covered = true;
        break;
      }
    }
    if (covered) continue;
    for (const std::size_t index : map_.replicas(slot)) {
      if (admit(index)) {
        in_cover[index] = true;
        cover.push_back(index);
        covered = true;
        break;
      }
    }
    if (!covered) {
      unavailable_total_->inc();
      return make_error(ErrorCode::kUnavailable,
                        "no healthy replica covers slot " + std::to_string(slot));
    }
  }
  std::sort(cover.begin(), cover.end());
  return cover;
}

void ClusterClient::fan_out(
    const std::vector<std::size_t>& targets,
    const std::function<void(std::size_t pos, std::size_t endpoint)>& job) {
  const std::size_t bound = config_.max_fanout == 0 ? 1 : config_.max_fanout;
  const std::size_t workers = std::min(bound, targets.size());
  if (workers <= 1) {
    for (std::size_t pos = 0; pos < targets.size(); ++pos) job(pos, targets[pos]);
    return;
  }
  std::atomic<std::size_t> next{0};
  std::vector<std::thread> pool;
  pool.reserve(workers);
  for (std::size_t w = 0; w < workers; ++w) {
    pool.emplace_back([&] {
      while (true) {
        const std::size_t pos = next.fetch_add(1, std::memory_order_relaxed);
        if (pos >= targets.size()) break;
        job(pos, targets[pos]);
      }
    });
  }
  for (auto& worker : pool) worker.join();
}

// ----------------------------------------------------- epoch consistency --

std::vector<std::optional<std::vector<std::string>>>
ClusterClient::scatter_epochs() {
  std::vector<std::size_t> all(map_.endpoints().size());
  std::iota(all.begin(), all.end(), 0);
  LabelLists out(all.size());
  const auto query = wire::epochs();
  fan_out(all, [&](std::size_t pos, std::size_t index) {
    auto body = exchange_on(index, query.payload);
    if (!body.ok()) return;
    auto labels = query.decode(body.value());
    if (labels.ok()) out[pos] = std::move(labels).value();
  });
  return out;
}

Result<std::string> ClusterClient::resolve_epoch() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (resolved_epoch_) return *resolved_epoch_;
  }
  epoch_resolves_total_->inc();
  const auto per_endpoint = scatter_epochs();
  const auto common = common_labels(per_endpoint);
  if (!common) {
    unavailable_total_->inc();
    return make_error(ErrorCode::kUnavailable,
                      "no cluster endpoint reachable to resolve an epoch");
  }
  // The cluster-wide epoch is the first label (newest; EPOCHS lists current
  // first) resident on every reachable endpoint.
  if (!common->empty()) {
    std::lock_guard<std::mutex> lock(mutex_);
    resolved_epoch_ = common->front();
    return common->front();
  }
  epoch_skew_total_->inc();
  std::string detail;
  for (std::size_t i = 0; i < per_endpoint.size(); ++i) {
    if (!per_endpoint[i]) continue;
    if (!detail.empty()) detail += "; ";
    detail += map_.endpoints()[i].label() + "=[" + util::join(*per_endpoint[i], ",") + "]";
  }
  return make_error(ErrorCode::kEpochSkew,
                    "no epoch resident on every reachable endpoint (" + detail + ")");
}

void ClusterClient::invalidate_epoch() {
  std::lock_guard<std::mutex> lock(mutex_);
  resolved_epoch_.reset();
}

Result<std::string> ClusterClient::try_resolved_epoch() { return resolve_epoch(); }

template <typename Fn>
auto ClusterClient::counted(Op op, Fn&& body) -> decltype(body()) {
  const auto start = std::chrono::steady_clock::now();
  auto result = body();
  latency_->observe(static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - start)
          .count()));
  const std::string name(wire::op_name(op));
  metrics_
      ->counter("asrank_cluster_requests_total", "Cluster queries dispatched",
                {{"op", name}})
      .inc();
  if (!result.ok()) {
    metrics_
        ->counter("asrank_cluster_errors_total", "Cluster queries failed",
                  {{"op", name}, {"code", std::string(to_string(result.error().code))}})
        .inc();
  }
  return result;
}

template <typename Fn>
auto ClusterClient::pinned(const QueryScope& scope, Op op, Fn&& body)
    -> decltype(body(scope)) {
  using R = decltype(body(scope));
  return counted(op, [&]() -> R {
    // An explicitly scoped epoch bypasses the consistency machinery: the
    // caller pinned a vintage, so kUnknownEpoch is their answer, not skew.
    if (!scope.epoch.empty()) return body(scope);

    auto resolved = resolve_epoch();
    if (!resolved.ok()) return resolved.take_error();
    auto first = body(scope.with_epoch(resolved.value()));
    if (first.ok() || first.error().code != ErrorCode::kUnknownEpoch) return first;
    // A replica no longer carries the pinned label: the skew signal.  One
    // bounded re-resolve, then fail typed.
    epoch_skew_total_->inc();
    invalidate_epoch();
    auto resolved_again = resolve_epoch();
    if (!resolved_again.ok()) return resolved_again.take_error();
    auto second = body(scope.with_epoch(resolved_again.value()));
    if (second.ok() || second.error().code != ErrorCode::kUnknownEpoch) return second;
    epoch_skew_total_->inc();
    return make_error(ErrorCode::kEpochSkew,
                      "epoch '" + resolved_again.value() +
                          "' not uniformly resident after re-resolve: " +
                          second.error().context);
  });
}

template <typename T>
Result<T> ClusterClient::fetch(const wire::Query<T>& query, const QueryScope& scope,
                               std::optional<Asn> route) {
  const auto frame = wire::frame(query, scope);
  ASRANK_TRY(body, route ? routed(*route, frame) : single(frame));
  return query.decode(body);
}

template <typename T>
Result<T> ClusterClient::ask(const wire::Query<T>& query, const QueryScope& scope,
                             std::optional<Asn> route) {
  return pinned(scope, query.op,
                [&](const QueryScope& s) { return fetch(query, s, route); });
}

template <typename T>
Result<std::vector<T>> ClusterClient::scatter_cover(const wire::Query<T>& query,
                                                    const QueryScope& scope) {
  ASRANK_TRY(cover, cover_endpoints());
  const auto frame = wire::frame(query, scope);
  std::vector<std::optional<Result<T>>> answers(cover.size());
  fan_out(cover, [&](std::size_t pos, std::size_t index) {
    auto body = exchange_on(index, frame);
    answers[pos] = body.ok() ? query.decode(body.value()) : Result<T>(body.take_error());
  });
  std::vector<T> parts;
  for (auto& answer : answers) {
    if (answer->ok()) {
      parts.push_back(std::move(*answer).value());
      continue;
    }
    if (!is_connection_error(answer->error().code)) return answer->take_error();
    unavailable_total_->inc();
    std::string op(wire::op_name(query.op));
    for (char& c : op) c = static_cast<char>(std::toupper(static_cast<unsigned char>(c)));
    return make_error(ErrorCode::kUnavailable,
                      op + " scatter lost a cover endpoint: " + answer->error().message());
  }
  return parts;
}

// --------------------------------------------------------- query surface --

Result<std::optional<RelView>> ClusterClient::try_relationship(Asn a, Asn b,
                                                               const QueryScope& scope) {
  return ask(wire::relationship(a, b), scope, a);
}

Result<std::optional<std::uint32_t>> ClusterClient::try_rank(Asn as,
                                                             const QueryScope& scope) {
  return ask(wire::rank(as), scope, as);
}

Result<std::uint64_t> ClusterClient::try_cone_size(Asn as, const QueryScope& scope) {
  return ask(wire::cone_size(as), scope, as);
}

Result<std::vector<Asn>> ClusterClient::try_cone(Asn as, const QueryScope& scope) {
  return ask(wire::cone(as), scope, as);
}

Result<bool> ClusterClient::try_in_cone(Asn as, Asn member, const QueryScope& scope) {
  return ask(wire::in_cone(as, member), scope, as);
}

Result<std::vector<Asn>> ClusterClient::try_providers(Asn as, const QueryScope& scope) {
  return ask(wire::providers(as), scope, as);
}

Result<std::vector<Asn>> ClusterClient::try_customers(Asn as, const QueryScope& scope) {
  return ask(wire::customers(as), scope, as);
}

Result<std::vector<Asn>> ClusterClient::try_peers(Asn as, const QueryScope& scope) {
  return ask(wire::peers(as), scope, as);
}

Result<std::vector<Asn>> ClusterClient::try_path_to_clique(Asn as,
                                                           const QueryScope& scope) {
  return ask(wire::path_to_clique(as), scope, as);
}

Result<std::vector<snapshot::TopEntry>> ClusterClient::try_top(std::uint32_t n,
                                                               const QueryScope& scope) {
  const auto query = wire::top(n);
  return pinned(
      scope, query.op,
      [&](const QueryScope& s) -> Result<std::vector<snapshot::TopEntry>> {
        ASRANK_TRY(parts, scatter_cover(query, s));
        // K-way merge by global rank; replicas of the same slot return
        // identical rows, so exact duplicates collapse.
        std::vector<snapshot::TopEntry> merged;
        for (auto& part : parts) {
          merged.insert(merged.end(), part.begin(), part.end());
        }
        const auto key = [](const snapshot::TopEntry& e) {
          return std::tuple(e.rank, e.as.value(), e.cone_size, e.transit_degree);
        };
        std::sort(merged.begin(), merged.end(),
                  [&](const auto& x, const auto& y) { return key(x) < key(y); });
        merged.erase(std::unique(merged.begin(), merged.end(),
                                 [&](const auto& x, const auto& y) {
                                   return key(x) == key(y);
                                 }),
                     merged.end());
        if (merged.size() > static_cast<std::size_t>(n)) merged.resize(n);
        return merged;
      });
}

Result<std::vector<Asn>> ClusterClient::try_cone_intersection(Asn a, Asn b,
                                                              const QueryScope& scope) {
  // Same shard: the server computes the intersection.
  if (map_.slot_of(a) == map_.slot_of(b)) return ask(wire::cone_intersection(a, b), scope, a);
  return pinned(
      scope, Op::kConeIntersect,
      [&](const QueryScope& s) -> Result<std::vector<Asn>> {
        // Cross-shard: fetch both cones from their own shards concurrently
        // (both pinned to the same epoch by `s`) and intersect client-side.
        const Asn operands[2] = {a, b};
        std::optional<Result<std::vector<Asn>>> cones[2];
        fan_out({0, 1}, [&](std::size_t pos, std::size_t which) {
          cones[pos] = fetch(wire::cone(operands[which]), s, operands[which]);
        });
        for (auto& cone : cones) {
          if (!cone->ok()) return cone->take_error();
        }
        // Cones arrive ascending (wire contract); intersect in order so the
        // answer is byte-identical to the server-side CONE_INTERSECT.
        const auto& first = cones[0]->value();
        const auto& second = cones[1]->value();
        std::vector<Asn> out;
        std::set_intersection(first.begin(), first.end(), second.begin(), second.end(),
                              std::back_inserter(out));
        return out;
      });
}

Result<std::vector<Asn>> ClusterClient::try_clique(const QueryScope& scope) {
  return ask(wire::clique(), scope, std::nullopt);
}

Result<std::string> ClusterClient::try_stats_text(const QueryScope& scope) {
  return ask(wire::stats(), scope, std::nullopt);
}

Result<std::vector<std::string>> ClusterClient::try_epochs() {
  // Labels every reachable endpoint carries, in the first reachable
  // endpoint's order — the cluster can only answer from common vintages.
  return counted(wire::epochs().op, [&]() -> Result<std::vector<std::string>> {
    auto common = common_labels(scatter_epochs());
    if (!common) {
      unavailable_total_->inc();
      return make_error(ErrorCode::kUnavailable, "no cluster endpoint reachable");
    }
    return *std::move(common);
  });
}

Result<std::vector<std::string>> ClusterClient::try_algos(const QueryScope& scope) {
  const auto query = wire::algos();
  return pinned(scope, query.op,
                [&](const QueryScope& s) -> Result<std::vector<std::string>> {
                  ASRANK_TRY(parts, scatter_cover(query, s));
                  LabelLists lists(std::make_move_iterator(parts.begin()),
                                   std::make_move_iterator(parts.end()));
                  return common_labels(lists).value_or(std::vector<std::string>{});
                });
}

Result<DisagreeReport> ClusterClient::try_disagree(std::string_view algo_a,
                                                   std::string_view algo_b,
                                                   std::uint32_t limit,
                                                   const QueryScope& scope) {
  return ask(wire::disagree(algo_a, algo_b, limit), scope, std::nullopt);
}

Result<ConeDiff> ClusterClient::try_cone_diff(Asn as, std::string_view epoch_a,
                                              std::string_view epoch_b) {
  // Both epochs are explicit, so no pinning; route by the subject AS.
  const auto query = wire::cone_diff(as, epoch_a, epoch_b);
  return counted(query.op, [&] { return fetch(query, {}, as); });
}

Result<void> ClusterClient::try_ping() {
  const auto query = wire::ping();
  return counted(query.op, [&] { return fetch(query, {}, std::nullopt); });
}

// ----------------------------------------------------------------- status --

std::vector<EndpointStatus> ClusterClient::probe_endpoints() {
  std::vector<std::size_t> all(map_.endpoints().size());
  std::iota(all.begin(), all.end(), 0);
  std::vector<EndpointStatus> out(all.size());
  const auto query = wire::epochs();
  fan_out(all, [&](std::size_t pos, std::size_t index) {
    auto& status = out[pos];
    status.endpoint = map_.endpoints()[index].label();
    auto body = exchange_on(index, query.payload);
    if (body.ok()) {
      status.reachable = true;
      auto labels = query.decode(body.value());
      if (labels.ok() && !labels.value().empty()) {
        status.current_epoch = labels.value().front();
      }
    } else {
      status.error = body.error().message();
    }
  });
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i].state = endpoint_state(i);
  }
  return out;
}

}  // namespace asrank::serve
