// ClusterClient: a smart client over N asrankd endpoints.
//
// Layers, bottom to top:
//
//   * ClusterMap — static shard map: ASN -> slot -> ordered replica list
//     (consistent rendezvous hashing, see cluster_map.h).
//   * Per-endpoint serve::Transport + circuit breaker.  Connection-class
//     failures (refused / timeout / io / shedding) trip a breaker from
//     closed to open after `failure_threshold` consecutive failures; open
//     breakers cool down with the same capped equal-jitter backoff the
//     transport uses for retries, then admit a single half-open probe whose
//     outcome closes or re-opens the breaker.  Routed queries fail over
//     across a slot's replicas in preference order, skipping open breakers;
//     exhausting the list yields typed kUnavailable.
//   * Scatter-gather for cross-shard queries with bounded fan-out
//     concurrency: TOP is merged k-way (rank order, exact-duplicate rows
//     collapse), EPOCHS/ALGOS are intersected preserving the first
//     responder's order, and a cone intersection whose operands live on
//     different shards fetches both cones and intersects client-side.
//   * Epoch consistency: when the caller's QueryScope names no epoch, every
//     dispatch resolves the cluster-wide epoch (newest label resident on
//     every reachable endpoint), pins it on each sub-request via WITH_EPOCH,
//     and — if any replica has since dropped that vintage — invalidates the
//     cached label and re-resolves exactly once before failing typed
//     kEpochSkew.  A scope that names an epoch explicitly bypasses the
//     machinery (kUnknownEpoch propagates raw).
//
// ClusterClient speaks only the scoped query surface (QueryScope per call);
// there is no mutable algorithm/epoch state.  Every method sends the same
// serve/wire_ops query value serve::Client sends (routed, single-endpoint,
// or scattered over the cover) and decodes it with that query's decoder.
// Like serve::Client it is not thread-safe: one instance per caller thread.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "asn/asn.h"
#include "obs/metrics.h"
#include "serve/client.h"
#include "serve/cluster_map.h"
#include "serve/query_scope.h"
#include "serve/transport.h"
#include "serve/wire_ops.h"
#include "snapshot/snapshot.h"
#include "topology/relationship.h"
#include "util/result.h"
#include "util/rng.h"

namespace asrank::serve {

/// Circuit-breaker state of one endpoint.  Numeric values are the
/// asrank_cluster_endpoint_state gauge encoding.
enum class HealthState : std::uint8_t { kClosed = 0, kHalfOpen = 1, kOpen = 2 };

[[nodiscard]] constexpr std::string_view to_string(HealthState state) noexcept {
  switch (state) {
    case HealthState::kClosed: return "closed";
    case HealthState::kHalfOpen: return "half-open";
    case HealthState::kOpen: return "open";
  }
  return "?";
}

struct ClusterClientConfig {
  TransportConfig transport;    ///< applied to every per-endpoint transport
  int failure_threshold = 3;    ///< consecutive failures to open a breaker
  int open_base_ms = 200;       ///< breaker cool-down backoff base
  int open_cap_ms = 10'000;     ///< breaker cool-down backoff cap
  std::size_t max_fanout = 4;   ///< concurrent sub-requests per scatter
  std::uint64_t backoff_seed = 0xc105ee40c105ee40ULL;  ///< breaker jitter rng
  /// Injectable monotonic clock (milliseconds) for breaker cool-downs;
  /// default is steady_clock.  Tests step it to cross open windows.
  std::function<std::uint64_t()> now_ms;
  /// Metrics sink for asrank_cluster_*; nullptr = obs::Registry::global().
  obs::Registry* metrics = nullptr;
};

/// One row of cluster-status output / the chaos test's assertions.
struct EndpointStatus {
  std::string endpoint;        ///< "host:port"
  HealthState state = HealthState::kClosed;
  bool reachable = false;
  std::string current_epoch;   ///< first EPOCHS label when reachable
  std::string error;           ///< last probe error message when unreachable
};

class ClusterClient {
 public:
  ClusterClient(ClusterMap map, ClusterClientConfig config = {});

  ClusterClient(const ClusterClient&) = delete;
  ClusterClient& operator=(const ClusterClient&) = delete;

  // ------------------------------------------------ scoped query surface --

  Result<std::optional<RelView>> try_relationship(Asn a, Asn b,
                                                  const QueryScope& scope = {});
  Result<std::optional<std::uint32_t>> try_rank(Asn as,
                                                const QueryScope& scope = {});
  Result<std::uint64_t> try_cone_size(Asn as, const QueryScope& scope = {});
  Result<std::vector<Asn>> try_cone(Asn as, const QueryScope& scope = {});
  Result<bool> try_in_cone(Asn as, Asn member, const QueryScope& scope = {});
  Result<std::vector<Asn>> try_providers(Asn as, const QueryScope& scope = {});
  Result<std::vector<Asn>> try_customers(Asn as, const QueryScope& scope = {});
  Result<std::vector<Asn>> try_peers(Asn as, const QueryScope& scope = {});
  Result<std::vector<Asn>> try_path_to_clique(Asn as,
                                              const QueryScope& scope = {});
  /// Scatter to the minimal healthy endpoint cover of all slots, k-way
  /// merged by rank with exact-duplicate rows collapsed, truncated to n.
  Result<std::vector<snapshot::TopEntry>> try_top(std::uint32_t n,
                                                  const QueryScope& scope = {});
  /// Same-slot operands route like a per-AS query; cross-shard operands
  /// fetch both cones concurrently and intersect client-side.
  Result<std::vector<Asn>> try_cone_intersection(Asn a, Asn b,
                                                 const QueryScope& scope = {});
  Result<std::vector<Asn>> try_clique(const QueryScope& scope = {});
  Result<std::string> try_stats_text(const QueryScope& scope = {});
  /// Labels resident on every reachable endpoint, in the first reachable
  /// endpoint's order (current first).
  Result<std::vector<std::string>> try_epochs();
  /// Algorithm sections present on every cover endpoint under the scoped
  /// epoch, first responder's order (primary first).
  Result<std::vector<std::string>> try_algos(const QueryScope& scope = {});
  Result<DisagreeReport> try_disagree(std::string_view algo_a,
                                      std::string_view algo_b,
                                      std::uint32_t limit = 0,
                                      const QueryScope& scope = {});
  Result<ConeDiff> try_cone_diff(Asn as, std::string_view epoch_a,
                                 std::string_view epoch_b);
  /// Reachability of at least one endpoint.
  Result<void> try_ping();

  // ------------------------------------------------------ introspection --

  /// The cluster-wide epoch queries are currently pinned to (resolving it if
  /// no label is cached).  kEpochSkew when the reachable endpoints share no
  /// label, kUnavailable when none answer.
  Result<std::string> try_resolved_epoch();
  /// Drop the cached cluster epoch; the next dispatch re-resolves.
  void invalidate_epoch();

  /// Probe every endpoint (EPOCHS round-trip) and report breaker state +
  /// current epoch.  Feeds `asrank_cli cluster-status` and the chaos test.
  std::vector<EndpointStatus> probe_endpoints();

  [[nodiscard]] HealthState endpoint_state(std::size_t index) const;
  [[nodiscard]] const ClusterMap& map() const noexcept { return map_; }
  [[nodiscard]] obs::Registry& metrics() const noexcept { return *metrics_; }

 private:
  struct EndpointHealth {
    HealthState state = HealthState::kClosed;
    int consecutive_failures = 0;
    int open_spins = 0;            ///< opens since the last success
    std::uint64_t open_until_ms = 0;
  };

  [[nodiscard]] std::uint64_t now_ms() const;
  /// Breaker gate: may endpoint `index` receive a request now?  Transitions
  /// open -> half-open when the cool-down has elapsed.
  [[nodiscard]] bool admit(std::size_t index);
  void on_success(std::size_t index);
  void on_failure(std::size_t index, ErrorCode code);
  void set_state_locked(std::size_t index, HealthState next);

  /// One breaker-gated exchange on one endpoint.  kUnavailable when the
  /// breaker rejects the request without touching the wire.
  [[nodiscard]] Result<std::vector<std::uint8_t>> exchange_on(
      std::size_t index, const std::vector<std::uint8_t>& frame);

  /// Minimal endpoint set covering every slot (first admitted replica per
  /// slot); kUnavailable when some slot has no admitted replica.
  [[nodiscard]] Result<std::vector<std::size_t>> cover_endpoints();

  /// Exchange `frame` against `candidates` in preference order, failing over
  /// on connection-class errors; kUnavailable on exhaustion.  Server-typed
  /// errors (unknown epoch/algorithm, protocol) return immediately — the
  /// endpoint answered, so another replica would answer the same.
  [[nodiscard]] Result<std::vector<std::uint8_t>> over_endpoints(
      std::span<const std::size_t> candidates,
      const std::vector<std::uint8_t>& frame, std::string_view what);
  /// over_endpoints on slot_of(key)'s replica list.
  [[nodiscard]] Result<std::vector<std::uint8_t>> routed(
      Asn key, const std::vector<std::uint8_t>& frame);
  /// over_endpoints on the full endpoint list (single-endpoint ops).
  [[nodiscard]] Result<std::vector<std::uint8_t>> single(
      const std::vector<std::uint8_t>& frame);

  /// Run one job per endpoint index with bounded concurrency; results land
  /// in index order.
  void fan_out(const std::vector<std::size_t>& targets,
               const std::function<void(std::size_t pos, std::size_t endpoint)>& job);

  /// Resolve (or return the cached) cluster-wide epoch label.
  [[nodiscard]] Result<std::string> resolve_epoch();
  /// EPOCHS from every endpoint; per-endpoint results, reachable flags set.
  [[nodiscard]] std::vector<std::optional<std::vector<std::string>>>
  scatter_epochs();

  /// Run `body()` and count it under op's name: requests_total{op}, the
  /// latency histogram, and errors_total{op,code} when it fails.  Every
  /// query method goes through it once.  This and the templates below are
  /// defined in the .cpp: all instantiations are local to it.
  template <typename Fn>
  auto counted(Op op, Fn&& body) -> decltype(body());
  /// Run `body` under an epoch-pinned scope with the one bounded re-resolve
  /// retry on kUnknownEpoch (the skew signal), counted().
  template <typename Fn>
  auto pinned(const QueryScope& scope, Op op, Fn&& body) -> decltype(body(scope));
  /// `query` framed under `scope`, sent to `route`'s slot (any endpoint when
  /// nullopt), and its body decoded.
  template <typename T>
  Result<T> fetch(const wire::Query<T>& query, const QueryScope& scope,
                  std::optional<Asn> route);
  /// fetch() under pinned(): one routed or single-endpoint query.
  template <typename T>
  Result<T> ask(const wire::Query<T>& query, const QueryScope& scope,
                std::optional<Asn> route);
  /// `query` on every endpoint of the minimal healthy cover, decoded, in
  /// cover order; a lost cover endpoint is kUnavailable.
  template <typename T>
  Result<std::vector<T>> scatter_cover(const wire::Query<T>& query,
                                       const QueryScope& scope);

  ClusterMap map_;
  ClusterClientConfig config_;
  std::vector<Transport> transports_;  ///< one per endpoint, index-aligned
  /// Serializes wire use of one endpoint when concurrent fan-out jobs route
  /// to the same replica (e.g. both halves of a cross-shard intersection).
  std::vector<std::unique_ptr<std::mutex>> transport_mutex_;

  mutable std::mutex mutex_;  ///< guards health_, epoch cache, breaker rng
  std::vector<EndpointHealth> health_;
  util::Rng breaker_rng_;
  std::optional<std::string> resolved_epoch_;

  obs::Registry* metrics_ = nullptr;
  obs::Counter* fanout_total_ = nullptr;
  obs::Counter* failovers_total_ = nullptr;
  obs::Counter* epoch_resolves_total_ = nullptr;
  obs::Counter* epoch_skew_total_ = nullptr;
  obs::Counter* unavailable_total_ = nullptr;
  obs::Histogram* latency_ = nullptr;
};

}  // namespace asrank::serve
