// Blocking client for the asrankd binary protocol, used by `asrank_cli
// query`, the serving tests, and the CI smoke script.  One connection per
// Client (one serve::Transport); every method is one request/response
// exchange.
//
// All methods return asrank::Result<T> with a typed ErrorCode — kTimeout
// (connect/read deadline expired), kRefused (connection refused), kShedding
// (server at its admission limit), kProtocol (bad frame or server-reported
// error), kUnknownEpoch, kUnknownAlgorithm.  Refused/shed exchanges are
// retried up to TransportConfig::max_retries times with capped exponential
// equal-jitter backoff; the jitter RNG is seeded (deterministic for tests)
// and the sleep is injectable.
//
// Query scoping: every scoped try_* method takes a trailing
// `const QueryScope& scope = {}` — the explicit (epoch, algorithm) pair the
// query is answered under; the default scope is the server's current epoch
// and primary algorithm.  The client holds no scope state.  Every method
// sends one serve/wire_ops query value and decodes the answer with that
// query's decoder; ClusterClient sends the same values, so one caller
// template drives either.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "asn/asn.h"
#include "serve/query_scope.h"
#include "serve/transport.h"
#include "serve/wire_ops.h"
#include "snapshot/snapshot.h"
#include "topology/relationship.h"
#include "util/result.h"

namespace asrank::serve {

class Client {
 public:
  /// Non-throwing constructor path: connect with the config's deadline.
  /// kRefused when the server refuses, kTimeout when the deadline expires.
  [[nodiscard]] static Result<Client> dial(const std::string& host,
                                           std::uint16_t port,
                                           TransportConfig config = {});

  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;
  Client(Client&&) noexcept = default;
  Client& operator=(Client&&) noexcept = default;
  ~Client() = default;

  // --------------------------------------------------- scoped queries --

  Result<std::optional<RelView>> try_relationship(Asn a, Asn b,
                                                  const QueryScope& scope = {});
  /// nullopt = unranked.
  Result<std::optional<std::uint32_t>> try_rank(Asn as,
                                                const QueryScope& scope = {});
  Result<std::uint64_t> try_cone_size(Asn as, const QueryScope& scope = {});
  Result<std::vector<Asn>> try_cone(Asn as, const QueryScope& scope = {});
  Result<bool> try_in_cone(Asn as, Asn member, const QueryScope& scope = {});
  Result<std::vector<Asn>> try_providers(Asn as, const QueryScope& scope = {});
  Result<std::vector<Asn>> try_customers(Asn as, const QueryScope& scope = {});
  Result<std::vector<Asn>> try_peers(Asn as, const QueryScope& scope = {});
  Result<std::vector<snapshot::TopEntry>> try_top(std::uint32_t n,
                                                  const QueryScope& scope = {});
  Result<std::vector<Asn>> try_cone_intersection(Asn a, Asn b,
                                                 const QueryScope& scope = {});
  Result<std::vector<Asn>> try_path_to_clique(Asn as,
                                              const QueryScope& scope = {});
  Result<std::vector<Asn>> try_clique(const QueryScope& scope = {});
  Result<std::string> try_stats_text(const QueryScope& scope = {});
  /// Algorithm sections of the scoped epoch, primary first (scope.algorithm
  /// is ignored — the answer enumerates algorithms).
  Result<std::vector<std::string>> try_algos(const QueryScope& scope = {});
  /// Links where two algorithms of the scoped epoch differ; `limit` caps the
  /// returned rows (0 = all), the total is always exact.  scope.algorithm is
  /// ignored (both algorithms are explicit).
  Result<DisagreeReport> try_disagree(std::string_view algo_a,
                                      std::string_view algo_b,
                                      std::uint32_t limit = 0,
                                      const QueryScope& scope = {});

  // ------------------------------------------------- unscoped requests --

  Result<std::string> try_metrics_text();
  Result<void> try_ping();
  /// Resident epoch labels, current first.
  Result<std::vector<std::string>> try_epochs();
  /// Cone membership delta of `as` from `epoch_a` to `epoch_b`.
  Result<ConeDiff> try_cone_diff(Asn as, std::string_view epoch_a,
                                 std::string_view epoch_b);
  /// Ask the server to load a snapshot file (loopback connections only;
  /// empty label derives one from the path).
  Result<ReloadInfo> try_reload(const std::string& path,
                                const std::string& label = {});

  /// The underlying connection (exposed for diagnostics; ClusterClient uses
  /// its own Transports directly).
  [[nodiscard]] const Transport& transport() const noexcept { return transport_; }

 private:
  explicit Client(Transport transport) : transport_(std::move(transport)) {}

  /// `query` framed under `scope`, exchanged, and its body decoded.
  template <typename T>
  Result<T> ask(wire::Query<T> query, const QueryScope& scope = {});

  Transport transport_;
};

}  // namespace asrank::serve
