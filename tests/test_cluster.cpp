// Cluster serving tests: ClusterMap hashing, the scoped client surface,
// circuit breakers, epoch consistency, and — the core contract — that a
// ClusterClient over N asrankd processes answers byte-identically to one
// monolithic server holding the same snapshots.
//
// The multi-process integration and chaos tests fork real server processes
// (port reported over a pipe) and run last in this file; every fork happens
// before the parent spawns its own reference-server thread for that test.
#include <gtest/gtest.h>

#include <csignal>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/cones.h"
#include "obs/metrics.h"
#include "serve/client.h"
#include "serve/cluster_client.h"
#include "serve/cluster_map.h"
#include "serve/query_scope.h"
#include "serve/server.h"
#include "serve/snapshot_registry.h"
#include "serve/transport.h"
#include "snapshot/snapshot.h"
#include "util/rng.h"

namespace asrank::serve {
namespace {

// Same seed topology as test_serve: clique {1,2}, 3 multihomed, chain to 4,
// peering 4-5, siblings 6-7.
AsGraph make_graph() {
  AsGraph graph;
  graph.add_p2p(Asn(1), Asn(2));
  graph.add_p2c(Asn(1), Asn(3));
  graph.add_p2c(Asn(2), Asn(3));
  graph.add_p2c(Asn(3), Asn(4));
  graph.add_p2c(Asn(1), Asn(5));
  graph.add_p2p(Asn(4), Asn(5));
  graph.add_p2c(Asn(2), Asn(6));
  graph.add_s2s(Asn(6), Asn(7));
  return graph;
}

snapshot::SnapshotIndex make_index() {
  const auto graph = make_graph();
  const std::unordered_map<Asn, std::size_t> tdeg = {
      {Asn(1), 3}, {Asn(2), 3}, {Asn(3), 2}};
  return snapshot::build_snapshot(graph, tdeg, core::recursive_cone(graph),
                                  {Asn(1), Asn(2)});
}

// Older vintage: 4 and 5 gone, 8 appeared under 3.
snapshot::SnapshotIndex make_index_b() {
  AsGraph graph;
  graph.add_p2p(Asn(1), Asn(2));
  graph.add_p2c(Asn(1), Asn(3));
  graph.add_p2c(Asn(2), Asn(3));
  graph.add_p2c(Asn(3), Asn(8));
  graph.add_p2c(Asn(2), Asn(6));
  graph.add_s2s(Asn(6), Asn(7));
  const std::unordered_map<Asn, std::size_t> tdeg = {
      {Asn(1), 2}, {Asn(2), 2}, {Asn(3), 1}};
  return snapshot::build_snapshot(graph, tdeg, core::recursive_cone(graph),
                                  {Asn(1), Asn(2)});
}

// A second algorithm's view: 1->5 gone, 4-5 peering inverted to 5->4.
snapshot::SnapshotIndex make_variant_index() {
  AsGraph graph;
  graph.add_p2p(Asn(1), Asn(2));
  graph.add_p2c(Asn(1), Asn(3));
  graph.add_p2c(Asn(2), Asn(3));
  graph.add_p2c(Asn(3), Asn(4));
  graph.add_p2c(Asn(5), Asn(4));
  graph.add_p2c(Asn(2), Asn(6));
  graph.add_s2s(Asn(6), Asn(7));
  const std::unordered_map<Asn, std::size_t> tdeg = {
      {Asn(1), 3}, {Asn(2), 3}, {Asn(3), 2}};
  return snapshot::build_snapshot(graph, tdeg, core::recursive_cone(graph),
                                  {Asn(1), Asn(2)});
}

snapshot::SnapshotIndex make_multi_index() {
  std::vector<std::pair<std::string, snapshot::SnapshotIndex>> parts;
  parts.emplace_back("asrank", make_index());
  parts.emplace_back("gao2001", make_variant_index());
  auto combined = snapshot::combine_snapshots(std::move(parts));
  EXPECT_TRUE(combined.ok());
  return std::move(combined).value();
}

std::vector<Asn> sweep_ases() {
  return {Asn(1), Asn(2), Asn(3), Asn(4), Asn(5),
          Asn(6), Asn(7), Asn(8), Asn(99)};
}

// One in-process asrankd: registry + server thread on an ephemeral port.
// `install` populates the epochs before the listener accepts queries.
class MemberServer {
 public:
  template <typename InstallFn>
  explicit MemberServer(InstallFn&& install, std::size_t retention = 4) {
    SnapshotRegistryConfig config;
    config.retention = retention;
    snapshots_.emplace(config, &metrics_);
    install(*snapshots_);
    ServerConfig server_config;
    server_config.port = 0;
    server_config.threads = 2;
    server_.emplace(*snapshots_, server_config);
    thread_ = std::thread([this] { server_->run(); });
  }

  ~MemberServer() {
    server_->stop();
    thread_.join();
  }

  [[nodiscard]] std::uint16_t port() const { return server_->port(); }
  [[nodiscard]] SnapshotRegistry& snapshots() { return *snapshots_; }

 private:
  obs::Registry metrics_;
  std::optional<SnapshotRegistry> snapshots_;
  std::optional<Server> server_;
  std::thread thread_;
};

ClusterEndpoint loopback(std::uint16_t port) {
  return ClusterEndpoint{"127.0.0.1", port};
}

// ------------------------------------------------------------ cluster map --

TEST(ClusterMap, ParseBuildsDeterministicSlotTable) {
  auto map = ClusterMap::parse("a:1,b:2,c:3", {.slots = 16, .replication = 2});
  ASSERT_TRUE(map.ok()) << map.error().message();
  EXPECT_EQ(map.value().endpoints().size(), 3u);
  EXPECT_EQ(map.value().slot_count(), 16u);
  EXPECT_EQ(map.value().replication(), 2u);
  for (std::size_t slot = 0; slot < 16; ++slot) {
    const auto replicas = map.value().replicas(slot);
    ASSERT_EQ(replicas.size(), 2u);
    EXPECT_NE(replicas[0], replicas[1]);
  }
  // The same spec builds the identical table: routing needs no coordination.
  auto again = ClusterMap::parse("a:1,b:2,c:3", {.slots = 16, .replication = 2});
  ASSERT_TRUE(again.ok());
  for (std::size_t slot = 0; slot < 16; ++slot) {
    const auto lhs = map.value().replicas(slot);
    const auto rhs = again.value().replicas(slot);
    EXPECT_TRUE(std::equal(lhs.begin(), lhs.end(), rhs.begin(), rhs.end()));
  }
  // slot_of is a pure function of the ASN.
  EXPECT_EQ(map.value().slot_of(Asn(3356)), map.value().slot_of(Asn(3356)));
  EXPECT_LT(map.value().slot_of(Asn(3356)), 16u);
}

TEST(ClusterMap, ReplicationClampsToClusterSize) {
  auto map = ClusterMap::parse("a:1,b:2", {.slots = 8, .replication = 5});
  ASSERT_TRUE(map.ok());
  EXPECT_EQ(map.value().replication(), 2u);
}

TEST(ClusterMap, RejectsMalformedSpecs) {
  EXPECT_EQ(ClusterMap::parse("", {}).error().code, ErrorCode::kInvalidArgument);
  EXPECT_EQ(ClusterMap::parse("hostonly", {}).error().code,
            ErrorCode::kInvalidArgument);
  EXPECT_EQ(ClusterMap::parse("a:0", {}).error().code,
            ErrorCode::kInvalidArgument);
  EXPECT_EQ(ClusterMap::parse("a:1,a:1", {}).error().code,
            ErrorCode::kInvalidArgument);
  EXPECT_EQ(ClusterMap::make({loopback(1)}, {.slots = 0, .replication = 1})
                .error()
                .code,
            ErrorCode::kInvalidArgument);
}

TEST(ClusterMap, RendezvousKeepsPrimariesStableUnderMembershipChange) {
  // Removing one endpoint must only reassign the slots it served: every
  // slot whose first choice survives keeps that first choice.
  const ClusterMapConfig config{.slots = 64, .replication = 1};
  auto three = ClusterMap::make({{"h", 1}, {"h", 2}, {"h", 3}}, config);
  auto two = ClusterMap::make({{"h", 1}, {"h", 2}}, config);
  ASSERT_TRUE(three.ok());
  ASSERT_TRUE(two.ok());
  for (std::size_t slot = 0; slot < 64; ++slot) {
    const auto before =
        three.value().endpoints()[three.value().replicas(slot)[0]].label();
    const auto after =
        two.value().endpoints()[two.value().replicas(slot)[0]].label();
    if (before != "h:3") EXPECT_EQ(after, before) << "slot " << slot;
  }
}

// ----------------------------------------------------- scoped client API --

TEST(QueryScopeApi, ScopedAndLegacyCallsAgree) {
  MemberServer member(
      [](SnapshotRegistry& s) { ASSERT_TRUE(s.install("cur", make_multi_index()).ok()); });
  Client client = Client::dial("127.0.0.1", member.port()).value();

  const QueryScope plain{};
  EXPECT_EQ(client.try_cone(Asn(1), plain).value(),
            client.try_cone(Asn(1)).value());
  EXPECT_EQ(client.try_top(3, plain).value(), client.try_top(3).value());

  // An explicit scope is used exactly as given, ignoring mutable state.
  client.set_algorithm("gao2001");
  const QueryScope primary{"", "asrank"};
  EXPECT_EQ(client.try_cone_size(Asn(1), primary).value(), 4u);
  // The bound scope flows through legacy calls: gao2001 drops 5 from cone(1).
  EXPECT_EQ(client.try_cone_size(Asn(1)).value(), 3u);
  // And scoped calls for the variant agree with the legacy path.
  const QueryScope variant{"", "gao2001"};
  EXPECT_EQ(client.try_cone(Asn(1), variant).value(),
            client.try_cone(Asn(1)).value());

  // with_scope binds a default for legacy calls without mutation elsewhere.
  client.with_scope(QueryScope{"cur", "asrank"});
  EXPECT_EQ(client.try_cone_size(Asn(1)).value(), 4u);
  EXPECT_EQ(client.scope().epoch, "cur");
}

TEST(QueryScopeApi, AlgosListsSectionsPrimaryFirst) {
  MemberServer member([](SnapshotRegistry& s) {
    ASSERT_TRUE(s.install("old", make_index_b()).ok());
    ASSERT_TRUE(s.install("cur", make_multi_index()).ok());
  });
  Client client = Client::dial("127.0.0.1", member.port()).value();
  const std::vector<std::string> multi = {"asrank", "gao2001"};
  EXPECT_EQ(client.try_algos(QueryScope{}).value(), multi);
  EXPECT_EQ(client.try_algos(QueryScope{"cur", ""}).value(), multi);
  // The older epoch has a single unnamed-primary section.
  EXPECT_EQ(client.try_algos(QueryScope{"old", ""}).value().size(), 1u);
  EXPECT_EQ(client.try_algos(QueryScope{"nope", ""}).error().code,
            ErrorCode::kUnknownEpoch);
}

TEST(QueryScopeApi, AmbiguousEpochLabelsAreRejectedAtInstall) {
  obs::Registry metrics;
  SnapshotRegistry snapshots({}, &metrics);
  // A registered algorithm name cannot label an epoch.
  const auto clash = snapshots.install("asrank", make_index());
  ASSERT_FALSE(clash.ok());
  EXPECT_EQ(clash.error().code, ErrorCode::kInvalidArgument);
  EXPECT_NE(clash.error().context.find("ambiguous epoch label"),
            std::string::npos);
  // Nor can a section name of a resident epoch (gao2001 is also registered;
  // sanity-check the resident-section arm with the snapshot's own sections).
  ASSERT_TRUE(snapshots.install("cur", make_multi_index()).ok());
  const auto resident = snapshots.install("gao2001", make_index());
  ASSERT_FALSE(resident.ok());
  EXPECT_EQ(resident.error().code, ErrorCode::kInvalidArgument);
  // Valid labels still install.
  EXPECT_TRUE(snapshots.install("cur-2", make_index()).ok());
}

TEST(TransportSeam, ClassifiesServerErrorsAndBoundsBackoff) {
  EXPECT_EQ(classify_server_error("unknown epoch 'x'"), ErrorCode::kUnknownEpoch);
  EXPECT_EQ(classify_server_error("unknown algorithm 'x'"),
            ErrorCode::kUnknownAlgorithm);
  EXPECT_EQ(classify_server_error("bad frame"), ErrorCode::kProtocol);
  util::Rng rng(7);
  for (int attempt = 0; attempt < 8; ++attempt) {
    const auto delay = backoff_delay_ms(attempt, 50, 400, rng);
    const auto cap = std::min<std::uint64_t>(400, 50ull << attempt);
    EXPECT_GE(delay, cap / 2);
    EXPECT_LE(delay, cap);
  }
}

// -------------------------------------------------------- circuit breaker --

TEST(ClusterBreaker, OpensAfterThresholdAndCoolsDownOnFakeClock) {
  // Nothing listens on 127.0.0.1:1 — every dial is refused.
  auto map = ClusterMap::make({loopback(1)}, {.slots = 4, .replication = 1});
  ASSERT_TRUE(map.ok());
  std::atomic<std::uint64_t> clock{1000};
  obs::Registry metrics;
  ClusterClientConfig config;
  config.failure_threshold = 2;
  config.now_ms = [&clock] { return clock.load(); };
  config.metrics = &metrics;
  ClusterClient client(std::move(map).value(), std::move(config));

  EXPECT_EQ(client.try_ping().error().code, ErrorCode::kUnavailable);
  EXPECT_EQ(client.endpoint_state(0), HealthState::kClosed);
  EXPECT_EQ(client.try_ping().error().code, ErrorCode::kUnavailable);
  EXPECT_EQ(client.endpoint_state(0), HealthState::kOpen);

  // While open, requests are rejected without touching the wire.
  auto& fanout = metrics.counter("asrank_cluster_fanout_requests_total");
  const auto dispatched = fanout.value();
  const auto rejected = client.try_ping();
  EXPECT_EQ(rejected.error().code, ErrorCode::kUnavailable);
  EXPECT_NE(rejected.error().context.find("circuit breaker open"),
            std::string::npos);
  EXPECT_EQ(fanout.value(), dispatched);

  // Past the cool-down (first open window is at most open_base_ms), the
  // breaker admits one half-open probe; its failure re-opens immediately.
  clock += 1000;
  EXPECT_EQ(client.try_ping().error().code, ErrorCode::kUnavailable);
  EXPECT_EQ(fanout.value(), dispatched + 1);
  EXPECT_EQ(client.endpoint_state(0), HealthState::kOpen);
  EXPECT_EQ(metrics
                .counter("asrank_cluster_endpoint_opens_total", "",
                         {{"endpoint", "127.0.0.1:1"}})
                .value(),
            2u);
}

TEST(ClusterBreaker, SuccessesKeepBreakerClosed) {
  // The half-open -> closed recovery transition is exercised end to end by
  // ClusterProcess.ChaosSigkillTypedErrorsAndRecovery.
  MemberServer member(
      [](SnapshotRegistry& s) { ASSERT_TRUE(s.install("seed", make_index()).ok()); });
  auto map = ClusterMap::make({loopback(member.port())},
                              {.slots = 4, .replication = 1});
  ASSERT_TRUE(map.ok());
  obs::Registry metrics;
  ClusterClientConfig config;
  config.metrics = &metrics;
  ClusterClient client(std::move(map).value(), std::move(config));
  for (int i = 0; i < 5; ++i) ASSERT_TRUE(client.try_ping().ok());
  EXPECT_EQ(client.endpoint_state(0), HealthState::kClosed);
  EXPECT_EQ(metrics.counter("asrank_cluster_unavailable_total").value(), 0u);
}

// ------------------------------------------- cluster vs monolith equality --

void install_two_epochs(SnapshotRegistry& snapshots) {
  ASSERT_TRUE(snapshots.install("old", make_index_b()).ok());
  ASSERT_TRUE(snapshots.install("cur", make_multi_index()).ok());
}

// Every query answered by the cluster must be byte-identical to the
// monolithic answer, including cross-shard scatter ops, under the default
// scope, a pinned epoch, and a non-primary algorithm.
void expect_cluster_matches_monolith(ClusterClient& cluster, Client& mono) {
  const std::vector<QueryScope> scopes = {
      QueryScope{},
      QueryScope{"cur", ""},
      QueryScope{"old", ""},
      QueryScope{"", "gao2001"},
      QueryScope{"cur", "gao2001"},
  };
  for (const auto& scope : scopes) {
    // gao2001 only exists in epoch "cur".
    if (scope.algorithm == "gao2001" && scope.epoch == "old") continue;
    SCOPED_TRACE("scope epoch='" + scope.epoch + "' algo='" + scope.algorithm +
                 "'");
    for (const Asn as : sweep_ases()) {
      EXPECT_EQ(cluster.try_rank(as, scope).value(),
                mono.try_rank(as, scope).value());
      EXPECT_EQ(cluster.try_cone_size(as, scope).value(),
                mono.try_cone_size(as, scope).value());
      EXPECT_EQ(cluster.try_cone(as, scope).value(),
                mono.try_cone(as, scope).value());
      EXPECT_EQ(cluster.try_providers(as, scope).value(),
                mono.try_providers(as, scope).value());
      EXPECT_EQ(cluster.try_customers(as, scope).value(),
                mono.try_customers(as, scope).value());
      EXPECT_EQ(cluster.try_peers(as, scope).value(),
                mono.try_peers(as, scope).value());
      EXPECT_EQ(cluster.try_path_to_clique(as, scope).value(),
                mono.try_path_to_clique(as, scope).value());
      for (const Asn other : sweep_ases()) {
        EXPECT_EQ(cluster.try_relationship(as, other, scope).value(),
                  mono.try_relationship(as, other, scope).value());
        EXPECT_EQ(cluster.try_in_cone(as, other, scope).value(),
                  mono.try_in_cone(as, other, scope).value());
        // Operand pairs land on different shards for most pairs: this is
        // the client-side set_intersection path.
        EXPECT_EQ(cluster.try_cone_intersection(as, other, scope).value(),
                  mono.try_cone_intersection(as, other, scope).value());
      }
    }
    for (const std::uint32_t n : {0u, 1u, 3u, 100u}) {
      EXPECT_EQ(cluster.try_top(n, scope).value(), mono.try_top(n, scope).value())
          << "top " << n;
    }
    EXPECT_EQ(cluster.try_clique(scope).value(), mono.try_clique(scope).value());
    EXPECT_EQ(cluster.try_algos(scope).value(), mono.try_algos(scope).value());
  }
  EXPECT_EQ(cluster.try_epochs().value(), mono.try_epochs().value());
  EXPECT_EQ(cluster.try_disagree("asrank", "gao2001", 0, QueryScope{}).value(),
            mono.try_disagree("asrank", "gao2001", 0, QueryScope{}).value());
  EXPECT_EQ(cluster.try_disagree("asrank", "gao2001", 1, QueryScope{}).value(),
            mono.try_disagree("asrank", "gao2001", 1, QueryScope{}).value());
  EXPECT_EQ(cluster.try_cone_diff(Asn(1), "old", "cur").value(),
            mono.try_cone_diff(Asn(1), "old", "cur").value());
  // Stats is runtime state, not snapshot state: shape only.
  EXPECT_EQ(cluster.try_stats_text(QueryScope{}).value().rfind("query_type", 0),
            0u);
}

TEST(ClusterEquality, ThreeMembersMatchMonolith) {
  MemberServer a(install_two_epochs);
  MemberServer b(install_two_epochs);
  MemberServer c(install_two_epochs);
  MemberServer mono_member(install_two_epochs);

  auto map = ClusterMap::make(
      {loopback(a.port()), loopback(b.port()), loopback(c.port())},
      {.slots = 16, .replication = 2});
  ASSERT_TRUE(map.ok());
  obs::Registry metrics;
  ClusterClientConfig config;
  config.metrics = &metrics;
  ClusterClient cluster(std::move(map).value(), std::move(config));
  Client mono = Client::dial("127.0.0.1", mono_member.port()).value();

  expect_cluster_matches_monolith(cluster, mono);
  EXPECT_EQ(cluster.try_resolved_epoch().value(), "cur");
  EXPECT_EQ(metrics.counter("asrank_cluster_epoch_skew_total").value(), 0u);
}

TEST(ClusterEquality, SingleMemberClusterIsAPlainClient) {
  MemberServer member(install_two_epochs);
  auto map = ClusterMap::make({loopback(member.port())}, {});
  ASSERT_TRUE(map.ok());
  obs::Registry metrics;
  ClusterClientConfig config;
  config.metrics = &metrics;
  ClusterClient cluster(std::move(map).value(), std::move(config));
  Client mono = Client::dial("127.0.0.1", member.port()).value();
  expect_cluster_matches_monolith(cluster, mono);
}

// -------------------------------------------------------- epoch consistency --

TEST(ClusterEpoch, ResolvesNewestCommonLabel) {
  MemberServer a([](SnapshotRegistry& s) {
    ASSERT_TRUE(s.install("seed", make_index()).ok());
    ASSERT_TRUE(s.install("next", make_index()).ok());
  });
  MemberServer b(
      [](SnapshotRegistry& s) { ASSERT_TRUE(s.install("seed", make_index()).ok()); });
  auto map = ClusterMap::make({loopback(a.port()), loopback(b.port())},
                              {.slots = 16, .replication = 2});
  ASSERT_TRUE(map.ok());
  obs::Registry metrics;
  ClusterClientConfig config;
  config.metrics = &metrics;
  ClusterClient cluster(std::move(map).value(), std::move(config));
  // "next" is only on a; the newest label every member carries is "seed".
  EXPECT_EQ(cluster.try_resolved_epoch().value(), "seed");
  EXPECT_EQ(cluster.try_cone_size(Asn(1), QueryScope{}).value(), 4u);
  // An explicit scope bypasses resolution: "next" is served where resident,
  // kUnknownEpoch where not — never silently answered from another vintage.
  std::size_t served = 0;
  std::size_t unknown = 0;
  for (const Asn as : sweep_ases()) {
    const auto result = cluster.try_cone_size(as, QueryScope{"next", ""});
    if (result.ok()) {
      ++served;
    } else {
      EXPECT_EQ(result.error().code, ErrorCode::kUnknownEpoch);
      ++unknown;
    }
  }
  EXPECT_GT(served + unknown, 0u);
}

TEST(ClusterEpoch, SkewIsTypedAndRecovers) {
  // Retention 1: installing a new epoch evicts the old one.
  MemberServer a(
      [](SnapshotRegistry& s) { ASSERT_TRUE(s.install("seed", make_index()).ok()); },
      /*retention=*/1);
  MemberServer b(
      [](SnapshotRegistry& s) { ASSERT_TRUE(s.install("seed", make_index()).ok()); },
      /*retention=*/1);
  auto map = ClusterMap::make({loopback(a.port()), loopback(b.port())},
                              {.slots = 16, .replication = 2});
  ASSERT_TRUE(map.ok());
  obs::Registry metrics;
  ClusterClientConfig config;
  config.metrics = &metrics;
  ClusterClient cluster(std::move(map).value(), std::move(config));
  EXPECT_EQ(cluster.try_resolved_epoch().value(), "seed");
  EXPECT_TRUE(cluster.try_top(3, QueryScope{}).ok());

  // Half the cluster moves on: "seed" is evicted from the member that is
  // AS1's first replica (the slot table follows the ephemeral ports, so pick
  // it from the map), and the members no longer share any label.  Pinned
  // fan-outs must fail typed kEpochSkew — the per-AS routed ops too, once
  // their sub-request lands on the member that moved on (AS1's does).
  const auto& cluster_map = cluster.map();
  const std::size_t lead = cluster_map.replicas(cluster_map.slot_of(Asn(1)))[0];
  MemberServer& ahead = lead == 0 ? a : b;
  MemberServer& behind = lead == 0 ? b : a;
  ASSERT_TRUE(ahead.snapshots().install("next", make_index()).ok());
  std::size_t skews = 0;
  for (int round = 0; round < 2; ++round) {
    for (const Asn as : sweep_ases()) {
      const auto result = cluster.try_cone_size(as, QueryScope{});
      if (result.ok()) continue;
      EXPECT_EQ(result.error().code, ErrorCode::kEpochSkew)
          << result.error().message();
      ++skews;
    }
    const auto top = cluster.try_top(3, QueryScope{});
    if (!top.ok()) {
      EXPECT_EQ(top.error().code, ErrorCode::kEpochSkew)
          << top.error().message();
      ++skews;
    }
  }
  EXPECT_GT(skews, 0u);
  EXPECT_GT(metrics.counter("asrank_cluster_epoch_skew_total").value(), 0u);
  const auto resolved = cluster.try_resolved_epoch();
  ASSERT_FALSE(resolved.ok());
  EXPECT_EQ(resolved.error().code, ErrorCode::kEpochSkew);

  // The laggard catches up: the next resolution converges on "next" and
  // every query serves again.
  ASSERT_TRUE(behind.snapshots().install("next", make_index()).ok());
  EXPECT_EQ(cluster.try_resolved_epoch().value(), "next");
  for (const Asn as : sweep_ases()) {
    EXPECT_TRUE(cluster.try_cone_size(as, QueryScope{}).ok());
  }
  EXPECT_TRUE(cluster.try_top(3, QueryScope{}).ok());
}

// --------------------------------------------- multi-process integration --

struct ChildServer {
  pid_t pid = -1;
  std::uint16_t port = 0;
};

// Fork a real asrankd process serving the two-epoch fixture (or the plain
// seed fixture), reporting its ephemeral port back over a pipe.  fixed_port
// nonzero rebinds a specific port (chaos-test restart).
ChildServer spawn_member(bool two_epochs, std::uint16_t fixed_port = 0) {
  int fds[2] = {-1, -1};
  EXPECT_EQ(::pipe(fds), 0);
  const pid_t pid = ::fork();
  if (pid == 0) {
    ::close(fds[0]);
    obs::Registry metrics;
    SnapshotRegistryConfig registry_config;
    registry_config.retention = 4;
    SnapshotRegistry snapshots(registry_config, &metrics);
    bool ok = true;
    if (two_epochs) {
      ok = snapshots.install("old", make_index_b()).ok() &&
           snapshots.install("cur", make_multi_index()).ok();
    } else {
      ok = snapshots.install("seed", make_index()).ok();
    }
    if (!ok) ::_exit(3);
    ServerConfig server_config;
    server_config.port = fixed_port;
    server_config.threads = 2;
    Server server(snapshots, server_config);
    server.install_signal_handlers();
    const std::uint16_t port = server.port();
    if (::write(fds[1], &port, sizeof port) != sizeof port) ::_exit(4);
    ::close(fds[1]);
    server.run();
    ::_exit(0);
  }
  ::close(fds[1]);
  ChildServer child;
  child.pid = pid;
  EXPECT_EQ(::read(fds[0], &child.port, sizeof child.port),
            static_cast<ssize_t>(sizeof child.port));
  ::close(fds[0]);
  return child;
}

void reap(ChildServer& child, int signal = SIGTERM) {
  if (child.pid <= 0) return;
  ::kill(child.pid, signal);
  int status = 0;
  ::waitpid(child.pid, &status, 0);
  child.pid = -1;
}

TEST(ClusterProcess, FourProcessesMatchMonolith) {
  // Fork all members before the parent spawns its reference-server thread.
  std::vector<ChildServer> members;
  for (int i = 0; i < 4; ++i) members.push_back(spawn_member(true));
  {
    MemberServer mono_member(install_two_epochs);
    Client mono = Client::dial("127.0.0.1", mono_member.port()).value();
    std::vector<ClusterEndpoint> endpoints;
    for (const auto& member : members) endpoints.push_back(loopback(member.port));
    auto map = ClusterMap::make(endpoints, {.slots = 16, .replication = 2});
    ASSERT_TRUE(map.ok());
    obs::Registry metrics;
    ClusterClientConfig config;
    config.metrics = &metrics;
    ClusterClient cluster(std::move(map).value(), std::move(config));
    expect_cluster_matches_monolith(cluster, mono);
  }
  for (auto& member : members) reap(member);
}

TEST(ClusterProcess, ChaosSigkillTypedErrorsAndRecovery) {
  std::vector<ChildServer> members;
  for (int i = 0; i < 3; ++i) members.push_back(spawn_member(false));

  std::vector<ClusterEndpoint> endpoints;
  for (const auto& member : members) endpoints.push_back(loopback(member.port));
  auto map = ClusterMap::make(endpoints, {.slots = 16, .replication = 2});
  ASSERT_TRUE(map.ok());
  std::atomic<std::uint64_t> clock{1000};
  obs::Registry metrics;
  ClusterClientConfig config;
  config.failure_threshold = 2;
  config.now_ms = [&clock] { return clock.load(); };
  config.metrics = &metrics;
  ClusterClient cluster(std::move(map).value(), std::move(config));

  ASSERT_EQ(cluster.try_resolved_epoch().value(), "seed");
  for (const Asn as : sweep_ases()) {
    ASSERT_TRUE(cluster.try_cone_size(as, QueryScope{}).ok());
  }

  // SIGKILL one member mid-serving: AS1's first replica, picked from the map
  // because the slot table follows the ephemeral ports.  Every subsequent
  // failure must be typed kUnavailable (or transparently failed over) —
  // never a raw socket error.
  const auto& cluster_map = cluster.map();
  const std::size_t victim = cluster_map.replicas(cluster_map.slot_of(Asn(1)))[0];
  const std::uint16_t killed_port = members[victim].port;
  reap(members[victim], SIGKILL);
  std::size_t failures = 0;
  for (int round = 0; round < 4; ++round) {
    // AS1 is among 1..64, so the dead endpoint is some query's first
    // replica: the failover path is guaranteed to run.
    for (std::uint32_t value = 1; value <= 64; ++value) {
      const auto size = cluster.try_cone_size(Asn(value), QueryScope{});
      if (!size.ok()) {
        EXPECT_EQ(size.error().code, ErrorCode::kUnavailable)
            << size.error().message();
        ++failures;
      }
    }
    const auto top = cluster.try_top(3, QueryScope{});
    if (!top.ok()) {
      EXPECT_EQ(top.error().code, ErrorCode::kUnavailable)
          << top.error().message();
      ++failures;
    }
  }
  // Replication 2 rode through the loss for routed queries; scatter may
  // have lost cover until the breaker opened.
  EXPECT_EQ(cluster.endpoint_state(victim), HealthState::kOpen);
  EXPECT_GT(metrics.counter("asrank_cluster_failovers_total").value(), 0u);
  EXPECT_EQ(metrics
                .gauge("asrank_cluster_endpoint_state", "",
                       {{"endpoint", endpoints[victim].label()}})
                .value(),
            2);
  // With the breaker open, everything — including scatter — serves again.
  for (const Asn as : sweep_ases()) {
    EXPECT_TRUE(cluster.try_cone_size(as, QueryScope{}).ok());
  }
  EXPECT_TRUE(cluster.try_top(3, QueryScope{}).ok());

  // Restart the member on its old port (SO_REUSEADDR); past the cool-down
  // the half-open probe (AS1's query, in the sweep) succeeds and the breaker
  // closes.
  members[victim] = spawn_member(false, killed_port);
  ASSERT_NE(members[victim].port, 0);
  clock += 60'000;
  bool recovered = false;
  for (int attempt = 0; attempt < 50 && !recovered; ++attempt) {
    for (const Asn as : sweep_ases()) {
      (void)cluster.try_cone_size(as, QueryScope{});
    }
    recovered = cluster.endpoint_state(victim) == HealthState::kClosed;
    if (!recovered) {
      clock += 60'000;
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
  }
  EXPECT_TRUE(recovered);
  for (const Asn as : sweep_ases()) {
    EXPECT_TRUE(cluster.try_cone_size(as, QueryScope{}).ok());
  }
  const auto status = cluster.probe_endpoints();
  ASSERT_EQ(status.size(), 3u);
  for (const auto& row : status) EXPECT_TRUE(row.reachable) << row.endpoint;

  for (auto& member : members) reap(member);
}

}  // namespace
}  // namespace asrank::serve
