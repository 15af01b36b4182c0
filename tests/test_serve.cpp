#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <csignal>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/cones.h"
#include "obs/metrics.h"
#include "serve/client.h"
#include "serve/protocol.h"
#include "serve/query_engine.h"
#include "serve/server.h"
#include "serve/snapshot_registry.h"
#include "snapshot/snapshot.h"
#include "topogen/topogen.h"
#include "util/rng.h"

namespace asrank::serve {
namespace {

// Same fixture as test_snapshot: clique {1,2}, 3 multihomed, chain to 4,
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

// A second epoch: 4 and 5 are gone, 8 appeared under 3.  cone(1) shifts from
// {1,3,4,5} to {1,3,8}, which the CONE_DIFF tests below rely on.
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

// A second algorithm's view of the seed topology: 1->5 is gone and the 4-5
// peering is inverted into 5->4 transit, so the two sections disagree on
// exactly two links — (1,5) customer/none and (4,5) peer/provider — and
// cone(1) shrinks from {1,3,4,5} to {1,3,4}.
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

// Two algorithm sections in one snapshot: asrank primary, gao2001 extra.
snapshot::SnapshotIndex make_multi_index() {
  std::vector<std::pair<std::string, snapshot::SnapshotIndex>> parts;
  parts.emplace_back("asrank", make_index());
  parts.emplace_back("gao2001", make_variant_index());
  auto combined = snapshot::combine_snapshots(std::move(parts));
  EXPECT_TRUE(combined.ok());
  return std::move(combined).value();
}

std::vector<Asn> asns(std::initializer_list<std::uint32_t> values) {
  std::vector<Asn> out;
  for (const auto v : values) out.emplace_back(v);
  return out;
}

// Every test rig gets its own obs::Registry: engines sharing a registry
// share metric series, so isolated registries keep the exact-count
// assertions below valid regardless of what other tests in this process do.
std::uint64_t stat_count(const QueryEngine& engine, QueryType type) {
  return engine.stats()[static_cast<std::size_t>(type)].count;
}

// A metrics registry plus a SnapshotRegistry with one installed epoch —
// the minimum serving state the handlers need.
struct ServeRig {
  explicit ServeRig(std::size_t retention = 4) {
    SnapshotRegistryConfig config;
    config.retention = retention;
    snapshots.emplace(config, &metrics);
    EXPECT_TRUE(snapshots->install("seed", make_index()).ok());
  }

  obs::Registry metrics;
  std::optional<SnapshotRegistry> snapshots;
};

// --------------------------------------------------------- query engine --

TEST(QueryEngine, DirectQueriesMatchIndex) {
  obs::Registry registry;
  QueryEngine engine(make_index(), &registry);
  EXPECT_EQ(engine.relationship(Asn(1), Asn(3)), RelView::kCustomer);
  EXPECT_EQ(engine.rank(Asn(1)), 1u);
  EXPECT_EQ(engine.rank(Asn(99)), std::nullopt);
  EXPECT_EQ(engine.cone_size(Asn(1)), 4u);
  EXPECT_TRUE(engine.in_cone(Asn(1), Asn(4)));
  EXPECT_FALSE(engine.in_cone(Asn(1), Asn(6)));
  EXPECT_EQ(engine.providers(Asn(3)), asns({1, 2}));
  EXPECT_EQ(engine.customers(Asn(1)), asns({3, 5}));
  EXPECT_EQ(engine.peers(Asn(4)), asns({5}));
  const auto top = engine.top(2);
  ASSERT_EQ(top.size(), 2u);
  EXPECT_EQ(top[0].as, Asn(1));
  EXPECT_EQ(top[1].as, Asn(2));
  EXPECT_EQ(stat_count(engine, QueryType::kRank), 2u);
  EXPECT_EQ(stat_count(engine, QueryType::kNeighborSet), 3u);
}

TEST(QueryEngine, ConeIntersectionIsOrderInsensitive) {
  obs::Registry registry;
  QueryEngine engine(make_index(), &registry);
  const auto first = engine.cone_intersection(Asn(1), Asn(2));
  EXPECT_EQ(*first, asns({3, 4}));
  // Same pair again, both orders.
  EXPECT_EQ(*engine.cone_intersection(Asn(1), Asn(2)), asns({3, 4}));
  EXPECT_EQ(*engine.cone_intersection(Asn(2), Asn(1)), asns({3, 4}));
  EXPECT_EQ(stat_count(engine, QueryType::kConeIntersect), 3u);
  // Disjoint cones intersect to nothing.
  EXPECT_TRUE(engine.cone_intersection(Asn(5), Asn(6))->empty());
}

TEST(QueryEngine, PathToCliqueIsDeterministicBfs) {
  obs::Registry registry;
  QueryEngine engine(make_index(), &registry);
  // 4's only provider chain is 4 -> 3 -> {1,2}; lowest-ASN tiebreak picks 1.
  EXPECT_EQ(*engine.path_to_clique(Asn(4)), asns({4, 3, 1}));
  // A clique member is its own path.
  EXPECT_EQ(*engine.path_to_clique(Asn(1)), asns({1}));
  // 7 has no providers at all (sibling link only).
  EXPECT_TRUE(engine.path_to_clique(Asn(7))->empty());
  // Unknown AS: empty, not a throw.
  EXPECT_TRUE(engine.path_to_clique(Asn(99))->empty());
  // Second identical query: same answer.
  EXPECT_EQ(*engine.path_to_clique(Asn(4)), asns({4, 3, 1}));
}

TEST(QueryEngine, RenderStatsListsEveryQueryType) {
  obs::Registry registry;
  QueryEngine engine(make_index(), &registry);
  (void)engine.rank(Asn(1));
  const auto text = engine.render_stats();
  EXPECT_NE(text.find("rank"), std::string::npos);
  EXPECT_NE(text.find("cone_intersect"), std::string::npos);
}

TEST(QueryEngine, StatsWireFormatIsByteStable) {
  // The STATS response body is a wire format consumed by existing clients;
  // the registry-backed stats() must reproduce it byte for byte.
  obs::Registry registry;
  QueryEngine engine(make_index(), &registry);
  EXPECT_EQ(engine.render_stats(),
            "query_type count cache_hits avg_micros\n"
            "relationship 0 0 0\n"
            "rank 0 0 0\n"
            "cone_size 0 0 0\n"
            "cone 0 0 0\n"
            "in_cone 0 0 0\n"
            "neighbor_set 0 0 0\n"
            "top 0 0 0\n"
            "cone_intersect 0 0 0\n"
            "path_to_clique 0 0 0\n"
            "clique 0 0 0\n"
            "stats 0 0 0\n"
            "ping 0 0 0\n");
  (void)engine.rank(Asn(1));
  (void)engine.rank(Asn(2));
  const auto text = engine.render_stats();
  EXPECT_NE(text.find("\nrank 2 0 "), std::string::npos) << text;
}

TEST(QueryEngine, SnapshotIndexIsSharedNotCopied) {
  auto index =
      std::make_shared<const snapshot::SnapshotIndex>(make_index());
  obs::Registry registry_a;
  obs::Registry registry_b;
  QueryEngine a(index, &registry_a);
  QueryEngine b(index, &registry_b);
  EXPECT_EQ(a.index_ptr().get(), index.get());
  EXPECT_EQ(a.index_ptr().get(), b.index_ptr().get());
  EXPECT_EQ(a.rank(Asn(1)), b.rank(Asn(1)));
  // Metrics are per registry: a's query did not count against b.
  EXPECT_EQ(stat_count(a, QueryType::kRank), 1u);
  EXPECT_EQ(stat_count(b, QueryType::kRank), 1u);
}

TEST(QueryEngine, EnginesSharingARegistryShareSeries) {
  auto index =
      std::make_shared<const snapshot::SnapshotIndex>(make_index());
  obs::Registry registry;
  QueryEngine a(index, &registry);
  QueryEngine b(index, &registry);
  (void)a.rank(Asn(1));
  (void)b.rank(Asn(2));
  EXPECT_EQ(stat_count(a, QueryType::kRank), 2u);
  EXPECT_EQ(stat_count(b, QueryType::kRank), 2u);
}

// Four threads share one engine and split the derived queries between them:
// every (a, b) cone intersection over an operand set, and path_to_clique for
// every AS.  Each answer must equal the one a single-threaded engine gives.
// The only shared mutable state is the lazily built cone bitset
// (std::call_once) and the thread_local BFS scratch, so under TSan this is
// the engine's race check.  The operands are the 48 largest cones plus every
// 16th AS, so with the default bitset config the bitset, hybrid and sorted
// kernels all answer; the second run disables the bitset.
TEST(QueryEngine, ConcurrentDerivedQueriesMatchSerial) {
  auto params = topogen::GenParams::preset("medium");
  params.seed = 7;
  const auto truth = topogen::generate(params);
  const std::unordered_map<Asn, std::size_t> no_tdeg;
  const auto index = std::make_shared<const snapshot::SnapshotIndex>(
      snapshot::build_snapshot(truth.graph, no_tdeg,
                               core::recursive_cone(truth.graph), truth.clique));
  const auto ases = index->ases();
  std::vector<Asn> operands;
  for (const auto& entry : index->top(48)) operands.push_back(entry.as);
  for (std::size_t i = 0; i < ases.size(); i += 16) operands.push_back(ases[i]);
  const std::size_t n = operands.size();
  constexpr std::size_t kThreads = 4;

  for (const auto config : {core::ConeBitsetConfig{},
                            core::ConeBitsetConfig::disabled()}) {
    obs::Registry serial_registry;
    QueryEngine serial(index, &serial_registry, config);
    std::vector<std::vector<Asn>> want_intersect(n * n);
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j < n; ++j) {
        want_intersect[i * n + j] =
            *serial.cone_intersection(operands[i], operands[j]);
      }
    }
    std::vector<std::vector<Asn>> want_path(ases.size());
    for (std::size_t i = 0; i < ases.size(); ++i) {
      want_path[i] = *serial.path_to_clique(ases[i]);
    }

    obs::Registry shared_registry;
    QueryEngine shared(index, &shared_registry, config);
    std::atomic<std::size_t> mismatches{0};
    std::vector<std::thread> workers;
    for (std::size_t t = 0; t < kThreads; ++t) {
      workers.emplace_back([&, t] {
        for (std::size_t i = t; i < n; i += kThreads) {
          for (std::size_t j = 0; j < n; ++j) {
            if (*shared.cone_intersection(operands[i], operands[j]) !=
                want_intersect[i * n + j]) {
              ++mismatches;
            }
          }
        }
        for (std::size_t i = t; i < ases.size(); i += kThreads) {
          if (*shared.path_to_clique(ases[i]) != want_path[i]) ++mismatches;
        }
      });
    }
    for (auto& worker : workers) worker.join();
    EXPECT_EQ(mismatches.load(), 0u) << "min_cone_size " << config.min_cone_size;
    EXPECT_EQ(stat_count(shared, QueryType::kConeIntersect), n * n);
    EXPECT_EQ(stat_count(shared, QueryType::kPathToClique), ases.size());
    const auto kernel_calls = [&](const char* kernel) {
      return shared_registry
          .counter("asrankd_cone_kernel_total",
                   "Cone intersection/diff/membership queries by answering kernel",
                   {{"kernel", kernel}})
          .value();
    };
    if (config.min_cone_size == core::ConeBitsetConfig{}.min_cone_size) {
      EXPECT_GT(kernel_calls("bitset"), 0u);
      EXPECT_GT(kernel_calls("hybrid"), 0u);
    } else {
      EXPECT_EQ(kernel_calls("bitset"), 0u);
    }
    EXPECT_GT(kernel_calls("sorted"), 0u);
  }
}

// ------------------------------------------------------ snapshot registry --

TEST(SnapshotRegistry, InstallLookupAndEpochOrder) {
  obs::Registry metrics;
  SnapshotRegistry snapshots({}, &metrics);
  EXPECT_EQ(snapshots.current(), nullptr);
  EXPECT_EQ(snapshots.current_label(), "");
  EXPECT_EQ(snapshots.epoch_count(), 0u);

  ASSERT_TRUE(snapshots.install("a", make_index()).ok());
  ASSERT_NE(snapshots.current(), nullptr);
  EXPECT_EQ(snapshots.current_label(), "a");
  EXPECT_EQ(snapshots.epoch("a"), snapshots.current());
  EXPECT_EQ(snapshots.epoch("zzz"), nullptr);
  EXPECT_EQ(snapshots.reloads(), 0u);  // the first install is not a reload

  ASSERT_TRUE(snapshots.install("b", make_index_b()).ok());
  EXPECT_EQ(snapshots.current_label(), "b");
  EXPECT_EQ(snapshots.epochs(), (std::vector<std::string>{"b", "a"}));
  EXPECT_EQ(snapshots.reloads(), 1u);
  // The superseded epoch stays queryable.
  EXPECT_EQ(snapshots.epoch("a")->cone_size(Asn(1)), 4u);
  EXPECT_EQ(snapshots.current()->cone_size(Asn(1)), 3u);
}

TEST(SnapshotRegistry, ReinstallingALabelReplacesThatEpoch) {
  obs::Registry metrics;
  SnapshotRegistry snapshots({}, &metrics);
  ASSERT_TRUE(snapshots.install("cur", make_index()).ok());
  ASSERT_TRUE(snapshots.install("cur", make_index_b()).ok());
  EXPECT_EQ(snapshots.epoch_count(), 1u);
  EXPECT_EQ(snapshots.current()->cone_size(Asn(1)), 3u);
  EXPECT_EQ(snapshots.reloads(), 1u);
}

TEST(SnapshotRegistry, RetentionEvictsLeastRecentlyQueriedEpoch) {
  obs::Registry metrics;
  SnapshotRegistryConfig config;
  config.retention = 2;
  SnapshotRegistry snapshots(config, &metrics);
  ASSERT_TRUE(snapshots.install("a", make_index()).ok());
  ASSERT_TRUE(snapshots.install("b", make_index()).ok());
  // Touch "a" so "b" becomes the least-recently-queried non-current epoch.
  ASSERT_NE(snapshots.epoch("a"), nullptr);
  ASSERT_TRUE(snapshots.install("c", make_index()).ok());
  EXPECT_EQ(snapshots.epochs(), (std::vector<std::string>{"c", "a"}));
  EXPECT_EQ(snapshots.epoch("b"), nullptr);
}

TEST(SnapshotRegistry, InvalidLabelIsRejectedWithoutSideEffects) {
  obs::Registry metrics;
  SnapshotRegistry snapshots({}, &metrics);
  ASSERT_TRUE(snapshots.install("good", make_index()).ok());
  auto rejected = snapshots.install("bad label!", make_index());
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.error().code, ErrorCode::kInvalidArgument);
  EXPECT_EQ(snapshots.current_label(), "good");
  EXPECT_EQ(snapshots.epoch_count(), 1u);
  EXPECT_EQ(snapshots.reload_failures(), 1u);
  EXPECT_EQ(snapshots.reloads(), 0u);
}

TEST(SnapshotRegistry, FailedLoadLeavesServingStateUntouched) {
  obs::Registry metrics;
  SnapshotRegistry snapshots({}, &metrics);
  ASSERT_TRUE(snapshots.install("good", make_index()).ok());

  // Missing file.
  auto missing = snapshots.load_file(testing::TempDir() + "/no-such.asrk");
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.error().code, ErrorCode::kNotFound);

  // Garbage bytes: not an ASRK1 snapshot.
  const std::string corrupt_path = testing::TempDir() + "/corrupt-epoch.asrk";
  {
    std::ofstream out(corrupt_path, std::ios::binary);
    out << "this is not a snapshot";
  }
  auto corrupt = snapshots.load_file(corrupt_path);
  ASSERT_FALSE(corrupt.ok());

  EXPECT_EQ(snapshots.current_label(), "good");
  EXPECT_EQ(snapshots.epoch_count(), 1u);
  EXPECT_EQ(snapshots.reload_failures(), 2u);
  EXPECT_EQ(snapshots.reloads(), 0u);
  EXPECT_EQ(snapshots.current()->cone_size(Asn(1)), 4u);
}

TEST(SnapshotRegistry, LoadFileInstallsAndDerivesLabel) {
  const std::string path = testing::TempDir() + "/epoch-2013-04.asrk";
  snapshot::write_snapshot_file(make_index_b(), path);
  obs::Registry metrics;
  SnapshotRegistry snapshots({}, &metrics);
  auto loaded = snapshots.load_file(path);
  ASSERT_TRUE(loaded.ok()) << loaded.error().context;
  EXPECT_EQ(snapshots.current_label(), "epoch-2013-04");
  EXPECT_EQ(loaded.value().label, "epoch-2013-04");
  EXPECT_EQ(loaded.value().engine->cone_size(Asn(1)), 3u);
  // Explicit label wins over derivation.
  ASSERT_TRUE(snapshots.load_file(path, "named").ok());
  EXPECT_EQ(snapshots.current_label(), "named");
}

TEST(SnapshotRegistry, DerivedLabelCollisionsDeduplicateWithSuffix) {
  const std::string path = testing::TempDir() + "/dup-epoch.asrk";
  snapshot::write_snapshot_file(make_index_b(), path);
  obs::Registry metrics;
  SnapshotRegistryConfig config;
  config.retention = 8;
  SnapshotRegistry snapshots(config, &metrics);

  // Same file loaded three times with no explicit label: each vintage stays
  // resident under a suffixed name instead of clobbering the previous one.
  auto first = snapshots.load_file(path);
  ASSERT_TRUE(first.ok()) << first.error().context;
  EXPECT_EQ(first.value().label, "dup-epoch");
  auto second = snapshots.load_file(path);
  ASSERT_TRUE(second.ok()) << second.error().context;
  EXPECT_EQ(second.value().label, "dup-epoch-2");
  auto third = snapshots.load_file(path);
  ASSERT_TRUE(third.ok()) << third.error().context;
  EXPECT_EQ(third.value().label, "dup-epoch-3");

  EXPECT_EQ(snapshots.epoch_count(), 3u);
  EXPECT_EQ(snapshots.current_label(), "dup-epoch-3");
  EXPECT_NE(snapshots.epoch("dup-epoch"), nullptr);
  EXPECT_NE(snapshots.epoch("dup-epoch-2"), nullptr);

  // An explicit label keeps replace semantics even when it collides.
  ASSERT_TRUE(snapshots.load_file(path, "dup-epoch").ok());
  EXPECT_EQ(snapshots.epoch_count(), 3u);
  EXPECT_EQ(snapshots.current_label(), "dup-epoch");

  // The suffix trims the stem when the 64-char label cap would overflow.
  const std::string long_stem(64, 'x');
  const std::string long_path = testing::TempDir() + "/" + long_stem + ".asrk";
  snapshot::write_snapshot_file(make_index(), long_path);
  auto long_first = snapshots.load_file(long_path);
  ASSERT_TRUE(long_first.ok()) << long_first.error().context;
  EXPECT_EQ(long_first.value().label, long_stem);
  auto long_second = snapshots.load_file(long_path);
  ASSERT_TRUE(long_second.ok()) << long_second.error().context;
  EXPECT_EQ(long_second.value().label, long_stem.substr(0, 62) + "-2");
  EXPECT_EQ(long_second.value().label.size(), 64u);

  std::remove(path.c_str());
  std::remove(long_path.c_str());
}

TEST(SnapshotRegistry, LabelValidationAndDerivation) {
  EXPECT_TRUE(SnapshotRegistry::valid_label("2013-04"));
  EXPECT_TRUE(SnapshotRegistry::valid_label("rib.20260801:v2_x"));
  EXPECT_FALSE(SnapshotRegistry::valid_label(""));
  EXPECT_FALSE(SnapshotRegistry::valid_label("has space"));
  EXPECT_FALSE(SnapshotRegistry::valid_label(std::string(65, 'a')));

  auto derived = SnapshotRegistry::derive_label("/data/runs/2013-04.asrk");
  ASSERT_TRUE(derived.ok());
  EXPECT_EQ(derived.value(), "2013-04");
  EXPECT_EQ(SnapshotRegistry::derive_label("plain").value(), "plain");
  EXPECT_FALSE(SnapshotRegistry::derive_label("/x/bad name.asrk").ok());
}

// ------------------------------------------------- sans-socket handlers --

TEST(Handlers, TextCommands) {
  ServeRig rig;
  auto& snapshots = *rig.snapshots;
  EXPECT_EQ(handle_text_request(snapshots, "PING"), "OK pong");
  EXPECT_EQ(handle_text_request(snapshots, "rel 1 3"), "OK customer");
  EXPECT_EQ(handle_text_request(snapshots, "rel 3 1"), "OK provider");
  EXPECT_EQ(handle_text_request(snapshots, "rel 1 4"), "OK none");
  EXPECT_EQ(handle_text_request(snapshots, "rank 1"), "OK 1");
  EXPECT_EQ(handle_text_request(snapshots, "conesize 1"), "OK 4");
  EXPECT_EQ(handle_text_request(snapshots, "cone 3"), "OK 3 4");
  EXPECT_EQ(handle_text_request(snapshots, "incone 1 4"), "OK yes");
  EXPECT_EQ(handle_text_request(snapshots, "incone 1 6"), "OK no");
  EXPECT_EQ(handle_text_request(snapshots, "providers 3"), "OK 1 2");
  EXPECT_EQ(handle_text_request(snapshots, "intersect 1 2"), "OK 3 4");
  EXPECT_EQ(handle_text_request(snapshots, "cliquepath 4"), "OK 4 3 1");
  EXPECT_EQ(handle_text_request(snapshots, "clique"), "OK 1 2");
  EXPECT_TRUE(handle_text_request(snapshots, "stats").starts_with("OK\n"));
  EXPECT_TRUE(handle_text_request(snapshots, "stats").ends_with("."));
}

TEST(Handlers, MetricsTextCommandServesPrometheus) {
  ServeRig rig;
  (void)rig.snapshots->current()->rank(Asn(1));
  const auto response = handle_text_request(*rig.snapshots, "metrics");
  EXPECT_TRUE(response.starts_with("OK\n")) << response;
  EXPECT_TRUE(response.ends_with(".")) << response;
  EXPECT_NE(response.find("# TYPE asrankd_query_latency_micros histogram"),
            std::string::npos);
  EXPECT_NE(response.find("asrankd_queries_total 1\n"), std::string::npos);
  EXPECT_NE(response.find("asrankd_metrics_requests_total"), std::string::npos);
  // Registry-level series are exported through the same registry.
  EXPECT_NE(response.find("asrankd_epochs_loaded 1\n"), std::string::npos);
}

TEST(Handlers, MetricsOpcodeServesPrometheus) {
  ServeRig rig;
  (void)rig.snapshots->current()->rank(Asn(1));
  const auto response = handle_binary_request(
      *rig.snapshots,
      std::vector<std::uint8_t>{static_cast<std::uint8_t>(Op::kMetrics)});
  ASSERT_FALSE(response.empty());
  EXPECT_EQ(response[0], static_cast<std::uint8_t>(Status::kOk));
  const std::string body(response.begin() + 1, response.end());
  EXPECT_NE(
      body.find("asrankd_query_latency_micros_count{type=\"rank\"} 1\n"),
      std::string::npos);
  EXPECT_NE(body.find("asrankd_query_latency_micros_bucket{type=\"rank\",le=\"+Inf\"} 1\n"),
            std::string::npos);
}

TEST(Handlers, TextErrorsNameTheProblem) {
  ServeRig rig;
  auto& snapshots = *rig.snapshots;
  EXPECT_EQ(handle_text_request(snapshots, "rel 1"), "ERR usage: REL <asn> <asn>");
  EXPECT_EQ(handle_text_request(snapshots, "rank notanasn"),
            "ERR usage: RANK <asn>");
  const auto unknown = handle_text_request(snapshots, "frobnicate 1");
  EXPECT_TRUE(unknown.starts_with("ERR unknown command 'frobnicate'")) << unknown;
  EXPECT_TRUE(handle_text_request(snapshots, "   ").starts_with("ERR"));
}

TEST(Handlers, BinaryRejectsMalformedRequests) {
  ServeRig rig;
  auto& snapshots = *rig.snapshots;
  // Unknown opcode.
  auto response =
      handle_binary_request(snapshots, std::vector<std::uint8_t>{0x7F});
  ASSERT_FALSE(response.empty());
  EXPECT_EQ(response[0], static_cast<std::uint8_t>(Status::kError));
  // Truncated operand (kRank wants a u32).
  response = handle_binary_request(
      snapshots, std::vector<std::uint8_t>{static_cast<std::uint8_t>(Op::kRank), 1});
  EXPECT_EQ(response[0], static_cast<std::uint8_t>(Status::kError));
  // Trailing junk after a complete request.
  response = handle_binary_request(
      snapshots, std::vector<std::uint8_t>{static_cast<std::uint8_t>(Op::kPing), 0});
  EXPECT_EQ(response[0], static_cast<std::uint8_t>(Status::kError));
  // Empty payload.
  response = handle_binary_request(snapshots, std::vector<std::uint8_t>{});
  EXPECT_EQ(response[0], static_cast<std::uint8_t>(Status::kError));
}

TEST(Handlers, QueriesWithoutASnapshotAreErrors) {
  obs::Registry metrics;
  SnapshotRegistry snapshots({}, &metrics);
  EXPECT_EQ(handle_text_request(snapshots, "rank 1"), "ERR no snapshot loaded");
  // PING and EPOCHS answer without an engine.
  EXPECT_EQ(handle_text_request(snapshots, "ping"), "OK pong");
  EXPECT_EQ(handle_text_request(snapshots, "epochs"), "OK");
}

TEST(Handlers, EpochScopedTextCommands) {
  ServeRig rig;
  auto& snapshots = *rig.snapshots;
  ASSERT_TRUE(snapshots.install("next", make_index_b()).ok());
  // Current epoch is now "next"; the old one answers via @seed.
  EXPECT_EQ(handle_text_request(snapshots, "conesize 1"), "OK 3");
  EXPECT_EQ(handle_text_request(snapshots, "@seed conesize 1"), "OK 4");
  EXPECT_EQ(handle_text_request(snapshots, "@next conesize 1"), "OK 3");
  EXPECT_EQ(handle_text_request(snapshots, "@zzz conesize 1"),
            "ERR unknown epoch or algorithm 'zzz'");
  EXPECT_EQ(handle_text_request(snapshots, "@seed"),
            "ERR usage: @<epoch|algorithm> <command>");
}

TEST(Handlers, TextEpochsConediffAndReload) {
  ServeRig rig;
  auto& snapshots = *rig.snapshots;
  ASSERT_TRUE(snapshots.install("next", make_index_b()).ok());
  EXPECT_EQ(handle_text_request(snapshots, "epochs"), "OK next seed");
  // cone(1): seed {1,3,4,5} -> next {1,3,8}: +8, -4, -5.
  EXPECT_EQ(handle_text_request(snapshots, "conediff 1 seed next"),
            "OK +8 -4 -5");
  EXPECT_EQ(handle_text_request(snapshots, "conediff 1 seed zzz"),
            "ERR unknown epoch 'zzz'");
  EXPECT_EQ(handle_text_request(snapshots, "conediff x seed next"),
            "ERR usage: CONEDIFF <asn> <epochA> <epochB>");

  const std::string path = testing::TempDir() + "/text-reload.asrk";
  snapshot::write_snapshot_file(make_index(), path);
  EXPECT_EQ(handle_text_request(snapshots, "reload " + path + " fresh"),
            "OK fresh 7");
  EXPECT_EQ(snapshots.current_label(), "fresh");
  EXPECT_TRUE(handle_text_request(snapshots, "reload /no/such.asrk")
                  .starts_with("ERR"));
  EXPECT_EQ(snapshots.current_label(), "fresh");
}

TEST(Handlers, ReloadIsDeniedForNonLocalPeers) {
  ServeRig rig;
  auto& snapshots = *rig.snapshots;
  EXPECT_EQ(handle_text_request(snapshots, "reload /tmp/x.asrk", /*local_peer=*/false),
            "ERR reload denied: not a local peer");

  WireWriter request;
  request.u8(static_cast<std::uint8_t>(Op::kReload));
  request.str16("/tmp/x.asrk");
  request.str16("");
  const auto response =
      handle_binary_request(snapshots, request.payload(), /*local_peer=*/false);
  ASSERT_FALSE(response.empty());
  EXPECT_EQ(response[0], static_cast<std::uint8_t>(Status::kError));
  const std::string text(response.begin() + 1, response.end());
  EXPECT_EQ(text, "reload denied: not a local peer");
  EXPECT_EQ(snapshots.reload_failures(), 0u);  // denied before any load
}

TEST(Handlers, BinaryEpochsConeDiffAndWithEpoch) {
  ServeRig rig;
  auto& snapshots = *rig.snapshots;
  ASSERT_TRUE(snapshots.install("next", make_index_b()).ok());

  // EPOCHS: u32 count + str16 labels, current first.
  auto response = handle_binary_request(
      snapshots, std::vector<std::uint8_t>{static_cast<std::uint8_t>(Op::kEpochs)});
  ASSERT_EQ(response[0], static_cast<std::uint8_t>(Status::kOk));
  {
    WireReader reader(std::span<const std::uint8_t>(response).subspan(1));
    ASSERT_EQ(reader.u32().value(), 2u);
    EXPECT_EQ(reader.str16().value(), "next");
    EXPECT_EQ(reader.str16().value(), "seed");
    EXPECT_TRUE(reader.done());
  }

  // CONE_DIFF: added list then removed list.
  WireWriter diff_req;
  diff_req.u8(static_cast<std::uint8_t>(Op::kConeDiff));
  diff_req.u32(1);
  diff_req.str16("seed");
  diff_req.str16("next");
  response = handle_binary_request(snapshots, diff_req.payload());
  ASSERT_EQ(response[0], static_cast<std::uint8_t>(Status::kOk));
  {
    WireReader reader(std::span<const std::uint8_t>(response).subspan(1));
    ASSERT_EQ(reader.u32().value(), 1u);  // added
    EXPECT_EQ(reader.u32().value(), 8u);
    ASSERT_EQ(reader.u32().value(), 2u);  // removed
    EXPECT_EQ(reader.u32().value(), 4u);
    EXPECT_EQ(reader.u32().value(), 5u);
    EXPECT_TRUE(reader.done());
  }

  // WITH_EPOCH wraps an engine-scoped request.
  WireWriter scoped;
  scoped.u8(static_cast<std::uint8_t>(Op::kWithEpoch));
  scoped.str16("seed");
  scoped.u8(static_cast<std::uint8_t>(Op::kConeSize));
  scoped.u32(1);
  response = handle_binary_request(snapshots, scoped.payload());
  ASSERT_EQ(response[0], static_cast<std::uint8_t>(Status::kOk));
  {
    WireReader reader(std::span<const std::uint8_t>(response).subspan(1));
    EXPECT_EQ(reader.u64().value(), 4u);
  }

  // WITH_EPOCH with an unknown label fails with the typed message.
  WireWriter unknown;
  unknown.u8(static_cast<std::uint8_t>(Op::kWithEpoch));
  unknown.str16("zzz");
  unknown.u8(static_cast<std::uint8_t>(Op::kPing));
  response = handle_binary_request(snapshots, unknown.payload());
  ASSERT_EQ(response[0], static_cast<std::uint8_t>(Status::kError));
  EXPECT_EQ(std::string(response.begin() + 1, response.end()),
            "unknown epoch 'zzz'");

  // Registry ops cannot nest inside WITH_EPOCH.
  WireWriter nested;
  nested.u8(static_cast<std::uint8_t>(Op::kWithEpoch));
  nested.str16("seed");
  nested.u8(static_cast<std::uint8_t>(Op::kEpochs));
  response = handle_binary_request(snapshots, nested.payload());
  EXPECT_EQ(response[0], static_cast<std::uint8_t>(Status::kError));
}

// ------------------------------------------------- algorithm selectors --

TEST(Handlers, AlgoScopedTextCommands) {
  ServeRig rig;
  auto& snapshots = *rig.snapshots;
  ASSERT_TRUE(snapshots.install("multi", make_multi_index()).ok());

  // ALGOS lists the current (or @epoch-scoped) epoch's sections in slot order.
  EXPECT_EQ(handle_text_request(snapshots, "algos"), "OK asrank gao2001");
  EXPECT_EQ(handle_text_request(snapshots, "algorithms"), "OK asrank gao2001");
  EXPECT_EQ(handle_text_request(snapshots, "@seed algos"), "OK asrank");

  // @<algorithm> scopes engine commands to that section of the current epoch.
  EXPECT_EQ(handle_text_request(snapshots, "conesize 1"), "OK 4");
  EXPECT_EQ(handle_text_request(snapshots, "@asrank conesize 1"), "OK 4");
  EXPECT_EQ(handle_text_request(snapshots, "@gao2001 conesize 1"), "OK 3");
  EXPECT_EQ(handle_text_request(snapshots, "@gao2001 rel 4 5"), "OK provider");
  EXPECT_EQ(handle_text_request(snapshots, "@gao2001 rel 1 5"), "OK none");

  // Epoch and algorithm selectors combine, epoch first.
  EXPECT_EQ(handle_text_request(snapshots, "@multi @gao2001 conesize 1"), "OK 3");
  EXPECT_EQ(handle_text_request(snapshots, "@gao2001 @asrank conesize 1"),
            "ERR at most one @<algorithm> selector");
  EXPECT_EQ(handle_text_request(snapshots, "@seed @gao2001 conesize 1"),
            "ERR unknown algorithm 'gao2001' (epoch 'seed' carries: asrank)");
}

TEST(Handlers, DisagreeTextCommand) {
  ServeRig rig;
  auto& snapshots = *rig.snapshots;
  ASSERT_TRUE(snapshots.install("multi", make_multi_index()).ok());

  // Exact row format: ascending (a, b), rels from a's perspective, "none"
  // when that algorithm has no such link.
  EXPECT_EQ(handle_text_request(snapshots, "disagree asrank gao2001"),
            "OK 2 1:5:customer:none 4:5:peer:provider");
  // Swapping the operands swaps the per-row perspective, not the order.
  EXPECT_EQ(handle_text_request(snapshots, "disagree gao2001 asrank"),
            "OK 2 1:5:none:customer 4:5:provider:peer");
  // A limit truncates rows but the total stays exact.
  EXPECT_EQ(handle_text_request(snapshots, "disagree asrank gao2001 1"),
            "OK 2 1:5:customer:none");
  // An algorithm never disagrees with itself.
  EXPECT_EQ(handle_text_request(snapshots, "disagree asrank asrank"), "OK 0");

  const auto unknown = handle_text_request(snapshots, "disagree asrank nope");
  EXPECT_TRUE(unknown.starts_with("ERR unknown algorithm 'nope'")) << unknown;
  EXPECT_EQ(handle_text_request(snapshots, "@seed disagree asrank gao2001"),
            "ERR unknown algorithm 'gao2001' (epoch 'seed' carries: asrank)");
  EXPECT_EQ(handle_text_request(snapshots, "disagree asrank"),
            "ERR usage: DISAGREE <algoA> <algoB> [limit]");
  EXPECT_EQ(handle_text_request(snapshots, "disagree asrank gao2001 x"),
            "ERR usage: DISAGREE <algoA> <algoB> [limit]");
}

TEST(Handlers, BinaryDisagreeWireBytes) {
  ServeRig rig;
  auto& snapshots = *rig.snapshots;
  ASSERT_TRUE(snapshots.install("multi", make_multi_index()).ok());

  const auto customer = static_cast<std::uint8_t>(RelView::kCustomer);
  const auto provider = static_cast<std::uint8_t>(RelView::kProvider);
  const auto peer = static_cast<std::uint8_t>(RelView::kPeer);

  WireWriter req;
  req.u8(static_cast<std::uint8_t>(Op::kDisagree));
  req.str16("asrank");
  req.str16("gao2001");
  req.u32(0);
  const auto response = handle_binary_request(snapshots, req.payload());

  WireWriter body;
  body.u32(2);  // total
  body.u32(2);  // returned
  body.u32(1); body.u32(5); body.u8(customer); body.u8(kRelNone);
  body.u32(4); body.u32(5); body.u8(peer); body.u8(provider);
  std::vector<std::uint8_t> expected{static_cast<std::uint8_t>(Status::kOk)};
  const auto bytes = body.take();
  expected.insert(expected.end(), bytes.begin(), bytes.end());
  EXPECT_EQ(response, expected);

  // limit=1 truncates the rows; the total stays exact.
  WireWriter limited;
  limited.u8(static_cast<std::uint8_t>(Op::kDisagree));
  limited.str16("asrank");
  limited.str16("gao2001");
  limited.u32(1);
  const auto truncated = handle_binary_request(snapshots, limited.payload());
  WireWriter limited_body;
  limited_body.u32(2);
  limited_body.u32(1);
  limited_body.u32(1); limited_body.u32(5);
  limited_body.u8(customer); limited_body.u8(kRelNone);
  std::vector<std::uint8_t> limited_expected{static_cast<std::uint8_t>(Status::kOk)};
  const auto limited_bytes = limited_body.take();
  limited_expected.insert(limited_expected.end(), limited_bytes.begin(),
                          limited_bytes.end());
  EXPECT_EQ(truncated, limited_expected);

  // Trailing bytes after the operands are a protocol error.
  WireWriter trailing;
  trailing.u8(static_cast<std::uint8_t>(Op::kDisagree));
  trailing.str16("asrank");
  trailing.str16("gao2001");
  trailing.u32(0);
  trailing.u8(0);
  EXPECT_EQ(handle_binary_request(snapshots, trailing.payload())[0],
            static_cast<std::uint8_t>(Status::kError));

  // An unknown algorithm reports the carried set.
  WireWriter unknown;
  unknown.u8(static_cast<std::uint8_t>(Op::kDisagree));
  unknown.str16("asrank");
  unknown.str16("zzz");
  unknown.u32(0);
  const auto error = handle_binary_request(snapshots, unknown.payload());
  ASSERT_EQ(error[0], static_cast<std::uint8_t>(Status::kError));
  EXPECT_EQ(std::string(error.begin() + 1, error.end()),
            "unknown algorithm 'zzz' (epoch 'multi' carries: asrank, gao2001)");
}

TEST(Handlers, BinaryWithAlgoWireBytes) {
  ServeRig rig;
  auto& snapshots = *rig.snapshots;
  ASSERT_TRUE(snapshots.install("multi", make_multi_index()).ok());

  const auto ok_u64 = [](std::uint64_t v) {
    WireWriter body;
    body.u64(v);
    std::vector<std::uint8_t> expected{static_cast<std::uint8_t>(Status::kOk)};
    const auto bytes = body.take();
    expected.insert(expected.end(), bytes.begin(), bytes.end());
    return expected;
  };

  // WITH_ALGO answers from the named section of the current epoch.
  WireWriter scoped;
  scoped.u8(static_cast<std::uint8_t>(Op::kWithAlgo));
  scoped.str16("gao2001");
  scoped.u8(static_cast<std::uint8_t>(Op::kConeSize));
  scoped.u32(1);
  EXPECT_EQ(handle_binary_request(snapshots, scoped.payload()), ok_u64(3));

  // And nests inside WITH_EPOCH (epoch outermost).
  WireWriter nested;
  nested.u8(static_cast<std::uint8_t>(Op::kWithEpoch));
  nested.str16("multi");
  nested.u8(static_cast<std::uint8_t>(Op::kWithAlgo));
  nested.str16("asrank");
  nested.u8(static_cast<std::uint8_t>(Op::kConeSize));
  nested.u32(1);
  EXPECT_EQ(handle_binary_request(snapshots, nested.payload()), ok_u64(4));

  // WITH_ALGO cannot nest inside itself.
  WireWriter doubled;
  doubled.u8(static_cast<std::uint8_t>(Op::kWithAlgo));
  doubled.str16("asrank");
  doubled.u8(static_cast<std::uint8_t>(Op::kWithAlgo));
  doubled.str16("gao2001");
  doubled.u8(static_cast<std::uint8_t>(Op::kPing));
  EXPECT_EQ(handle_binary_request(snapshots, doubled.payload())[0],
            static_cast<std::uint8_t>(Status::kError));

  // Unknown algorithm: stable "unknown algorithm" prefix (the client maps
  // it to kUnknownAlgorithm).
  WireWriter unknown;
  unknown.u8(static_cast<std::uint8_t>(Op::kWithAlgo));
  unknown.str16("zzz");
  unknown.u8(static_cast<std::uint8_t>(Op::kPing));
  const auto error = handle_binary_request(snapshots, unknown.payload());
  ASSERT_EQ(error[0], static_cast<std::uint8_t>(Status::kError));
  EXPECT_EQ(std::string(error.begin() + 1, error.end()),
            "unknown algorithm 'zzz' (epoch 'multi' carries: asrank, gao2001)");
}

// ------------------------------------------- bitset kernel regression --

// A rig whose engines use a chosen cone-bitset threshold; 0 = every cone
// gets a row, disabled() = sorted kernels only.
struct KernelRig {
  explicit KernelRig(core::ConeBitsetConfig cone_config) {
    SnapshotRegistryConfig config;
    config.cone_bitset = cone_config;
    snapshots.emplace(config, &metrics);
    EXPECT_TRUE(snapshots->install("seed", make_index()).ok());
    EXPECT_TRUE(snapshots->install("next", make_index_b()).ok());
  }

  obs::Registry metrics;
  std::optional<SnapshotRegistry> snapshots;
};

TEST(Handlers, WireBytesIdenticalAcrossConeKernels) {
  // The bitset kernels are an internal representation swap: every response
  // the server emits — text lines and binary frames — must be byte-identical
  // to the sorted-array build, for every cone-flavored command.
  KernelRig bitset({0});
  KernelRig sorted(core::ConeBitsetConfig::disabled());

  const std::vector<std::string> text_requests = {
      "intersect 1 2", "intersect 2 1", "intersect 5 6", "incone 1 4",
      "incone 1 6",    "incone 99 1",   "cone 1",        "cone 3",
      "conesize 1",    "conediff 1 seed next", "conediff 3 next seed",
      "conediff 99 seed next", "@seed intersect 1 2", "@seed incone 1 5",
  };
  for (const auto& request : text_requests) {
    EXPECT_EQ(handle_text_request(*bitset.snapshots, request),
              handle_text_request(*sorted.snapshots, request))
        << request;
  }

  const auto binary_pair = [&](Op op, std::uint32_t a, std::uint32_t b) {
    WireWriter request;
    request.u8(static_cast<std::uint8_t>(op));
    request.u32(a);
    request.u32(b);
    return request.payload();
  };
  for (std::uint32_t a : {1u, 2u, 5u, 99u}) {
    for (std::uint32_t b : {1u, 2u, 4u, 6u}) {
      EXPECT_EQ(handle_binary_request(*bitset.snapshots,
                                      binary_pair(Op::kConeIntersect, a, b)),
                handle_binary_request(*sorted.snapshots,
                                      binary_pair(Op::kConeIntersect, a, b)))
          << "INTERSECT " << a << " " << b;
      EXPECT_EQ(handle_binary_request(*bitset.snapshots,
                                      binary_pair(Op::kInCone, a, b)),
                handle_binary_request(*sorted.snapshots,
                                      binary_pair(Op::kInCone, a, b)))
          << "IN_CONE " << a << " " << b;
    }
  }

  WireWriter diff;
  diff.u8(static_cast<std::uint8_t>(Op::kConeDiff));
  diff.u32(1);
  diff.str16("seed");
  diff.str16("next");
  EXPECT_EQ(handle_binary_request(*bitset.snapshots, diff.payload()),
            handle_binary_request(*sorted.snapshots, diff.payload()));

  // The bitset rig actually used its fast kernels for the work above.
  EXPECT_GT(bitset.metrics
                .counter("asrankd_cone_kernel_total",
                         "Cone intersection/diff/membership queries by "
                         "answering kernel",
                         {{"kernel", "bitset"}})
                .value(),
            0u);
}

TEST(Handlers, StatsAndMetricsShapeUnchangedWithBitsetKernels) {
  // STATS is a byte-stable wire format; enabling the bitset kernels must
  // not change it (same query types, same counts).
  KernelRig bitset({0});
  KernelRig sorted(core::ConeBitsetConfig::disabled());
  for (auto* rig : {&bitset, &sorted}) {
    EXPECT_EQ(handle_text_request(*rig->snapshots, "intersect 1 2"), "OK 3 8");
    EXPECT_EQ(handle_text_request(*rig->snapshots, "incone 1 3"), "OK yes");
  }
  // Identical modulo the avg_micros column, which is wall time.
  const auto normalized_stats = [](const std::string& text) {
    std::string out;
    std::istringstream lines(text);
    std::string line;
    while (std::getline(lines, line)) {
      const auto last_space = line.find_last_of(' ');
      if (last_space != std::string::npos &&
          line.find_first_of("0123456789", last_space) != std::string::npos) {
        line.resize(last_space);
      }
      out += line;
      out += '\n';
    }
    return out;
  };
  EXPECT_EQ(normalized_stats(handle_text_request(*bitset.snapshots, "stats")),
            normalized_stats(handle_text_request(*sorted.snapshots, "stats")));

  // METRICS gains the kernel/bitset series but keeps every query series
  // intact and well-formed.
  const auto scrape = handle_text_request(*bitset.snapshots, "metrics");
  EXPECT_NE(scrape.find("asrankd_cone_kernel_total{kernel=\"bitset\"}"),
            std::string::npos);
  EXPECT_NE(scrape.find("asrankd_cone_bitset_rows"), std::string::npos);
  EXPECT_NE(scrape.find("asrankd_query_latency_micros_count{type=\"cone_intersect\"} 1\n"),
            std::string::npos);
}

TEST(SnapshotRegistry, LoadFileInstallsMmapBackedEpoch) {
  const std::string path = testing::TempDir() + "/mmap-epoch.asrk";
  snapshot::write_snapshot_file(make_index_b(), path);

  // Default config: zero-copy load.  The library-level mmap counter lives
  // in the process-global registry (snapshot loads predate any daemon).
  auto& mmap_loads = obs::Registry::global().counter(
      "asrank_snapshot_mmap_loads_total",
      "Snapshot indexes served zero-copy from an mmap'd file");
  const auto mmap_loads_before = mmap_loads.value();
  obs::Registry metrics;
  SnapshotRegistry snapshots({}, &metrics);
  auto loaded = snapshots.load_file(path, "zero-copy");
  ASSERT_TRUE(loaded.ok()) << loaded.error().context;
  EXPECT_TRUE(loaded.value().engine->index().mmap_backed());
  EXPECT_EQ(loaded.value().engine->cone_size(Asn(1)), 3u);
  EXPECT_EQ(mmap_loads.value(), mmap_loads_before + 1);

  // Opting out falls back to the heap parse, same answers.
  SnapshotRegistryConfig heap_config;
  heap_config.mmap_load = false;
  obs::Registry heap_metrics;
  SnapshotRegistry heap_snapshots(heap_config, &heap_metrics);
  auto heap_loaded = heap_snapshots.load_file(path, "heap");
  ASSERT_TRUE(heap_loaded.ok()) << heap_loaded.error().context;
  EXPECT_FALSE(heap_loaded.value().engine->index().mmap_backed());
  EXPECT_EQ(heap_loaded.value().engine->cone_size(Asn(1)),
            loaded.value().engine->cone_size(Asn(1)));

  // A reload over the running registry swaps in another mmap-backed epoch.
  snapshot::write_snapshot_file(make_index(), path);
  auto reloaded = snapshots.load_file(path, "zero-copy");
  ASSERT_TRUE(reloaded.ok());
  EXPECT_TRUE(reloaded.value().engine->index().mmap_backed());
  EXPECT_EQ(reloaded.value().engine->cone_size(Asn(1)), 4u);
  EXPECT_EQ(snapshots.reloads(), 1u);

  // The writer renamed a new file over the mapped path, so the epoch still
  // held from before the rewrite keeps answering from its own bytes.
  EXPECT_EQ(loaded.value().engine->index().cone_size(Asn(1)), 3u);
  EXPECT_EQ(loaded.value().engine->cone_size(Asn(1)), 3u);
  std::remove(path.c_str());
}

// --------------------------------------------------------- socket serve --

class ServeFixture : public testing::Test {
 protected:
  ServeFixture() : rig_(), server_(*rig_.snapshots, config()) {
    thread_ = std::thread([this] { server_.run(); });
  }

  ~ServeFixture() override {
    server_.stop();
    thread_.join();
  }

  static ServerConfig config() {
    ServerConfig config;
    config.port = 0;  // ephemeral
    config.threads = 2;
    return config;
  }

  ServeRig rig_;
  Server server_;
  std::thread thread_;
};

TEST_F(ServeFixture, SocketAnswersMatchBatchComputation) {
  Client client = Client::dial("127.0.0.1", server_.port()).value();
  const auto graph = make_graph();
  const auto cones = core::recursive_cone(graph);

  ASSERT_TRUE(client.try_ping().ok());
  for (const Asn as : graph.ases()) {
    const auto cone = cones.at(as);
    EXPECT_EQ(client.try_cone(as).value(), std::vector<Asn>(cone.begin(), cone.end()));
    EXPECT_EQ(client.try_cone_size(as).value(), cones.at(as).size());
    std::vector<Asn> providers(graph.providers(as).begin(),
                               graph.providers(as).end());
    std::sort(providers.begin(), providers.end());
    EXPECT_EQ(client.try_providers(as).value(), providers);
    for (const Asn other : graph.ases()) {
      EXPECT_EQ(client.try_relationship(as, other).value(), graph.view(as, other));
    }
  }
  EXPECT_EQ(client.try_clique().value(), asns({1, 2}));
  EXPECT_EQ(client.try_rank(Asn(1)).value(), 1u);
  EXPECT_EQ(client.try_rank(Asn(99)).value(), std::nullopt);
  EXPECT_EQ(client.try_cone_intersection(Asn(1), Asn(2)).value(), asns({3, 4}));
  EXPECT_EQ(client.try_path_to_clique(Asn(4)).value(), asns({4, 3, 1}));
  EXPECT_TRUE(client.try_in_cone(Asn(1), Asn(4)).value());

  const auto top = client.try_top(3).value();
  ASSERT_EQ(top.size(), 3u);
  EXPECT_EQ(top[0].as, Asn(1));
  EXPECT_EQ(top[0].cone_size, 4u);

  const auto stats = client.try_stats_text().value();
  EXPECT_NE(stats.find("relationship"), std::string::npos);
}

TEST_F(ServeFixture, ConcurrentClientsAreServed) {
  std::vector<std::thread> workers;
  std::atomic<int> failures{0};
  for (int w = 0; w < 4; ++w) {
    workers.emplace_back([this, &failures] {
      try {
        Client client = Client::dial("127.0.0.1", server_.port()).value();
        for (int i = 0; i < 25; ++i) {
          auto size = client.try_cone_size(Asn(1));
          if (!size.ok() || size.value() != 4) ++failures;
          auto rank = client.try_rank(Asn(2));
          if (!rank.ok() || rank.value() != 2u) ++failures;
        }
      } catch (const std::exception&) {
        ++failures;
      }
    });
  }
  for (auto& worker : workers) worker.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_GE(server_.connections_served(), 4u);
}

TEST_F(ServeFixture, TextModeOverSocket) {
  // Raw socket speaking the nc-style text protocol.
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(server_.port());
  ASSERT_EQ(::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
  ASSERT_EQ(::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr), 0);

  const std::string request = "rank 1\nquit\n";
  write_all(fd, request.data(), request.size());
  std::string response;
  char c = 0;
  while (read_exact(fd, &c, 1)) response.push_back(c);  // until server closes
  ::close(fd);
  EXPECT_EQ(response, "OK 1\n");
}

TEST_F(ServeFixture, MetricsScrapeOverSocket) {
  Client client = Client::dial("127.0.0.1", server_.port()).value();
  (void)client.try_rank(Asn(1));
  (void)client.try_rank(Asn(2));
  const auto text = client.try_metrics_text().value();
  // Valid Prometheus exposition with per-query-type latency histograms and
  // the daemon's own connection/frame counters.
  EXPECT_NE(text.find("# TYPE asrankd_query_latency_micros histogram\n"),
            std::string::npos);
  EXPECT_NE(text.find("asrankd_query_latency_micros_count{type=\"rank\"} 2\n"),
            std::string::npos);
  EXPECT_NE(text.find("asrankd_queries_total 2\n"), std::string::npos);
  EXPECT_NE(text.find("asrankd_connections_total 1\n"), std::string::npos);
  EXPECT_NE(text.find("asrankd_frames_total"), std::string::npos);
  EXPECT_NE(text.find("asrankd_metrics_requests_total 1\n"), std::string::npos);
}

TEST_F(ServeFixture, EpochAwareQueriesOverSocket) {
  ASSERT_TRUE(rig_.snapshots->install("next", make_index_b()).ok());
  Client client = Client::dial("127.0.0.1", server_.port()).value();

  auto epochs = client.try_epochs();
  ASSERT_TRUE(epochs.ok());
  EXPECT_EQ(epochs.value(), (std::vector<std::string>{"next", "seed"}));

  // Unqualified queries answer from the current epoch; qualified ones from
  // the named one.
  EXPECT_EQ(client.try_cone_size(Asn(1)).value(), 3u);
  EXPECT_EQ(client.try_cone_size(Asn(1), QueryScope{"seed", ""}).value(), 4u);
  EXPECT_EQ(client.try_rank(Asn(1), QueryScope{"seed", ""}).value(), 1u);

  auto diff = client.try_cone_diff(Asn(1), "seed", "next");
  ASSERT_TRUE(diff.ok());
  EXPECT_EQ(diff.value().added, asns({8}));
  EXPECT_EQ(diff.value().removed, asns({4, 5}));

  auto unknown = client.try_rank(Asn(1), QueryScope{"zzz", ""});
  ASSERT_FALSE(unknown.ok());
  EXPECT_EQ(unknown.error().code, ErrorCode::kUnknownEpoch);
  EXPECT_NE(unknown.error().context.find("unknown epoch 'zzz'"),
            std::string::npos);
}

TEST_F(ServeFixture, AlgorithmScopedQueriesOverSocket) {
  ASSERT_TRUE(rig_.snapshots->install("multi", make_multi_index()).ok());
  Client client = Client::dial("127.0.0.1", server_.port()).value();

  // Unscoped queries answer from the primary (asrank) section.
  EXPECT_EQ(client.try_cone_size(Asn(1)).value(), 4u);

  // A scoped algorithm wraps every engine query in WITH_ALGO...
  const QueryScope gao{"", "gao2001"};
  EXPECT_EQ(client.try_cone_size(Asn(1), gao).value(), 3u);
  EXPECT_EQ(client.try_relationship(Asn(4), Asn(5), gao).value(), RelView::kProvider);
  EXPECT_EQ(client.try_relationship(Asn(1), Asn(5), gao).value(), std::nullopt);
  // ...nesting inside WITH_EPOCH when an epoch is also named.
  EXPECT_EQ(client.try_cone_size(Asn(1), QueryScope{"multi", "gao2001"}).value(), 3u);

  // An algorithm the named epoch lacks surfaces on the Result rail as
  // kUnknownAlgorithm, per query.
  auto missing = client.try_rank(Asn(1), QueryScope{"seed", "gao2001"});
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.error().code, ErrorCode::kUnknownAlgorithm);

  auto unknown = client.try_cone_size(Asn(1), QueryScope{"", "tor-local-search"});
  ASSERT_FALSE(unknown.ok());
  EXPECT_EQ(unknown.error().code, ErrorCode::kUnknownAlgorithm);
  EXPECT_NE(unknown.error().context.find("unknown algorithm 'tor-local-search'"),
            std::string::npos);

  // An empty algorithm is the server default.
  EXPECT_EQ(client.try_cone_size(Asn(1), QueryScope{}).value(), 4u);

  // DISAGREE round-trips the typed report.
  auto report = client.try_disagree("asrank", "gao2001");
  ASSERT_TRUE(report.ok()) << report.error().context;
  EXPECT_EQ(report.value().total, 2u);
  ASSERT_EQ(report.value().rows.size(), 2u);
  EXPECT_EQ(report.value().rows[0],
            (Disagreement{Asn(1), Asn(5), RelView::kCustomer, std::nullopt}));
  EXPECT_EQ(report.value().rows[1],
            (Disagreement{Asn(4), Asn(5), RelView::kPeer, RelView::kProvider}));
  auto limited = client.try_disagree("asrank", "gao2001", 1);
  ASSERT_TRUE(limited.ok());
  EXPECT_EQ(limited.value().total, 2u);
  EXPECT_EQ(limited.value().rows.size(), 1u);

  // Per-algorithm metric series appear alongside the aggregate ones.
  const auto text = client.try_metrics_text().value();
  EXPECT_NE(text.find("asrankd_algo_queries_total{algo=\"gao2001\"}"),
            std::string::npos);
  EXPECT_NE(text.find("asrankd_algo_selected_queries_total"), std::string::npos);
  EXPECT_NE(text.find("asrankd_disagreements_total 2\n"), std::string::npos);
}

TEST_F(ServeFixture, ReloadOverSocket) {
  const std::string path = testing::TempDir() + "/socket-reload.asrk";
  snapshot::write_snapshot_file(make_index_b(), path);
  Client client = Client::dial("127.0.0.1", server_.port()).value();

  auto info = client.try_reload(path);
  ASSERT_TRUE(info.ok()) << info.error().context;
  EXPECT_EQ(info.value().label, "socket-reload");
  EXPECT_EQ(info.value().ases, 6u);
  EXPECT_EQ(rig_.snapshots->reloads(), 1u);
  EXPECT_EQ(rig_.snapshots->current_label(), "socket-reload");

  // A failed reload reports the error and leaves the serving epoch alone.
  auto bad = client.try_reload(testing::TempDir() + "/missing.asrk");
  ASSERT_FALSE(bad.ok());
  EXPECT_TRUE(bad.error().context.find("server error:") != std::string::npos);
  EXPECT_EQ(rig_.snapshots->current_label(), "socket-reload");
  EXPECT_GE(rig_.snapshots->reload_failures(), 1u);
}

TEST(Server, StopBeforeRunReturnsImmediately) {
  ServeRig rig;
  ServerConfig config;
  config.port = 0;
  config.threads = 1;
  Server server(*rig.snapshots, config);
  server.stop();
  server.run();  // must observe the queued stop and return
  EXPECT_EQ(server.connections_served(), 0u);
}

TEST(Server, GracefulShutdownWithIdleClientConnected) {
  ServeRig rig;
  ServerConfig config;
  config.port = 0;
  config.threads = 1;
  Server server(*rig.snapshots, config);
  std::thread thread([&server] { server.run(); });
  {
    // An idle keep-alive connection must not wedge shutdown.
    Client idle = Client::dial("127.0.0.1", server.port()).value();
    ASSERT_TRUE(idle.try_ping().ok());
    server.stop();
    thread.join();
  }
  EXPECT_EQ(server.connections_served(), 1u);
}

TEST(Server, RejectsBadListenAddress) {
  ServeRig rig;
  ServerConfig config;
  config.host = "not-an-address";
  EXPECT_THROW((Server{*rig.snapshots, config}), ProtocolError);
}

TEST(Server, PollTickDerivesFromIdleTimeout) {
  ServeRig rig;
  const auto tick_for = [&rig](int idle_timeout_ms) {
    ServerConfig config;
    config.port = 0;
    config.idle_timeout_ms = idle_timeout_ms;
    return Server(*rig.snapshots, config).poll_tick_ms();
  };
  EXPECT_EQ(tick_for(60000), 200);  // capped
  EXPECT_EQ(tick_for(40), 10);      // idle/4
  EXPECT_EQ(tick_for(8), 5);        // floored
  EXPECT_EQ(tick_for(0), 200);      // disabled -> default tick
}

TEST(Server, ShutdownWakesIdleWorkersWithinOneTick) {
  ServeRig rig;
  ServerConfig config;
  config.port = 0;
  config.threads = 2;
  Server server(*rig.snapshots, config);
  std::thread runner([&server] { server.run(); });
  Client idle = Client::dial("127.0.0.1", server.port()).value();
  ASSERT_TRUE(idle.try_ping().ok());  // the worker is now parked in its keep-alive poll

  const auto start = std::chrono::steady_clock::now();
  server.stop();
  runner.join();
  const auto elapsed_ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                              std::chrono::steady_clock::now() - start)
                              .count();
  // The reactor wake pipe wakes pollers immediately; without it the idle
  // worker would sleep out a full tick before noticing.
  EXPECT_LT(elapsed_ms, server.poll_tick_ms());
}

TEST(Server, SighupReloadsAndSigtermStopsWithinOneTick) {
  const std::string path = testing::TempDir() + "/sighup-epoch.asrk";
  snapshot::write_snapshot_file(make_index_b(), path);

  ServeRig rig;
  ServerConfig config;
  config.port = 0;
  config.threads = 1;
  config.reload_path = path;  // label derives to "sighup-epoch"
  Server server(*rig.snapshots, config);
  server.install_signal_handlers();
  std::thread runner([&server] { server.run(); });
  Client client = Client::dial("127.0.0.1", server.port()).value();
  ASSERT_TRUE(client.try_ping().ok());

  ::raise(SIGHUP);
  const auto reload_deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (rig.snapshots->reloads() < 1 &&
         std::chrono::steady_clock::now() < reload_deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  EXPECT_EQ(rig.snapshots->reloads(), 1u);
  EXPECT_EQ(rig.snapshots->current_label(), "sighup-epoch");
  // The reload swapped epochs under the live connection.
  EXPECT_EQ(client.try_cone_size(Asn(1)).value(), 3u);
  EXPECT_EQ(client.try_cone_size(Asn(1), QueryScope{"seed", ""}).value(), 4u);

  const auto start = std::chrono::steady_clock::now();
  ::raise(SIGTERM);
  runner.join();
  const auto elapsed_ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                              std::chrono::steady_clock::now() - start)
                              .count();
  EXPECT_LT(elapsed_ms, server.poll_tick_ms());
}

TEST(Server, ShedsConnectionsOverTheAdmissionLimit) {
  ServeRig rig;
  ServerConfig config;
  config.port = 0;
  config.threads = 2;
  config.max_connections = 1;
  Server server(*rig.snapshots, config);
  std::thread runner([&server] { server.run(); });

  Client first = Client::dial("127.0.0.1", server.port()).value();
  ASSERT_TRUE(first.try_ping().ok());  // occupies the single admission slot

  // A second connection gets the one-line shed notice and a close.  (The
  // client-side mapping of that line to ErrorCode::kShedding is covered by
  // the scripted-server retry test below, where the read/write order is
  // deterministic.)
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(server.port());
  ASSERT_EQ(::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
  ASSERT_EQ(::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr), 0);
  std::string notice;
  char c = 0;
  while (read_exact(fd, &c, 1)) notice.push_back(c);  // until the shed close
  ::close(fd);
  EXPECT_TRUE(notice.starts_with("ERR shedding")) << notice;
  EXPECT_TRUE(notice.ends_with("\n")) << notice;
  EXPECT_GE(rig.metrics
                .counter("asrankd_connections_shed_total",
                         "Connections refused at the admission limit")
                .value(),
            1u);

  server.stop();
  runner.join();
}

TEST(Server, IdleConnectionsAreClosedAndCounted) {
  ServeRig rig;
  ServerConfig config;
  config.port = 0;
  config.threads = 1;
  config.idle_timeout_ms = 40;  // tick = 10ms
  Server server(*rig.snapshots, config);
  std::thread runner([&server] { server.run(); });

  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(server.port());
  ASSERT_EQ(::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
  ASSERT_EQ(::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr), 0);

  // Send nothing: the server must close the connection on its own.
  const auto start = std::chrono::steady_clock::now();
  char byte = 0;
  const ssize_t n = ::read(fd, &byte, 1);
  const auto elapsed_ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                              std::chrono::steady_clock::now() - start)
                              .count();
  ::close(fd);
  EXPECT_EQ(n, 0);  // clean EOF from the server side
  EXPECT_LT(elapsed_ms, 2000);
  EXPECT_GE(rig.metrics
                .counter("asrankd_idle_timeouts_total",
                         "Connections closed after the idle timeout")
                .value(),
            1u);

  server.stop();
  runner.join();
}

TEST(Server, StalledRequestsHitTheReadDeadline) {
  ServeRig rig;
  ServerConfig config;
  config.port = 0;
  config.threads = 1;
  config.query_deadline_ms = 40;
  Server server(*rig.snapshots, config);
  std::thread runner([&server] { server.run(); });

  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(server.port());
  ASSERT_EQ(::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
  ASSERT_EQ(::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr), 0);

  // Start a binary frame but never send the length: the per-query deadline
  // must fire even though the connection is not idle.
  const std::uint8_t marker = kBinaryMarker;
  write_all(fd, &marker, 1);
  char byte = 0;
  const ssize_t n = ::read(fd, &byte, 1);
  ::close(fd);
  EXPECT_EQ(n, 0);
  EXPECT_GE(rig.metrics
                .counter("asrankd_deadline_timeouts_total",
                         "Connections closed when a request missed its read deadline")
                .value(),
            1u);

  server.stop();
  runner.join();
}

TEST(Server, AdmissionWakesAParkedWorkerWithinOneTick) {
  ServeRig rig;
  ServerConfig config;
  config.port = 0;
  config.threads = 1;
  config.idle_timeout_ms = 0;  // tick = 200ms
  Server server(*rig.snapshots, config);
  std::thread runner([&server] { server.run(); });
  Client idle = Client::dial("127.0.0.1", server.port()).value();
  ASSERT_TRUE(idle.try_ping().ok());  // the worker now parks in its keep-alive poll

  // A fresh connection is no reactor event of the parked worker: only the
  // acceptor's notify() wakes it to adopt the admission.
  for (int i = 0; i < 20; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));  // let it park again
    const auto start = std::chrono::steady_clock::now();
    Client fresh = Client::dial("127.0.0.1", server.port()).value();
    ASSERT_TRUE(fresh.try_ping().ok());
    const auto elapsed_ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                                std::chrono::steady_clock::now() - start)
                                .count();
    // A lost wakeup is adopted only when the parked worker's tick ends,
    // about a whole tick after the dial.
    EXPECT_LT(elapsed_ms, server.poll_tick_ms() / 2) << "dial " << i;
  }

  server.stop();
  runner.join();
}

TEST(Server, PeerResetsAreCountedAsExpectedCloses) {
  ServeRig rig;
  ServerConfig config;
  config.port = 0;
  config.threads = 1;
  Server server(*rig.snapshots, config);
  std::thread runner([&server] { server.run(); });
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(server.port());
  ASSERT_EQ(::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
  obs::Counter& resets = rig.metrics.counter(
      "asrankd_connections_closed_total", "Connections closed, by reason",
      {{"reason", "peer_reset"}});
  // Linger {1, 0}: close() sends RST instead of FIN.
  const auto reset_and_await = [&resets](int fd, std::uint64_t expected) {
    const linger reset{1, 0};
    ASSERT_EQ(::setsockopt(fd, SOL_SOCKET, SO_LINGER, &reset, sizeof reset), 0);
    ::close(fd);
    const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (resets.value() < expected && std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    EXPECT_EQ(resets.value(), expected);
  };
  const auto read_reply = [](int fd, std::string_view terminator) {
    std::string reply;
    char c = 0;
    while (!reply.ends_with(terminator) && read_exact(fd, &c, 1)) reply.push_back(c);
    return reply;
  };

  // An idle connection reset after a PING: the server's recv fails with
  // ECONNRESET.
  const int idle = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(idle, 0);
  ASSERT_EQ(::connect(idle, reinterpret_cast<const sockaddr*>(&addr), sizeof addr), 0);
  write_all(idle, "PING\n", 5);
  EXPECT_EQ(read_reply(idle, "\n"), "OK pong\n");
  reset_and_await(idle, 1);
  // A reset is still a socket error, as asrankd_protocol_errors_total counts.
  EXPECT_EQ(rig.metrics
                .counter("asrankd_protocol_errors_total",
                         "Connections dropped on framing or socket errors")
                .value(),
            1u);

  // A reset while the server owes more replies than the socket buffers
  // hold, after our FIN: its next send fails with EPIPE, which must be a
  // counted close, not a SIGPIPE that ends the process. A fixed small
  // receive buffer, set before connect so it also caps the window, leaves
  // the server only its own send buffer (at most 4 MiB by default).
  const int busy = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(busy, 0);
  const int rcvbuf = 64 << 10;
  ASSERT_EQ(::setsockopt(busy, SOL_SOCKET, SO_RCVBUF, &rcvbuf, sizeof rcvbuf), 0);
  ASSERT_EQ(::connect(busy, reinterpret_cast<const sockaddr*>(&addr), sizeof addr), 0);
  write_all(busy, "METRICS\n", 8);
  const std::size_t reply_size = read_reply(busy, "\n.\n").size();
  std::string pipeline;
  for (std::size_t owed = 0; owed < (std::size_t{8} << 20); owed += reply_size) {
    pipeline += "METRICS\n";
  }
  write_all(busy, pipeline.data(), pipeline.size());
  ASSERT_EQ(::shutdown(busy, SHUT_WR), 0);
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  reset_and_await(busy, 2);

  server.stop();
  runner.join();
}

TEST(Server, EveryCloseIsCountedOnceUnderItsReason) {
  ServeRig rig;
  ServerConfig config;
  config.port = 0;
  config.threads = 1;
  config.idle_timeout_ms = 500;  // long enough that no other close races it
  config.query_deadline_ms = 500;
  Server server(*rig.snapshots, config);
  std::thread runner([&server] { server.run(); });
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(server.port());
  ASSERT_EQ(::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
  const auto dial = [&addr] {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    EXPECT_GE(fd, 0);
    EXPECT_EQ(::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr), 0);
    return fd;
  };
  const auto ping = [](int fd) {
    write_all(fd, "PING\n", 5);
    std::string reply;
    char c = 0;
    while (!reply.ends_with("\n") && read_exact(fd, &c, 1)) reply.push_back(c);
    EXPECT_EQ(reply, "OK pong\n");
  };
  // Read until the server closes; then the close is already counted.
  const auto await_close = [](int fd) {
    char c = 0;
    while (read_exact(fd, &c, 1)) {
    }
    ::close(fd);
  };
  const std::array<const char*, 7> reasons = {
      "eof", "quit", "idle", "deadline", "shutdown", "peer_reset", "error"};
  const auto closed = [&rig](const char* reason) {
    return rig.metrics
        .counter("asrankd_connections_closed_total", "Connections closed, by reason",
                 {{"reason", reason}})
        .value();
  };

  // idle: sends nothing.  deadline: a binary marker and no length.  Both
  // run out while the closes below happen.
  const int idle = dial();
  const int stalled = dial();
  const std::uint8_t marker = kBinaryMarker;
  write_all(stalled, &marker, 1);

  // eof: our FIN after a reply.
  const int eof = dial();
  ping(eof);
  ASSERT_EQ(::shutdown(eof, SHUT_WR), 0);
  await_close(eof);
  // quit: the text command.
  const int quit = dial();
  ping(quit);
  write_all(quit, "QUIT\n", 5);
  await_close(quit);
  // error: a frame length past the limit.
  const int error = dial();
  const std::uint8_t oversized[] = {kBinaryMarker, 0xff, 0xff, 0xff, 0xff};
  write_all(error, oversized, sizeof oversized);
  await_close(error);
  // peer_reset: linger {1, 0} makes close() send RST.
  const int reset = dial();
  ping(reset);
  const linger rst{1, 0};
  ASSERT_EQ(::setsockopt(reset, SOL_SOCKET, SO_LINGER, &rst, sizeof rst), 0);
  ::close(reset);
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (closed("peer_reset") == 0 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  await_close(idle);
  await_close(stalled);

  // shutdown: still open when the server stops.
  const int open = dial();
  ping(open);
  server.stop();
  runner.join();
  await_close(open);

  std::uint64_t total = 0;
  for (const char* reason : reasons) {
    EXPECT_EQ(closed(reason), 1u) << reason;
    total += closed(reason);
  }
  EXPECT_EQ(total, rig.metrics.counter("asrankd_connections_total",
                                       "TCP connections accepted")
                       .value());
  EXPECT_EQ(total, 7u);
  EXPECT_EQ(rig.metrics
                .counter("asrankd_idle_timeouts_total",
                         "Connections closed after the idle timeout")
                .value(),
            1u);
  EXPECT_EQ(rig.metrics
                .counter("asrankd_deadline_timeouts_total",
                         "Connections closed when a request missed its read deadline")
                .value(),
            1u);
}

TEST(Server, ConcurrentReloadTorture) {
  // Reinstall the same epoch label with alternating indexes while clients
  // hammer queries: every answer must be internally consistent with one of
  // the two snapshots (cone(1) is 4 ASes in A, 3 in B), and nothing may
  // error or crash.
  ServeRig rig;
  ASSERT_TRUE(rig.snapshots->install("flip", make_index()).ok());
  ServerConfig config;
  config.port = 0;
  config.threads = 2;
  Server server(*rig.snapshots, config);
  std::thread runner([&server] { server.run(); });

  std::atomic<bool> done{false};
  std::atomic<int> failures{0};
  std::atomic<int> answers{0};

  std::vector<std::thread> clients;
  for (int w = 0; w < 2; ++w) {
    clients.emplace_back([&server, &done, &failures, &answers] {
      try {
        Client client = Client::dial("127.0.0.1", server.port()).value();
        while (!done.load(std::memory_order_relaxed)) {
          auto size = client.try_cone_size(Asn(1));
          if (!size.ok()) {
            ++failures;
            continue;
          }
          if (size.value() != 4 && size.value() != 3) ++failures;
          auto cone = client.try_cone(Asn(1), QueryScope{"flip", ""});
          if (!cone.ok()) {
            ++failures;
            continue;
          }
          if (cone.value() != asns({1, 3, 4, 5}) && cone.value() != asns({1, 3, 8})) {
            ++failures;
          }
          ++answers;
        }
      } catch (const std::exception&) {
        ++failures;
      }
    });
  }

  for (int i = 0; i < 40; ++i) {
    auto swapped = (i % 2 == 0) ? rig.snapshots->install("flip", make_index_b())
                                : rig.snapshots->install("flip", make_index());
    if (!swapped.ok()) ++failures;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  done.store(true);
  for (auto& client : clients) client.join();
  server.stop();
  runner.join();

  EXPECT_EQ(failures.load(), 0);
  EXPECT_GT(answers.load(), 0);
  EXPECT_EQ(rig.snapshots->reloads(), 41u);  // 40 flips + the initial reinstall
}

// ------------------------------------------------------- client backoff --

TEST(ClientBackoff, DelayIsDeterministicAndCapped) {
  util::Rng a(42);
  util::Rng b(42);
  for (int attempt = 0; attempt < 12; ++attempt) {
    const int x = backoff_delay_ms(attempt, 50, 2000, a);
    EXPECT_EQ(x, backoff_delay_ms(attempt, 50, 2000, b)) << attempt;
    const auto d = static_cast<int>(
        std::min<std::int64_t>(2000, std::int64_t{50} << std::min(attempt, 20)));
    EXPECT_GE(x, d / 2) << attempt;
    EXPECT_LE(x, d) << attempt;
  }
  // Absurd attempt counts saturate at the cap instead of overflowing.
  util::Rng c(1);
  for (int i = 0; i < 8; ++i) {
    const int x = backoff_delay_ms(1 << 30, 1, 30, c);
    EXPECT_GE(x, 15);
    EXPECT_LE(x, 30);
  }
}

namespace {

/// Bind a loopback listener on an ephemeral port.
int make_listener(std::uint16_t* port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = 0;
  EXPECT_EQ(::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
  EXPECT_EQ(::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr), 0);
  EXPECT_EQ(::listen(fd, 8), 0);
  sockaddr_in bound{};
  socklen_t len = sizeof bound;
  EXPECT_EQ(::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len), 0);
  *port = ntohs(bound.sin_port);
  return fd;
}

}  // namespace

TEST(Client, DialRefusedYieldsTypedError) {
  // Reserve an ephemeral port, then close the listener so nothing accepts.
  std::uint16_t port = 0;
  const int fd = make_listener(&port);
  ::close(fd);

  auto dialed = Client::dial("127.0.0.1", port);
  ASSERT_FALSE(dialed.ok());
  EXPECT_EQ(dialed.error().code, ErrorCode::kRefused);
  EXPECT_NE(dialed.error().context.find("connect 127.0.0.1:"),
            std::string::npos);
}

TEST(Client, RetriesThroughRefuseAndShedWithDeterministicBackoff) {
  std::uint16_t port = 0;
  const int listen_fd = make_listener(&port);

  // A scripted server: first exchange is cut off (client sees "refused"),
  // the second is shed, the third is answered.
  std::thread fake([listen_fd] {
    // Connection 1: read the request, then slam the connection shut.
    int c = ::accept(listen_fd, nullptr, nullptr);
    ASSERT_GE(c, 0);
    std::uint8_t marker = 0;
    ASSERT_TRUE(read_exact(c, &marker, 1));
    (void)read_frame_body(c);
    ::close(c);
    // Connection 2: admission-control shed notice.
    c = ::accept(listen_fd, nullptr, nullptr);
    ASSERT_GE(c, 0);
    ASSERT_TRUE(read_exact(c, &marker, 1));
    (void)read_frame_body(c);
    const std::string shed = "ERR shedding: connection limit reached, retry later\n";
    write_all(c, shed.data(), shed.size());
    ::close(c);
    // Connection 3: a real OK response to the ping.
    c = ::accept(listen_fd, nullptr, nullptr);
    ASSERT_GE(c, 0);
    ASSERT_TRUE(read_exact(c, &marker, 1));
    (void)read_frame_body(c);
    const std::vector<std::uint8_t> ok{static_cast<std::uint8_t>(Status::kOk)};
    write_frame(c, ok);
    ::close(c);
  });

  TransportConfig config;
  config.max_retries = 3;
  config.backoff_base_ms = 10;
  config.backoff_cap_ms = 40;
  config.backoff_seed = 7;
  std::vector<int> sleeps;
  config.sleep_ms = [&sleeps](int ms) { sleeps.push_back(ms); };  // no real wait

  auto dialed = Client::dial("127.0.0.1", port, config);
  ASSERT_TRUE(dialed.ok()) << dialed.error().context;
  Client client = std::move(dialed).value();
  EXPECT_TRUE(client.try_ping().ok());

  fake.join();
  ::close(listen_fd);

  // Two failures -> two backoff sleeps, reproducible from the seed.
  ASSERT_EQ(sleeps.size(), 2u);
  util::Rng expected_rng(config.backoff_seed);
  EXPECT_EQ(sleeps[0], backoff_delay_ms(0, 10, 40, expected_rng));
  EXPECT_EQ(sleeps[1], backoff_delay_ms(1, 10, 40, expected_rng));
}

TEST(Client, ReadDeadlineSurfacesTimeout) {
  std::uint16_t port = 0;
  const int listen_fd = make_listener(&port);

  std::atomic<bool> stop{false};
  std::thread fake([listen_fd, &stop] {
    const int c = ::accept(listen_fd, nullptr, nullptr);
    ASSERT_GE(c, 0);
    // Read the request, then stall until the client gives up.
    std::uint8_t marker = 0;
    ASSERT_TRUE(read_exact(c, &marker, 1));
    (void)read_frame_body(c);
    while (!stop.load()) std::this_thread::sleep_for(std::chrono::milliseconds(1));
    ::close(c);
  });

  TransportConfig config;
  config.io_timeout_ms = 50;
  auto dialed = Client::dial("127.0.0.1", port, config);
  ASSERT_TRUE(dialed.ok());
  Client client = std::move(dialed).value();
  auto response = client.try_ping();
  ASSERT_FALSE(response.ok());
  EXPECT_EQ(response.error().code, ErrorCode::kTimeout);

  stop.store(true);
  fake.join();
  ::close(listen_fd);
}


// ---------------------------------------------------- request counters --

TEST(RequestCounters, SeriesExistFromStartupAndCountOncePerRequest) {
  ServeRig rig;
  auto& snapshots = *rig.snapshots;
  const auto counter = [&rig](const char* name) {
    return rig.metrics.counter(name, "").value();
  };
  // Resolved at construction: the exposition lists them before first use.
  const auto scrape = handle_text_request(snapshots, "metrics");
  for (const char* name :
       {"asrankd_epoch_queries_total 0\n", "asrankd_algo_selected_queries_total 0\n",
        "asrankd_disagreements_total 0\n", "asrankd_cone_diffs_total 0\n"}) {
    EXPECT_NE(scrape.find(name), std::string::npos) << name;
  }
  EXPECT_EQ(counter("asrankd_metrics_requests_total"), 1u);

  ASSERT_TRUE(snapshots.install("multi", make_multi_index()).ok());
  EXPECT_EQ(handle_text_request(snapshots, "@seed conesize 1"), "OK 4");
  EXPECT_EQ(counter("asrankd_epoch_queries_total"), 1u);
  EXPECT_EQ(handle_text_request(snapshots, "@multi @gao2001 conesize 1"), "OK 3");
  EXPECT_EQ(counter("asrankd_epoch_queries_total"), 2u);
  EXPECT_EQ(counter("asrankd_algo_selected_queries_total"), 1u);
  // CONEDIFF looks up two epochs.
  EXPECT_EQ(handle_text_request(snapshots, "conediff 1 seed multi"), "OK");
  EXPECT_EQ(counter("asrankd_epoch_queries_total"), 4u);
  EXPECT_EQ(counter("asrankd_cone_diffs_total"), 1u);
  EXPECT_EQ(handle_text_request(snapshots, "disagree asrank gao2001 1"),
            "OK 2 1:5:customer:none");
  EXPECT_EQ(counter("asrankd_disagreements_total"), 1u);

  // PING is answered by the text rail itself: no engine stat moves.
  EXPECT_EQ(handle_text_request(snapshots, "@seed ping"), "OK pong");
  EXPECT_EQ(stat_count(*snapshots.current(), QueryType::kPing), 0u);
}

// ------------------------------------------------- client decoder fuzz --

// Every client-side decoder, fed a body: a value or a typed error, never an
// exception (and never a huge allocation from a hostile count).
void expect_typed_decode(std::span<const std::uint8_t> body, const std::string& what) {
  const auto typed = [&what](const auto& result) {
    if (!result.ok()) {
      const auto code = result.error().code;
      EXPECT_TRUE(code == ErrorCode::kTruncated || code == ErrorCode::kProtocol)
          << what << ": " << result.error().message();
    }
  };
  EXPECT_NO_THROW({
    typed(wire::decode_asn_list(body));
    typed(wire::decode_top(body));
    typed(wire::decode_labels(body));
    typed(wire::decode_cone_diff(body));
    typed(wire::decode_reload(body));
    typed(wire::decode_disagree(body));
    WireReader reader(body);
    typed(wire::read_asn_list(reader));
  }) << what;
}

TEST(ClientDecoderFuzz, HugeCountOnShortBodyIsTruncated) {
  const std::vector<std::uint8_t> huge{0xFF, 0xFF, 0xFF, 0xFF};
  const auto truncated = [](const auto& result) {
    return !result.ok() && result.error().code == ErrorCode::kTruncated;
  };
  EXPECT_TRUE(truncated(wire::decode_asn_list(huge)));
  EXPECT_TRUE(truncated(wire::decode_top(huge)));
  EXPECT_TRUE(truncated(wire::decode_labels(huge)));
  EXPECT_TRUE(truncated(wire::decode_cone_diff(huge)));
  WireReader reader(huge);
  EXPECT_TRUE(truncated(wire::read_asn_list(reader)));
  // DISAGREE: an honest total, then a hostile row count.
  const std::vector<std::uint8_t> rows{0, 0, 0, 0, 0xFF, 0xFF, 0xFF, 0xFF, 1, 0};
  EXPECT_TRUE(truncated(wire::decode_disagree(rows)));
  EXPECT_TRUE(truncated(wire::decode_disagree(huge)));
}

TEST(ClientDecoderFuzz, EveryPrefixAndByteFlipIsAValueOrATypedError) {
  std::vector<std::vector<std::uint8_t>> bodies;
  {
    WireWriter list;  // a 3-ASN list
    list.u32(3);
    for (std::uint32_t as : {1u, 3u, 4u}) list.u32(as);
    bodies.push_back(list.take());
    WireWriter top;  // two TOP entries
    top.u32(2);
    for (std::uint32_t r : {1u, 2u}) {
      top.u32(r);
      top.u32(r);
      top.u64(4);
      top.u32(3);
    }
    bodies.push_back(top.take());
    WireWriter labels;
    labels.u32(2);
    labels.str16("next");
    labels.str16("seed");
    bodies.push_back(labels.take());
    WireWriter diff;  // added {8}, removed {4, 5}
    diff.u32(1);
    diff.u32(8);
    diff.u32(2);
    diff.u32(4);
    diff.u32(5);
    bodies.push_back(diff.take());
    WireWriter reload;
    reload.str16("fresh");
    reload.u32(7);
    bodies.push_back(reload.take());
    WireWriter disagree;
    disagree.u32(2);
    disagree.u32(2);
    disagree.u32(1);
    disagree.u32(5);
    disagree.u8(static_cast<std::uint8_t>(RelView::kCustomer));
    disagree.u8(kRelNone);
    disagree.u32(4);
    disagree.u32(5);
    disagree.u8(static_cast<std::uint8_t>(RelView::kPeer));
    disagree.u8(static_cast<std::uint8_t>(RelView::kProvider));
    bodies.push_back(disagree.take());
  }
  for (std::size_t b = 0; b < bodies.size(); ++b) {
    const auto& body = bodies[b];
    for (std::size_t cut = 0; cut <= body.size(); ++cut) {
      expect_typed_decode(std::span(body).first(cut),
                          "body " + std::to_string(b) + " prefix " + std::to_string(cut));
    }
    for (std::size_t i = 0; i < body.size(); ++i) {
      for (const std::uint8_t mask : {std::uint8_t{0x01}, std::uint8_t{0x80}, std::uint8_t{0xFF}}) {
        auto flipped = body;
        flipped[i] ^= mask;
        expect_typed_decode(flipped, "body " + std::to_string(b) + " flip " +
                                         std::to_string(i) + "^" + std::to_string(mask));
      }
    }
  }
}

// ---------------------------------------------------- dispatcher fuzz --

// A rig with the seed epoch plus a two-algorithm current epoch, so every
// opcode (WITH_ALGO and DISAGREE included) has something to answer from.
struct FuzzRig : ServeRig {
  FuzzRig() { EXPECT_TRUE(snapshots->install("multi", make_multi_index()).ok()); }
};

std::vector<std::uint8_t> wrap(Op op, std::string_view label,
                               const std::vector<std::uint8_t>& inner) {
  WireWriter writer;
  writer.u8(static_cast<std::uint8_t>(op));
  writer.str16(label);
  writer.bytes(inner);
  return writer.take();
}

// One valid payload per opcode 1..22, plus nested scopes.
std::vector<std::vector<std::uint8_t>> valid_payloads() {
  const auto op1 = [](Op op, std::initializer_list<std::uint32_t> operands) {
    auto req = wire::request(op);
    for (const auto v : operands) req.u32(v);
    return req.take();
  };
  std::vector<std::vector<std::uint8_t>> out = {
      op1(Op::kRelationship, {4, 5}), op1(Op::kRank, {1}),
      op1(Op::kConeSize, {1}),        op1(Op::kCone, {1}),
      op1(Op::kInCone, {1, 4}),       op1(Op::kProviders, {3}),
      op1(Op::kCustomers, {1}),       op1(Op::kPeers, {4}),
      op1(Op::kTop, {3}),             op1(Op::kConeIntersect, {1, 2}),
      op1(Op::kPathToClique, {4}),    op1(Op::kClique, {}),
      op1(Op::kStats, {}),            op1(Op::kPing, {}),
      op1(Op::kMetrics, {}),          op1(Op::kEpochs, {}),
      op1(Op::kAlgos, {}),
  };
  auto diff = wire::request(Op::kConeDiff);
  diff.u32(1);
  diff.str16("seed");
  diff.str16("multi");
  out.push_back(diff.take());
  auto reload = wire::request(Op::kReload);
  reload.str16("/no/such/dir/x.asrk");
  reload.str16("x");
  out.push_back(reload.take());
  auto disagree = wire::request(Op::kDisagree);
  disagree.str16("asrank");
  disagree.str16("gao2001");
  disagree.u32(0);
  const auto disagree_payload = disagree.take();
  out.push_back(disagree_payload);
  out.push_back(wrap(Op::kWithEpoch, "seed", op1(Op::kConeSize, {1})));
  out.push_back(wrap(Op::kWithAlgo, "gao2001", op1(Op::kCone, {1})));
  // WITH_EPOCH(WITH_ALGO(op)), and the nestings the dispatcher refuses.
  out.push_back(wrap(Op::kWithEpoch, "multi",
                     wrap(Op::kWithAlgo, "gao2001", op1(Op::kRelationship, {4, 5}))));
  out.push_back(wrap(Op::kWithAlgo, "asrank", wrap(Op::kWithAlgo, "gao2001", op1(Op::kPing, {}))));
  out.push_back(wrap(Op::kWithEpoch, "seed", wrap(Op::kWithEpoch, "multi", op1(Op::kPing, {}))));
  out.push_back(wrap(Op::kWithEpoch, "multi", disagree_payload));
  out.push_back(wrap(Op::kWithEpoch, "multi", op1(Op::kAlgos, {})));
  return out;
}

void expect_status_byte(const std::vector<std::uint8_t>& response, const std::string& what) {
  ASSERT_FALSE(response.empty()) << what;
  EXPECT_LE(response[0], static_cast<std::uint8_t>(Status::kError)) << what;
}

TEST(DispatcherFuzz, EveryPrefixAndByteFlipOfEveryOpcodeAnswers) {
  FuzzRig rig;
  const auto payloads = valid_payloads();
  // Every opcode 1..22 appears as an outermost op.
  std::vector<bool> seen(23, false);
  for (const auto& payload : payloads) seen[payload[0]] = true;
  for (std::size_t op = 1; op <= 22; ++op) EXPECT_TRUE(seen[op]) << "opcode " << op;

  for (std::size_t p = 0; p < payloads.size(); ++p) {
    const auto& payload = payloads[p];
    const std::string name = "payload " + std::to_string(p);
    // RELOAD from a remote peer is refused before any file is touched, so
    // no flip can load a snapshot.
    const auto ask = [&rig](std::span<const std::uint8_t> bytes) {
      std::vector<std::uint8_t> response;
      EXPECT_NO_THROW(response = handle_binary_request(*rig.snapshots, bytes, false));
      return response;
    };
    expect_status_byte(ask(payload), name);
    for (std::size_t cut = 0; cut < payload.size(); ++cut) {
      const auto response = ask(std::span(payload).first(cut));
      ASSERT_FALSE(response.empty());
      EXPECT_EQ(response[0], static_cast<std::uint8_t>(Status::kError))
          << name << " prefix " << cut;
    }
    for (std::size_t i = 0; i < payload.size(); ++i) {
      for (const std::uint8_t value : {std::uint8_t{0x00}, std::uint8_t{0x01},
                                       std::uint8_t{0x13}, std::uint8_t{0x15},
                                       std::uint8_t{0x7F}, std::uint8_t{0xFF}}) {
        auto flipped = payload;
        flipped[i] = value;
        expect_status_byte(ask(flipped), name + " byte " + std::to_string(i) + "=" +
                                             std::to_string(value));
        flipped[i] = payload[i] ^ value;
        expect_status_byte(ask(flipped), name + " byte " + std::to_string(i) + "^" +
                                             std::to_string(value));
      }
    }
  }
  EXPECT_EQ(rig.snapshots->epoch_count(), 2u);
  EXPECT_EQ(rig.snapshots->reload_failures(), 0u);
}

TEST(DispatcherFuzz, Str16LengthsPastTheEndAreTruncated) {
  FuzzRig rig;
  const auto truncated = [&rig](const std::vector<std::uint8_t>& payload) {
    const auto response = handle_binary_request(*rig.snapshots, payload, false);
    return response.size() > 1 &&
           response[0] == static_cast<std::uint8_t>(Status::kError) &&
           std::string(response.begin() + 1, response.end()).starts_with("truncated payload");
  };
  for (const Op op : {Op::kWithEpoch, Op::kWithAlgo, Op::kDisagree, Op::kReload}) {
    for (const std::uint16_t len : {std::uint16_t{5}, std::uint16_t{0x100}, std::uint16_t{0xFFFF}}) {
      WireWriter writer;
      writer.u8(static_cast<std::uint8_t>(op));
      writer.u16(len);
      writer.text("seed");  // 4 bytes, shorter than every claimed length
      EXPECT_TRUE(truncated(writer.take()))
          << "op " << static_cast<int>(op) << " len " << len;
    }
  }
  // The second label of CONE_DIFF, and a nested WITH_ALGO label.
  auto diff = wire::request(Op::kConeDiff);
  diff.u32(1);
  diff.str16("seed");
  diff.u16(0xFFFF);
  EXPECT_TRUE(truncated(diff.take()));
  WireWriter nested;
  nested.u8(static_cast<std::uint8_t>(Op::kWithEpoch));
  nested.str16("multi");
  nested.u8(static_cast<std::uint8_t>(Op::kWithAlgo));
  nested.u16(0x4000);
  nested.text("gao2001");
  EXPECT_TRUE(truncated(nested.take()));
}

// ------------------------------------------- per-op client decoder fuzz --

/// `fn` applied to one query value of every op a wire_ops constructor builds.
template <typename Fn>
void for_each_query(const std::string& reload_path, Fn&& fn) {
  fn(wire::relationship(Asn(4), Asn(5)));
  fn(wire::rank(Asn(1)));
  fn(wire::cone_size(Asn(1)));
  fn(wire::cone(Asn(1)));
  fn(wire::in_cone(Asn(1), Asn(4)));
  fn(wire::providers(Asn(3)));
  fn(wire::customers(Asn(1)));
  fn(wire::peers(Asn(4)));
  fn(wire::top(3));
  fn(wire::cone_intersection(Asn(1), Asn(3)));
  fn(wire::path_to_clique(Asn(4)));
  fn(wire::clique());
  fn(wire::stats());
  fn(wire::ping());
  fn(wire::metrics());
  fn(wire::epochs());
  fn(wire::cone_diff(Asn(1), "seed", "multi"));
  fn(wire::disagree("asrank", "gao2001", 0));
  fn(wire::algos());
  fn(wire::reload(reload_path, "fresh"));  // last: it changes the current epoch
}

// Each op's own OK body, as the dispatcher answers its query, read by that
// op's decoder: the whole body decodes, and every prefix and byte flip is a
// value or a typed error, never an exception.
TEST(ClientDecoderFuzz, EveryOpsBodyThroughItsOwnDecoder) {
  FuzzRig rig;
  const std::string reload_path = testing::TempDir() + "/decoder-fuzz.asrk";
  snapshot::write_snapshot_file(make_index_b(), reload_path);
  std::vector<bool> seen(23, false);
  for_each_query(reload_path, [&rig, &seen](const auto& query) {
    const std::string name(wire::op_name(query.op));
    seen[static_cast<std::size_t>(query.op)] = true;
    const auto response = handle_binary_request(*rig.snapshots, query.payload, true);
    ASSERT_FALSE(response.empty()) << name;
    ASSERT_EQ(response[0], static_cast<std::uint8_t>(Status::kOk))
        << name << ": " << std::string(response.begin() + 1, response.end());
    const std::vector<std::uint8_t> body(response.begin() + 1, response.end());
    EXPECT_TRUE(query.decode(body).ok()) << name;
    const auto typed = [&query, &name](std::span<const std::uint8_t> bytes,
                                       const std::string& what) {
      EXPECT_NO_THROW({
        const auto result = query.decode(bytes);
        if (!result.ok()) {
          const auto code = result.error().code;
          EXPECT_TRUE(code == ErrorCode::kTruncated || code == ErrorCode::kProtocol)
              << name << " " << what << ": " << result.error().message();
        }
      }) << name << " " << what;
    };
    for (std::size_t cut = 0; cut < body.size(); ++cut) {
      typed(std::span(body).first(cut), "prefix " + std::to_string(cut));
    }
    for (std::size_t i = 0; i < body.size(); ++i) {
      for (const std::uint8_t mask : {std::uint8_t{0x01}, std::uint8_t{0x80}, std::uint8_t{0xFF}}) {
        auto flipped = body;
        flipped[i] ^= mask;
        typed(flipped, "flip " + std::to_string(i) + "^" + std::to_string(mask));
      }
    }
  });
  // Every opcode but the two scope wrappers is a query of its own.
  for (std::size_t op = 1; op <= 22; ++op) {
    const bool wrapper = op == static_cast<std::size_t>(Op::kWithEpoch) ||
                         op == static_cast<std::size_t>(Op::kWithAlgo);
    EXPECT_EQ(seen[op], !wrapper) << wire::op_name(static_cast<Op>(op));
  }
  std::remove(reload_path.c_str());
}

// ---------------------------------------------------- text line fuzz --

TEST(TextLineFuzz, EveryPrefixAndByteChangeAnswersOkOrErr) {
  FuzzRig rig;
  const std::vector<std::string> lines = {
      "ping", "help", "rel 4 5", "rank 1", "conesize 1", "cone 1", "incone 1 4",
      "providers 3", "customers 1", "peers 4", "top 3", "intersect 1 2",
      "cliquepath 4", "clique", "stats", "metrics", "epochs", "algos",
      "conediff 1 seed multi", "disagree asrank gao2001 1",
      "reload /no/such/dir/x.asrk x", "@seed conesize 1", "@gao2001 rel 4 5",
      "@multi @gao2001 cone 1", "@multi @gao2001 @asrank rank 1", "quit"};
  const auto check = [&rig](const std::string& line) {
    std::string reply;
    EXPECT_NO_THROW(reply = handle_text_request(*rig.snapshots, line, false)) << line;
    EXPECT_TRUE(reply.starts_with("OK") || reply.starts_with("ERR ")) << line << " -> " << reply;
  };
  for (const auto& line : lines) {
    for (std::size_t cut = 0; cut <= line.size(); ++cut) check(line.substr(0, cut));
    for (std::size_t i = 0; i < line.size(); ++i) {
      auto changed = line;
      changed[i] = static_cast<char>(line[i] ^ 0xFF);
      check(changed);
      if (i == 0) continue;  // a leading 0x01 is a binary frame, not a line
      for (const char c : {'\0', '\x01'}) {
        changed[i] = c;
        check(changed);
      }
    }
  }
  EXPECT_EQ(rig.snapshots->epoch_count(), 2u);
}

// ---------------------------------------------------- rail equivalence --

// Every text command, unscoped and under @epoch, @algorithm and both, must
// answer exactly what the Client call with the same QueryScope gets over the
// binary rail, rendered to text here independently of the server's renderer.

std::string list_text(const std::vector<Asn>& list) {
  std::string out = "OK ";
  for (std::size_t i = 0; i < list.size(); ++i) {
    if (i != 0) out += ' ';
    out += std::to_string(list[i].value());
  }
  return out;
}

std::string rel_word(const std::optional<RelView>& rel) {
  return rel ? std::string(to_string(*rel)) : "none";
}

template <typename T, typename Render>
std::string as_text(const Result<T>& result, Render render) {
  if (!result.ok()) {
    std::string context = result.error().context;
    const std::string prefix = "server error: ";
    if (context.starts_with(prefix)) context.erase(0, prefix.size());
    return "ERR " + context;
  }
  return render(result.value());
}

std::string words_text(const std::vector<std::string>& words) {
  std::string out = "OK";
  for (const auto& word : words) out += " " + word;
  return out;
}

/// First word of every line: the STATS rows, minus their moving counts.
std::string stats_shape(const std::string& text) {
  std::istringstream lines(text);
  std::string line;
  std::string out;
  while (std::getline(lines, line)) out += line.substr(0, line.find(' ')) + '\n';
  return out;
}

/// The "# TYPE" lines of a scrape: the metric families, minus their values.
std::string metric_families(const std::string& text) {
  std::istringstream lines(text);
  std::string line;
  std::string out;
  while (std::getline(lines, line)) {
    if (line.starts_with("# TYPE")) out += line + '\n';
  }
  return out;
}

class RailEquivalence : public ServeFixture {};

TEST_F(RailEquivalence, EveryTextCommandMatchesItsClientCall) {
  auto& snapshots = *rig_.snapshots;
  ASSERT_TRUE(snapshots.install("next", make_index_b()).ok());
  ASSERT_TRUE(snapshots.install("multi", make_multi_index()).ok());
  const std::string reload_path = testing::TempDir() + "/rail-multi.asrk";
  snapshot::write_snapshot_file(make_multi_index(), reload_path);
  Client client = Client::dial("127.0.0.1", server_.port()).value();

  const std::vector<std::pair<std::string, QueryScope>> scopes = {
      {"", {}},
      {"@next ", {"next", ""}},
      {"@gao2001 ", {"", "gao2001"}},
      {"@multi @gao2001 ", {"multi", "gao2001"}},
      {"@seed @asrank ", {"seed", "asrank"}},
  };
  for (const auto& [prefix, scope] : scopes) {
    SCOPED_TRACE(prefix);
    const auto text = [&snapshots, &prefix](const std::string& command) {
      return handle_text_request(snapshots, prefix + command);
    };
    const auto number = [](const auto& value) { return "OK " + std::to_string(value); };

    EXPECT_EQ(text("ping"), "OK pong");
    EXPECT_TRUE(client.try_ping().ok());
    for (const auto& [a, b] : std::vector<std::pair<std::uint32_t, std::uint32_t>>{
             {4, 5}, {1, 5}, {1, 3}, {1, 99}}) {
      EXPECT_EQ(text("rel " + std::to_string(a) + " " + std::to_string(b)),
                as_text(client.try_relationship(Asn(a), Asn(b), scope),
                        [](const auto& rel) { return "OK " + rel_word(rel); }));
    }
    for (const std::uint32_t as : {1u, 3u, 4u, 99u}) {
      const auto asn = std::to_string(as);
      EXPECT_EQ(text("rank " + asn),
                as_text(client.try_rank(Asn(as), scope),
                        [&number](const auto& rank) { return number(rank.value_or(0)); }));
      EXPECT_EQ(text("conesize " + asn),
                as_text(client.try_cone_size(Asn(as), scope), number));
      EXPECT_EQ(text("cone " + asn), as_text(client.try_cone(Asn(as), scope), list_text));
      EXPECT_EQ(text("providers " + asn),
                as_text(client.try_providers(Asn(as), scope), list_text));
      EXPECT_EQ(text("customers " + asn),
                as_text(client.try_customers(Asn(as), scope), list_text));
      EXPECT_EQ(text("peers " + asn), as_text(client.try_peers(Asn(as), scope), list_text));
      EXPECT_EQ(text("cliquepath " + asn),
                as_text(client.try_path_to_clique(Asn(as), scope), list_text));
      EXPECT_EQ(text("incone 1 " + asn),
                as_text(client.try_in_cone(Asn(1), Asn(as), scope),
                        [](bool in) { return std::string(in ? "OK yes" : "OK no"); }));
      EXPECT_EQ(text("intersect 1 " + asn),
                as_text(client.try_cone_intersection(Asn(1), Asn(as), scope), list_text));
      EXPECT_EQ(text("conediff " + asn + " seed multi"),
                as_text(client.try_cone_diff(Asn(as), "seed", "multi"),
                        [](const ConeDiff& diff) {
                          std::string out = "OK";
                          for (const Asn a : diff.added) out += " +" + std::to_string(a.value());
                          for (const Asn r : diff.removed) out += " -" + std::to_string(r.value());
                          return out;
                        }));
    }
    for (const std::uint32_t n : {0u, 2u, 50u}) {
      EXPECT_EQ(text("top " + std::to_string(n)),
                as_text(client.try_top(n, scope), [](const auto& entries) {
                  std::string out = "OK";
                  for (const auto& e : entries) {
                    out += " " + std::to_string(e.rank) + ":" + std::to_string(e.as.value()) +
                           ":" + std::to_string(e.cone_size) + ":" +
                           std::to_string(e.transit_degree);
                  }
                  return out;
                }));
    }
    EXPECT_EQ(text("clique"), as_text(client.try_clique(scope), list_text));
    EXPECT_EQ(text("epochs"), as_text(client.try_epochs(), words_text));
    EXPECT_EQ(text("algos"), as_text(client.try_algos(scope), words_text));
    for (const std::uint32_t limit : {0u, 1u}) {
      EXPECT_EQ(text("disagree asrank gao2001 " + std::to_string(limit)),
                as_text(client.try_disagree("asrank", "gao2001", limit, scope),
                        [](const DisagreeReport& report) {
                          std::string out = "OK " + std::to_string(report.total);
                          for (const auto& row : report.rows) {
                            out += " " + std::to_string(row.a.value()) + ":" +
                                   std::to_string(row.b.value()) + ":" +
                                   rel_word(row.first) + ":" + rel_word(row.second);
                          }
                          return out;
                        }));
    }
    // STATS and METRICS move between the two calls; compare their shape.
    const auto stats = text("stats");
    const auto wire_stats = as_text(client.try_stats_text(scope), [](const std::string& body) {
      return "OK\n" + body + ".";
    });
    EXPECT_EQ(stats_shape(stats), stats_shape(wire_stats));
    EXPECT_TRUE(stats.ends_with(".") && wire_stats.ends_with("."));
    const auto scrape = text("metrics");
    const auto wire_scrape = as_text(client.try_metrics_text(), [](const std::string& body) {
      return "OK\n" + body + ".";
    });
    EXPECT_EQ(metric_families(scrape), metric_families(wire_scrape));
    EXPECT_TRUE(scrape.starts_with("OK\n") && wire_scrape.starts_with("OK\n"));
    // RELOAD re-installs the current epoch's own bytes, so later rounds see
    // the same state.
    EXPECT_EQ(text("reload " + reload_path + " multi"),
              as_text(client.try_reload(reload_path, "multi"), [](const ReloadInfo& info) {
                return "OK " + info.label + " " + std::to_string(info.ases);
              }));
  }
  std::remove(reload_path.c_str());
}

}  // namespace
}  // namespace asrank::serve
