// Differential determinism tests for the parallel inference engine: the
// whole pipeline must produce bit-identical results at 1, 2, and 8 worker
// threads (util::ThreadPool uses static chunking with ordered reductions, so
// no output may depend on scheduling).  Also unit-tests the thread pool
// itself: chunk geometry, empty and short ranges, exception propagation, and
// ordered (non-commutative) reduction.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <numeric>
#include <random>
#include <sstream>
#include <stdexcept>
#include <string>
#include <tuple>
#include <type_traits>
#include <vector>

#include "bgpsim/observation.h"
#include "core/asrank.h"
#include "core/cones.h"
#include "core/degrees.h"
#include "core/ranking.h"
#include "core/visibility.h"
#include "topogen/topogen.h"
#include "topology/serialization.h"
#include "topology/topology_view.h"
#include "util/crc32.h"
#include "util/thread_pool.h"

namespace asrank {
namespace {

// ---------------------------------------------------------------------------
// ThreadPool unit tests
// ---------------------------------------------------------------------------

TEST(ThreadPool, ResolvesWorkerCount) {
  EXPECT_GE(util::ThreadPool(0).worker_count(), 1u);
  EXPECT_EQ(util::ThreadPool(1).worker_count(), 1u);
  EXPECT_EQ(util::ThreadPool(3).worker_count(), 3u);
  EXPECT_GE(util::resolve_threads(0), 1u);
  EXPECT_EQ(util::resolve_threads(5), 5u);
}

TEST(ThreadPool, ChunkBoundsPartitionTheRange) {
  util::ThreadPool pool(4);
  const auto bounds = pool.chunk_bounds(10);
  ASSERT_EQ(bounds.size(), 5u);
  EXPECT_EQ(bounds.front(), 0u);
  EXPECT_EQ(bounds.back(), 10u);
  // Static chunking: sizes differ by at most one and are non-increasing.
  for (std::size_t c = 0; c + 1 < bounds.size() - 1; ++c) {
    const std::size_t size = bounds[c + 1] - bounds[c];
    const std::size_t next = bounds[c + 2] - bounds[c + 1];
    EXPECT_GE(size, next);
    EXPECT_LE(size - next, 1u);
  }
}

TEST(ThreadPool, EmptyRangeInvokesNothing) {
  for (const std::size_t workers : {1u, 4u}) {
    util::ThreadPool pool(workers);
    std::atomic<int> calls{0};
    pool.for_chunks(0, [&](std::size_t, std::size_t, std::size_t) { ++calls; });
    pool.for_each_index(0, [&](std::size_t) { ++calls; });
    EXPECT_EQ(calls.load(), 0);
  }
}

TEST(ThreadPool, ShortRangeCoversEveryIndexOnce) {
  // n < workers leaves some chunks empty; every index still runs exactly once.
  util::ThreadPool pool(8);
  std::vector<std::atomic<int>> hits(3);
  pool.for_each_index(hits.size(), [&](std::size_t i) { ++hits[i]; });
  for (const auto& hit : hits) EXPECT_EQ(hit.load(), 1);
}

TEST(ThreadPool, ExceptionsPropagateToCaller) {
  for (const std::size_t workers : {1u, 4u}) {
    util::ThreadPool pool(workers);
    EXPECT_THROW(
        pool.for_each_index(100,
                            [&](std::size_t i) {
                              if (i == 57) throw std::runtime_error("boom");
                            }),
        std::runtime_error);
    // The pool survives a throwing dispatch and stays usable.
    std::atomic<int> sum{0};
    pool.for_each_index(10, [&](std::size_t i) { sum += static_cast<int>(i); });
    EXPECT_EQ(sum.load(), 45);
  }
}

TEST(ThreadPool, LowestChunkExceptionWins) {
  util::ThreadPool pool(4);
  try {
    pool.for_chunks(4, [&](std::size_t chunk, std::size_t, std::size_t) {
      throw std::runtime_error("chunk " + std::to_string(chunk));
    });
    FAIL() << "expected throw";
  } catch (const std::runtime_error& error) {
    EXPECT_STREQ(error.what(), "chunk 0");
  }
}

TEST(ThreadPool, OrderedReductionIsDeterministic) {
  // Non-commutative reduction (string concatenation): the result must match
  // the sequential order at every worker count.
  std::string expected;
  for (int i = 0; i < 100; ++i) expected += std::to_string(i) + ",";
  for (const std::size_t workers : {1u, 2u, 3u, 8u, 16u}) {
    util::ThreadPool pool(workers);
    const std::string joined = pool.map_reduce<std::string>(
        100, std::string{},
        [](std::size_t begin, std::size_t end) {
          std::string part;
          for (std::size_t i = begin; i < end; ++i) part += std::to_string(i) + ",";
          return part;
        },
        [](std::string& acc, std::string&& part) { acc += part; });
    EXPECT_EQ(joined, expected) << workers << " workers";
  }
}

TEST(ThreadPool, ReusableAcrossDispatches) {
  util::ThreadPool pool(4);
  for (int round = 0; round < 50; ++round) {
    const long sum = pool.map_reduce<long>(
        1000, 0L,
        [](std::size_t begin, std::size_t end) {
          long part = 0;
          for (std::size_t i = begin; i < end; ++i) part += static_cast<long>(i);
          return part;
        },
        [](long& acc, long&& part) { acc += part; });
    EXPECT_EQ(sum, 499500L);
  }
}

// ---------------------------------------------------------------------------
// Full-pipeline differential tests
// ---------------------------------------------------------------------------

struct PipelineOutput {
  core::InferenceResult result;
  ConeMap recursive;
  ConeMap ppdc;
  std::vector<core::RankEntry> ranking;
};

const paths::PathCorpus& shared_corpus() {
  static const paths::PathCorpus corpus = [] {
    auto gen = topogen::GenParams::preset("small");
    gen.seed = 424242;
    const auto truth = topogen::generate(gen);
    bgpsim::ObservationParams obs;
    obs.seed = 424243;
    obs.full_vps = 25;
    obs.partial_vps = 8;
    return paths::PathCorpus::from_records(bgpsim::observe(truth, obs).routes);
  }();
  return corpus;
}

void expect_audit_eq(const core::StageAudit& got, const core::StageAudit& want,
                     std::size_t threads) {
  const auto& gs = got.sanitize;
  const auto& ws = want.sanitize;
  EXPECT_EQ(gs.input_records, ws.input_records) << threads;
  EXPECT_EQ(gs.ixp_hops_stripped, ws.ixp_hops_stripped) << threads;
  EXPECT_EQ(gs.reserved_hops_stripped, ws.reserved_hops_stripped) << threads;
  EXPECT_EQ(gs.prepended_compressed, ws.prepended_compressed) << threads;
  EXPECT_EQ(gs.loops_discarded, ws.loops_discarded) << threads;
  EXPECT_EQ(gs.reserved_discarded, ws.reserved_discarded) << threads;
  EXPECT_EQ(gs.duplicates_removed, ws.duplicates_removed) << threads;
  EXPECT_EQ(gs.output_records, ws.output_records) << threads;
  EXPECT_EQ(got.ranked_ases, want.ranked_ases) << threads;
  EXPECT_EQ(got.clique_size, want.clique_size) << threads;
  EXPECT_EQ(got.poisoned_discarded, want.poisoned_discarded) << threads;
  EXPECT_EQ(got.partial_vps, want.partial_vps) << threads;
  EXPECT_EQ(got.c2p_votes, want.c2p_votes) << threads;
  EXPECT_EQ(got.apex_links_deferred, want.apex_links_deferred) << threads;
  EXPECT_EQ(got.links_committed_c2p, want.links_committed_c2p) << threads;
  EXPECT_EQ(got.vote_conflicts, want.vote_conflicts) << threads;
  EXPECT_EQ(got.siblings_inferred, want.siblings_inferred) << threads;
  EXPECT_EQ(got.triplet_inferred, want.triplet_inferred) << threads;
  EXPECT_EQ(got.valley_violations, want.valley_violations) << threads;
  EXPECT_EQ(got.providerless_repaired, want.providerless_repaired) << threads;
  EXPECT_EQ(got.stub_clique_links, want.stub_clique_links) << threads;
  EXPECT_EQ(got.clique_direction_fixes, want.clique_direction_fixes) << threads;
  EXPECT_EQ(got.p2p_fallback, want.p2p_fallback) << threads;
  EXPECT_EQ(got.cycle_edges_reoriented, want.cycle_edges_reoriented) << threads;
  EXPECT_EQ(got.p2c_acyclic, want.p2c_acyclic) << threads;
}

void expect_degrees_eq(const core::Degrees& got, const core::Degrees& want,
                       std::size_t threads) {
  ASSERT_EQ(got.interner(), want.interner()) << threads;
  EXPECT_EQ(got.ranked(), want.ranked()) << threads;
  for (topology::NodeId id = 0; id < want.interner().size(); ++id) {
    EXPECT_EQ(got.transit_degree(id), want.transit_degree(id)) << threads << " node " << id;
    EXPECT_EQ(got.node_degree(id), want.node_degree(id)) << threads << " node " << id;
    EXPECT_EQ(got.rank_of(id), want.rank_of(id)) << threads << " node " << id;
    const auto got_row = got.adjacency().neighbors(id);
    const auto want_row = want.adjacency().neighbors(id);
    EXPECT_TRUE(std::equal(got_row.begin(), got_row.end(), want_row.begin(), want_row.end()))
        << threads << " node " << id;
  }
}

PipelineOutput run_pipeline(std::size_t threads) {
  core::InferenceConfig config;
  config.threads = threads;
  PipelineOutput out{core::AsRankInference(config).run(shared_corpus()), {}, {}, {}};
  out.recursive = core::recursive_cone(out.result.graph, threads);
  out.ppdc =
      core::provider_peer_observed_cone(out.result.graph, out.result.arena, threads);
  out.ranking = core::rank_by_cone(out.ppdc, out.result.degrees);
  return out;
}

TEST(ParallelDeterminism, PipelineIsBitIdenticalAcrossThreadCounts) {
  const PipelineOutput reference = run_pipeline(1);
  const auto reference_links = reference.result.graph.to_graph().links();
  ASSERT_FALSE(reference_links.empty());

  for (const std::size_t threads : {2u, 8u}) {
    const PipelineOutput parallel = run_pipeline(threads);

    // Relationship labels: every link, same annotation, same orientation.
    EXPECT_EQ(parallel.result.graph.to_graph().links(), reference_links)
        << threads << " threads";
    EXPECT_EQ(parallel.result.clique, reference.result.clique);

    // Cones: identical membership for every AS.
    EXPECT_EQ(parallel.recursive, reference.recursive);
    EXPECT_EQ(parallel.ppdc, reference.ppdc);

    // Rank order: same ASes in the same positions with the same cone sizes.
    ASSERT_EQ(parallel.ranking.size(), reference.ranking.size());
    for (std::size_t i = 0; i < reference.ranking.size(); ++i) {
      EXPECT_EQ(parallel.ranking[i].as, reference.ranking[i].as) << "rank " << i;
      EXPECT_EQ(parallel.ranking[i].cone_size, reference.ranking[i].cone_size);
      EXPECT_EQ(parallel.ranking[i].rank, reference.ranking[i].rank);
    }

    // Stage audit: every counter describes the same computation.
    expect_audit_eq(parallel.result.audit, reference.result.audit, threads);
    expect_degrees_eq(parallel.result.degrees, reference.result.degrees, threads);
    const auto parallel_sanitized = parallel.result.arena.materialize();
    const auto reference_sanitized = reference.result.arena.materialize();
    EXPECT_EQ(parallel_sanitized.records().size(), reference_sanitized.records().size());
    EXPECT_TRUE(std::equal(parallel_sanitized.records().begin(),
                           parallel_sanitized.records().end(),
                           reference_sanitized.records().begin(),
                           reference_sanitized.records().end()))
        << threads << " threads";
  }
}

TEST(ParallelDeterminism, TallyStagesMatchSequential) {
  const auto& corpus = shared_corpus();
  const auto degrees1 = core::Degrees::compute(corpus, 1);
  const auto visibility1 = core::link_visibility(corpus, 1);
  for (const std::size_t threads : {2u, 8u}) {
    expect_degrees_eq(core::Degrees::compute(corpus, threads), degrees1, threads);

    const auto visibilityN = core::link_visibility(corpus, threads);
    ASSERT_EQ(visibilityN.size(), visibility1.size());
    for (const auto& [key, link] : visibility1) {
      const auto it = visibilityN.find(key);
      ASSERT_NE(it, visibilityN.end());
      EXPECT_EQ(it->second.vp_count, link.vp_count);
      EXPECT_EQ(it->second.observations, link.observations);
      EXPECT_EQ(it->second.transit_positions, link.transit_positions);
      EXPECT_EQ(it->second.edge_positions, link.edge_positions);
    }
  }
}

/// The pre-arena degree tally, kept as the oracle: translate each record,
/// collapse prepending, and count distinct (node, neighbour) id pairs with a
/// global sort.  The ranking follows its definition: transit degree desc,
/// node degree desc, ASN asc, over ASes with a neighbour.
struct ReferenceDegrees {
  topology::AsnInterner interner;
  std::vector<std::uint32_t> node;
  std::vector<std::uint32_t> transit;
  std::vector<std::vector<topology::NodeId>> rows;
  std::vector<Asn> ranked;
};

ReferenceDegrees reference_degrees(const paths::PathCorpus& corpus) {
  using topology::kNoNode;
  using topology::NodeId;
  ReferenceDegrees out;
  std::vector<Asn> asns;
  for (const auto& record : corpus.records()) {
    asns.insert(asns.end(), record.path.hops().begin(), record.path.hops().end());
  }
  out.interner = topology::AsnInterner::from_asns(std::move(asns));
  const auto pack = [](NodeId a, NodeId b) { return static_cast<std::uint64_t>(a) << 32 | b; };
  std::vector<std::uint64_t> all, transit;
  std::vector<NodeId> ids;
  for (const auto& record : corpus.records()) {
    out.interner.translate(record.path.compress_prepending().hops(), ids);
    for (std::size_t i = 0; i < ids.size(); ++i) {
      if (ids[i] == kNoNode) continue;
      if (i > 0 && ids[i - 1] != kNoNode) {
        all.push_back(pack(ids[i], ids[i - 1]));
        all.push_back(pack(ids[i - 1], ids[i]));
      }
      if (i > 0 && i + 1 < ids.size()) {
        if (ids[i - 1] != kNoNode) transit.push_back(pack(ids[i], ids[i - 1]));
        if (ids[i + 1] != kNoNode) transit.push_back(pack(ids[i], ids[i + 1]));
      }
    }
  }
  const auto count = [&](std::vector<std::uint64_t>& pairs) {
    std::sort(pairs.begin(), pairs.end());
    pairs.erase(std::unique(pairs.begin(), pairs.end()), pairs.end());
    std::vector<std::uint32_t> degree(out.interner.size(), 0);
    for (const std::uint64_t p : pairs) ++degree[p >> 32];
    return degree;
  };
  out.node = count(all);
  out.transit = count(transit);
  out.rows.resize(out.interner.size());
  for (const std::uint64_t p : all) out.rows[p >> 32].push_back(static_cast<NodeId>(p));
  std::vector<NodeId> order;
  for (NodeId id = 0; id < out.interner.size(); ++id) {
    if (out.node[id] > 0) order.push_back(id);
  }
  std::sort(order.begin(), order.end(), [&](NodeId a, NodeId b) {
    return std::tuple(out.transit[b], out.node[b], a) < std::tuple(out.transit[a], out.node[a], b);
  });
  for (const NodeId id : order) out.ranked.push_back(out.interner.asn_of(id));
  return out;
}

void expect_matches_reference(const paths::PathCorpus& corpus, const std::string& what) {
  const ReferenceDegrees want = reference_degrees(corpus);
  for (const std::size_t threads : {1u, 2u, 4u, 8u}) {
    const auto got = core::Degrees::compute(corpus, threads);
    ASSERT_EQ(got.interner(), want.interner) << what << " " << threads;
    EXPECT_EQ(got.ranked(), want.ranked) << what << " " << threads;
    for (topology::NodeId id = 0; id < want.interner.size(); ++id) {
      EXPECT_EQ(got.node_degree(id), want.node[id]) << what << " " << threads << " node " << id;
      EXPECT_EQ(got.transit_degree(id), want.transit[id])
          << what << " " << threads << " node " << id;
      const auto row = got.adjacency().neighbors(id);
      EXPECT_TRUE(std::ranges::equal(row, want.rows[id]))
          << what << " " << threads << " node " << id;
    }
  }
}

TEST(ParallelDeterminism, RawCorpusDegreesMatchReferenceTally) {
  // Degrees::compute(raw corpus) tallies the records themselves:
  // prepending, AS0 hops, loops and duplicate records must all tally as the
  // per-record reference does.
  paths::PathCorpus corpus = shared_corpus();
  const auto prefix = Prefix::v4(0x0a000000, 24);
  corpus.add(Asn(4000001), prefix, AsPath{4000001, 4000001, 4000002, 4000002, 4000003});
  corpus.add(Asn(4000001), prefix, AsPath{4000001, 0, 4000004, 0, 0, 4000005});
  corpus.add(Asn(4000002), prefix, AsPath{4000002, 4000006, 4000002, 4000007});
  corpus.add(Asn(4000002), prefix, AsPath{0, 0});
  corpus.add(Asn(4000002), prefix, AsPath{4000008});
  corpus.add(Asn(4000002), prefix, AsPath{});
  corpus.add(Asn(4000001), prefix, AsPath{4000001, 4000001, 4000002, 4000002, 4000003});
  expect_matches_reference(corpus, "shared");

  const auto degrees = core::Degrees::compute(corpus);
  // 4000001 and 4000003 (first path), 4000006 and 4000007 (the looped one).
  EXPECT_EQ(degrees.transit_degree(Asn(4000002)), 4u);
  EXPECT_EQ(degrees.node_degree(Asn(4000004)), 0u);     // only beside AS0
  EXPECT_FALSE(degrees.interner().contains(Asn(0)));

  // A seeded bgpsim corpus with prepending, poisoned loops and private-ASN
  // leaks, plus AS0 and reserved hops spliced into some records.
  auto gen = topogen::GenParams::preset("small");
  gen.seed = 77;
  const auto truth = topogen::generate(gen);
  bgpsim::ObservationParams obs;
  obs.seed = 78;
  obs.full_vps = 8;
  obs.partial_vps = 3;
  obs.prepend_prob = 0.2;
  obs.poison_prob = 0.05;
  obs.private_leak_prob = 0.05;
  const auto observation = bgpsim::observe(truth, obs);
  ASSERT_GT(observation.audit.prepended, 0u);
  ASSERT_GT(observation.audit.poisoned_loop, 0u);
  ASSERT_GT(observation.audit.private_leaked, 0u);
  paths::PathCorpus injected;
  for (std::size_t r = 0; r < observation.routes.size(); ++r) {
    const auto& route = observation.routes[r];
    std::vector<Asn> hops(route.path.hops().begin(), route.path.hops().end());
    const auto middle = [&] { return hops.begin() + static_cast<std::ptrdiff_t>(hops.size() / 2); };
    if (r % 11 == 0) hops.insert(middle(), Asn(0));
    if (r % 13 == 0) hops.insert(middle(), Asn(64512));
    injected.add(route.vp, route.prefix, AsPath(hops));
  }
  expect_matches_reference(injected, "injected");
}

TEST(ParallelDeterminism, ConeClosureMatchesSequentialOnGroundTruth) {
  // The level walk with several workers against the same walk run inline.
  auto gen = topogen::GenParams::preset("small");
  gen.seed = 99;
  const auto truth = topogen::generate(gen);
  const auto sequential = core::recursive_cone(truth.graph, 1);
  for (const std::size_t threads : {2u, 4u, 8u}) {
    EXPECT_EQ(core::recursive_cone(truth.graph, threads), sequential);
  }
}

TEST(ParallelDeterminism, FrozenViewIsIdenticalAcrossThreadCounts) {
  // The result's view is a pure function of the link table, and the table
  // is bit-identical at every worker count — so the CSR arrays (the
  // substrate every dense stage computes on) must be identical too.
  const auto view_of = [](std::size_t threads) {
    core::InferenceConfig config;
    config.threads = threads;
    return core::AsRankInference(config).run(shared_corpus()).graph;
  };
  const auto to_vec = [](auto span) {
    return std::vector<std::decay_t<decltype(span[0])>>(span.begin(), span.end());
  };
  const auto reference = view_of(1);
  for (const std::size_t threads : {2u, 8u}) {
    const auto view = view_of(threads);
    EXPECT_EQ(view.interner(), reference.interner()) << threads << " threads";
    EXPECT_EQ(to_vec(view.adjacency_offsets()), to_vec(reference.adjacency_offsets()));
    EXPECT_EQ(to_vec(view.adjacency_neighbors()), to_vec(reference.adjacency_neighbors()));
    EXPECT_EQ(to_vec(view.adjacency_rels()), to_vec(reference.adjacency_rels()));
  }
}

TEST(ParallelDeterminism, ViewConeOverloadsMatchGraphOverloads) {
  // recursive_cone's TopologyView overload is the primary path; the AsGraph
  // overload freezes and delegates.  Both must agree at every worker count,
  // and the observed cones must match their 1-worker result.
  core::InferenceConfig config;
  config.threads = 1;
  const auto result = core::AsRankInference(config).run(shared_corpus());
  const auto& view = result.graph;
  const auto recursive = core::recursive_cone(result.graph.to_graph(), 1);
  const auto ppdc = core::provider_peer_observed_cone(view, result.arena, 1);
  const auto observed = core::bgp_observed_cone(view, result.arena, 1);
  for (const std::size_t threads : {1u, 2u, 8u}) {
    EXPECT_EQ(core::recursive_cone(view, threads), recursive) << threads;
    EXPECT_EQ(core::provider_peer_observed_cone(view, result.arena, threads), ppdc)
        << threads;
    EXPECT_EQ(core::bgp_observed_cone(view, result.arena, threads), observed)
        << threads;
  }
}

TEST(ParallelDeterminism, ParallelClosureDetectsCycles) {
  // The Kahn-level walk must reject cyclic provider graphs at any worker
  // count (assumption A3).
  AsGraph graph;
  graph.add_p2c(Asn(1), Asn(2));
  graph.add_p2c(Asn(2), Asn(3));
  graph.add_p2c(Asn(3), Asn(1));
  EXPECT_THROW(core::recursive_cone(graph, 1), std::invalid_argument);
  EXPECT_THROW(core::recursive_cone(graph, 4), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Pinned stage audit
// ---------------------------------------------------------------------------

/// A seeded bgpsim corpus with partial-view VPs, and a config whose
/// sanitizer knows the ground truth's IXPs.
struct PinnedWorld {
  paths::PathCorpus corpus;
  core::InferenceConfig config;
};

PinnedWorld pinned_world(const char* preset, std::uint64_t seed, std::size_t full_vps,
                         std::size_t partial_vps, double destination_sample) {
  auto gen = topogen::GenParams::preset(preset);
  gen.seed = seed;
  const auto truth = topogen::generate(gen);
  bgpsim::ObservationParams obs;
  obs.seed = seed + 1;
  obs.full_vps = full_vps;
  obs.partial_vps = partial_vps;
  obs.destination_sample = destination_sample;
  PinnedWorld out{paths::PathCorpus::from_records(bgpsim::observe(truth, obs).routes), {}};
  out.config.sanitizer.ixp_asns.insert(truth.ixp_asns.begin(), truth.ixp_asns.end());
  return out;
}

void expect_pinned_audit(const paths::PathCorpus& corpus, core::InferenceConfig config,
                         const core::StageAudit& want) {
  for (const std::size_t threads : {1u, 2u, 4u, 8u}) {
    config.threads = threads;
    expect_audit_eq(core::AsRankInference(config).run(corpus).audit, want, threads);
  }
}

// Every StageAudit counter on four corpora, pinned at 1, 2, 4 and 8 threads.  The
// valley-free fixpoint's counters (triplet_inferred, valley_violations) are
// the ones its skipping of unchanged walks must keep.
TEST(StageAuditPin, SharedCorpus) {
  expect_pinned_audit(shared_corpus(), {}, {
      .sanitize = {
          .input_records = 17854, .ixp_hops_stripped = 0, .reserved_hops_stripped = 0,
          .prepended_compressed = 544, .loops_discarded = 26, .reserved_discarded = 60,
          .duplicates_removed = 0, .output_records = 17768},
      .ranked_ases = 302, .clique_size = 6, .poisoned_discarded = 0, .partial_vps = 4,
      .c2p_votes = 12882, .apex_links_deferred = 29349, .links_committed_c2p = 350,
      .vote_conflicts = 6, .siblings_inferred = 4, .triplet_inferred = 123,
      .valley_violations = 44, .providerless_repaired = 2, .stub_clique_links = 2,
      .clique_direction_fixes = 0, .p2p_fallback = 258, .cycle_edges_reoriented = 0,
      .p2c_acyclic = true});
}

TEST(StageAuditPin, IxpStrippedCorpus) {
  const auto world = pinned_world("small", 9001, 12, 6, 1.0);
  expect_pinned_audit(world.corpus, world.config, {
      .sanitize = {
          .input_records = 9335, .ixp_hops_stripped = 20, .reserved_hops_stripped = 0,
          .prepended_compressed = 284, .loops_discarded = 2, .reserved_discarded = 25,
          .duplicates_removed = 0, .output_records = 9308},
      .ranked_ases = 300, .clique_size = 6, .poisoned_discarded = 3, .partial_vps = 3,
      .c2p_votes = 5887, .apex_links_deferred = 17005, .links_committed_c2p = 303,
      .vote_conflicts = 6, .siblings_inferred = 4, .triplet_inferred = 107,
      .valley_violations = 36, .providerless_repaired = 2, .stub_clique_links = 2,
      .clique_direction_fixes = 1, .p2p_fallback = 184, .cycle_edges_reoriented = 0,
      .p2c_acyclic = true});
}

// With loops left in, some paths repeat a link; the fixpoint walks those on
// every visit.
TEST(StageAuditPin, LoopedCorpus) {
  auto world = pinned_world("small", 9001, 12, 6, 1.0);
  world.config.sanitizer.discard_loops = false;
  expect_pinned_audit(world.corpus, world.config, {
      .sanitize = {
          .input_records = 9335, .ixp_hops_stripped = 20, .reserved_hops_stripped = 0,
          .prepended_compressed = 284, .loops_discarded = 0, .reserved_discarded = 25,
          .duplicates_removed = 0, .output_records = 9310},
      .ranked_ases = 300, .clique_size = 6, .poisoned_discarded = 4, .partial_vps = 3,
      .c2p_votes = 5890, .apex_links_deferred = 17007, .links_committed_c2p = 304,
      .vote_conflicts = 7, .siblings_inferred = 4, .triplet_inferred = 107,
      .valley_violations = 40, .providerless_repaired = 2, .stub_clique_links = 2,
      .clique_direction_fixes = 1, .p2p_fallback = 183, .cycle_edges_reoriented = 0,
      .p2c_acyclic = true});
}

// Few VPs: here a later record's fixpoint commit lands on a link of a path
// already walked, so that path's next walk commits more (three iterations).
TEST(StageAuditPin, FewVantagePointsCorpus) {
  const auto world = pinned_world("small", 242, 5, 2, 1.0);
  expect_pinned_audit(world.corpus, world.config, {
      .sanitize = {
          .input_records = 3800, .ixp_hops_stripped = 4, .reserved_hops_stripped = 0,
          .prepended_compressed = 159, .loops_discarded = 0, .reserved_discarded = 11,
          .duplicates_removed = 0, .output_records = 3789},
      .ranked_ases = 300, .clique_size = 5, .poisoned_discarded = 4, .partial_vps = 2,
      .c2p_votes = 2684, .apex_links_deferred = 6818, .links_committed_c2p = 313,
      .vote_conflicts = 6, .siblings_inferred = 3, .triplet_inferred = 73,
      .valley_violations = 24, .providerless_repaired = 6, .stub_clique_links = 10,
      .clique_direction_fixes = 0, .p2p_fallback = 133, .cycle_edges_reoriented = 0,
      .p2c_acyclic = true});
}

// Random hops over 16 ASes: votes disagree everywhere, so the inferred
// provider graph has cycles and step 11's repair re-orients links (no
// corpus above needs it).  Its counters and the .as-rel bytes are pinned.
TEST(StageAuditPin, CycleRepairCorpus) {
  std::mt19937_64 rng(5);
  paths::PathCorpus corpus;
  for (std::uint32_t r = 0; r < 200; ++r) {
    const std::size_t length = 2 + rng() % 5;
    AsPath path;
    while (path.size() < length) path.push_back(Asn(1 + static_cast<std::uint32_t>(rng() % 16)));
    const Asn vp = path.hops().front();
    corpus.add(vp, Prefix::v4(r << 8, 24), std::move(path));
  }
  expect_pinned_audit(corpus, {}, {
      .sanitize = {
          .input_records = 200, .ixp_hops_stripped = 0, .reserved_hops_stripped = 0,
          .prepended_compressed = 39, .loops_discarded = 53, .reserved_discarded = 0,
          .duplicates_removed = 0, .output_records = 147},
      .ranked_ases = 16, .clique_size = 3, .poisoned_discarded = 9, .partial_vps = 7,
      .c2p_votes = 218, .apex_links_deferred = 122, .links_committed_c2p = 92,
      .vote_conflicts = 43, .siblings_inferred = 0, .triplet_inferred = 13,
      .valley_violations = 156, .providerless_repaired = 0, .stub_clique_links = 0,
      .clique_direction_fixes = 18, .p2p_fallback = 4, .cycle_edges_reoriented = 32,
      .p2c_acyclic = true});
  for (const std::size_t threads : {1u, 4u}) {
    core::InferenceConfig config;
    config.threads = threads;
    std::ostringstream as_rel;
    write_as_rel(core::AsRankInference(config).run(corpus).graph.to_graph(), as_rel);
    const std::string bytes = as_rel.str();
    EXPECT_EQ(bytes.size(), 961u) << threads;
    EXPECT_EQ(util::crc32({reinterpret_cast<const std::uint8_t*>(bytes.data()), bytes.size()}),
              0x6ab2587au)
        << threads;
  }
}

}  // namespace
}  // namespace asrank
