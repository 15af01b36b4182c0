// Differential tests: every fast path must agree with its reference.
//
// Two claims from the zero-copy/bitset work are locked down here on seeded
// random topologies (topogen), not hand-picked fixtures:
//
//   1. An mmap-backed SnapshotIndex (map_file) and a heap-parsed one
//      (read_snapshot_file) are indistinguishable through EVERY public
//      accessor, and both reserialize to the exact bytes on disk.
//   2. The blocked-bitset cone kernels (core::ConeBitset and the
//      QueryEngine paths built on it) reproduce the sorted-array reference
//      answers bit for bit — for all AS pairs, including empty cones,
//      self-intersection, and the largest cone in the topology.
//
// The topologies deliberately include ASes with NO cone entry (every 7th
// cone key is dropped before the snapshot is built) so the empty-cone edge
// cases are exercised everywhere, not just at AS 99.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <iterator>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "bgpsim/observation.h"
#include "bgpsim/update_stream.h"
#include "core/cone_bitset.h"
#include "core/cones.h"
#include "ingest/epoch_builder.h"
#include "ingest/update_applier.h"
#include "obs/metrics.h"
#include "paths/corpus.h"
#include "serve/query_engine.h"
#include "snapshot/snapshot.h"
#include "topogen/topogen.h"
#include "util/rng.h"

namespace asrank {
namespace {

using snapshot::SnapshotIndex;

// Ground-truth cones with gaps: dropping every 7th key (in sorted order, so
// the choice is deterministic) leaves those ASes with empty cones in the
// snapshot, which both kernel families must agree on.
ConeMap cones_with_gaps(const AsGraph& graph) {
  auto cones = core::recursive_cone(graph);
  std::vector<Asn> keys;
  keys.reserve(cones.size());
  for (const auto& [as, members] : cones) keys.push_back(as);
  std::sort(keys.begin(), keys.end());
  for (std::size_t i = 0; i < keys.size(); i += 7) cones.erase(keys[i]);
  return cones;
}

topogen::GroundTruth make_truth(const std::string& preset, std::uint64_t seed) {
  auto params = topogen::GenParams::preset(preset);
  params.seed = seed;
  return topogen::generate(params);
}

std::shared_ptr<const SnapshotIndex> build_index(
    const topogen::GroundTruth& truth, const ConeMap& cones) {
  const std::unordered_map<Asn, std::size_t> no_tdeg;
  return std::make_shared<const SnapshotIndex>(
      snapshot::build_snapshot(truth.graph, no_tdeg, cones, truth.clique));
}

std::vector<std::uint8_t> serialized_bytes(const SnapshotIndex& index) {
  std::ostringstream os(std::ios::binary);
  write_snapshot(index, os);
  const std::string raw = os.str();
  return {raw.begin(), raw.end()};
}

std::vector<Asn> to_vec(std::span<const Asn> span) {
  return {span.begin(), span.end()};
}

std::vector<Asn> sorted_intersection(std::span<const Asn> a,
                                     std::span<const Asn> b) {
  std::vector<Asn> out;
  std::set_intersection(a.begin(), a.end(), b.begin(), b.end(),
                        std::back_inserter(out));
  return out;
}

std::vector<Asn> sorted_difference(std::span<const Asn> a,
                                   std::span<const Asn> b) {
  std::vector<Asn> out;
  std::set_difference(a.begin(), a.end(), b.begin(), b.end(),
                      std::back_inserter(out));
  return out;
}

// ------------------------------------------------------- mmap vs heap --

// Every public accessor, compared pairwise between two indexes.
void expect_identical(const SnapshotIndex& a, const SnapshotIndex& b) {
  ASSERT_EQ(a.as_count(), b.as_count());
  EXPECT_EQ(a.link_count(), b.link_count());
  EXPECT_EQ(to_vec(a.ases()), to_vec(b.ases()));
  EXPECT_EQ(to_vec(a.clique()), to_vec(b.clique()));
  EXPECT_EQ(std::vector<std::uint64_t>(a.cone_offsets().begin(),
                                       a.cone_offsets().end()),
            std::vector<std::uint64_t>(b.cone_offsets().begin(),
                                       b.cone_offsets().end()));
  EXPECT_EQ(to_vec(a.cone_members()), to_vec(b.cone_members()));

  const auto n = static_cast<std::uint32_t>(a.as_count());
  for (std::uint32_t id = 0; id < n; ++id) {
    const Asn as = a.asn_at(id);
    EXPECT_EQ(as, b.asn_at(id));
    EXPECT_EQ(a.node_id(as), b.node_id(as));
    EXPECT_TRUE(a.has_as(as));
    EXPECT_TRUE(b.has_as(as));
    EXPECT_EQ(a.rank(as), b.rank(as));
    EXPECT_EQ(a.transit_degree(as), b.transit_degree(as));
    EXPECT_EQ(a.cone_size(as), b.cone_size(as));
    EXPECT_EQ(to_vec(a.cone(as)), to_vec(b.cone(as)));
    EXPECT_EQ(to_vec(a.neighbors(as)), to_vec(b.neighbors(as)));
    EXPECT_EQ(a.providers(as), b.providers(as));
    EXPECT_EQ(a.customers(as), b.customers(as));
    EXPECT_EQ(a.peers(as), b.peers(as));
    EXPECT_EQ(a.siblings(as), b.siblings(as));
    EXPECT_EQ(a.id_in_clique(id), b.id_in_clique(id));
    const auto ids_a = a.neighbor_ids(id);
    const auto ids_b = b.neighbor_ids(id);
    EXPECT_EQ(std::vector<std::uint32_t>(ids_a.begin(), ids_a.end()),
              std::vector<std::uint32_t>(ids_b.begin(), ids_b.end()));
    const auto rel_a = a.relationship_codes(id);
    const auto rel_b = b.relationship_codes(id);
    EXPECT_EQ(std::vector<std::uint8_t>(rel_a.begin(), rel_a.end()),
              std::vector<std::uint8_t>(rel_b.begin(), rel_b.end()));
    for (const Asn neighbor : a.neighbors(as)) {
      EXPECT_EQ(a.relationship(as, neighbor), b.relationship(as, neighbor));
      EXPECT_EQ(a.in_cone(as, neighbor), b.in_cone(as, neighbor));
    }
  }
  EXPECT_EQ(a.top(a.as_count() + 5), b.top(b.as_count() + 5));
  for (std::uint32_t r = 1; r <= n; ++r) {
    EXPECT_EQ(a.as_at_rank(r), b.as_at_rank(r));
  }
  EXPECT_EQ(a.rank(Asn(0)), b.rank(Asn(0)));
  EXPECT_FALSE(a.has_as(Asn(0xfffffff0u)));
  EXPECT_FALSE(b.has_as(Asn(0xfffffff0u)));
}

TEST(Differential, MmapAndHeapAgreeOnEveryAccessor) {
  const std::vector<std::pair<std::string, std::uint64_t>> cases = {
      {"tiny", 1}, {"tiny", 99}, {"small", 7}};
  for (const auto& [preset, seed] : cases) {
    SCOPED_TRACE(preset + " seed " + std::to_string(seed));
    const auto truth = make_truth(preset, seed);
    const auto cones = cones_with_gaps(truth.graph);
    const auto built = build_index(truth, cones);

    const std::string path = testing::TempDir() + "/diff-" + preset + "-" +
                             std::to_string(seed) + ".asrk";
    snapshot::write_snapshot_file(*built, path);

    auto heap = snapshot::try_read_snapshot_file(path);
    ASSERT_TRUE(heap.ok()) << heap.error().context;
    auto mapped = snapshot::try_map_snapshot_file(path);
    ASSERT_TRUE(mapped.ok()) << mapped.error().context;
    EXPECT_FALSE(heap.value().mmap_backed());
    EXPECT_TRUE(mapped.value().mmap_backed());

    expect_identical(heap.value(), mapped.value());
    expect_identical(*built, mapped.value());

    // Both load paths reserialize to the exact bytes on disk.
    const auto original = serialized_bytes(*built);
    EXPECT_EQ(serialized_bytes(heap.value()), original);
    EXPECT_EQ(serialized_bytes(mapped.value()), original);
    std::remove(path.c_str());
  }
}

// ------------------------------------------------ bitset vs sorted ref --

TEST(Differential, ConeBitsetMatchesSortedKernelsOnAllPairs) {
  const auto truth = make_truth("tiny", 3);
  const auto cones = cones_with_gaps(truth.graph);
  const auto index = build_index(truth, cones);
  const auto n = static_cast<std::uint32_t>(index->as_count());

  // min_cone_size = 0: every AS gets a row, including empty cones.
  const core::ConeBitset bits(index->ases(), index->cone_offsets(),
                              index->cone_members(), {0});
  ASSERT_EQ(bits.node_count(), n);
  ASSERT_EQ(bits.row_count(), n);

  const auto ids_to_asns = [&](const std::vector<std::uint32_t>& ids) {
    std::vector<Asn> out;
    out.reserve(ids.size());
    for (const auto id : ids) out.push_back(index->asn_at(id));
    return out;
  };
  const auto ids_of = [&](std::span<const Asn> members) {
    std::vector<std::uint32_t> ids;
    ids.reserve(members.size());
    for (const Asn member : members) ids.push_back(*index->node_id(member));
    return ids;
  };

  for (std::uint32_t a = 0; a < n; ++a) {
    const auto cone_a = index->cone(index->asn_at(a));
    // Membership: contains() over the whole id space vs binary search.
    for (std::uint32_t m = 0; m < n; ++m) {
      EXPECT_EQ(bits.contains(a, m),
                index->in_cone(index->asn_at(a), index->asn_at(m)))
          << "a=" << a << " m=" << m;
    }
    for (std::uint32_t b = 0; b < n; ++b) {
      const auto cone_b = index->cone(index->asn_at(b));
      EXPECT_EQ(ids_to_asns(bits.intersect_ids(a, b)),
                sorted_intersection(cone_a, cone_b))
          << "intersect a=" << a << " b=" << b;
      EXPECT_EQ(ids_to_asns(bits.andnot_ids(a, bits.make_mask(ids_of(cone_b)))),
                sorted_difference(cone_a, cone_b))
          << "andnot a=" << a << " b=" << b;
    }
    // Self: intersection is the cone itself, difference is empty.
    EXPECT_EQ(ids_to_asns(bits.intersect_ids(a, a)), to_vec(cone_a));
    EXPECT_TRUE(bits.andnot_ids(a, bits.row(a)).empty());
  }
}

TEST(Differential, ConeBitsetThresholdSelectsExactlyTheLargeCones) {
  const auto truth = make_truth("tiny", 5);
  const auto cones = cones_with_gaps(truth.graph);
  const auto index = build_index(truth, cones);
  const auto n = static_cast<std::uint32_t>(index->as_count());

  constexpr std::size_t kThreshold = 3;
  const core::ConeBitset bits(index->ases(), index->cone_offsets(),
                              index->cone_members(), {kThreshold});
  std::size_t expected_rows = 0;
  std::uint32_t largest = 0;
  for (std::uint32_t id = 0; id < n; ++id) {
    const auto size = index->cone_size(index->asn_at(id));
    EXPECT_EQ(bits.has_row(id), size >= kThreshold) << "id=" << id;
    if (size >= kThreshold) ++expected_rows;
    if (size > index->cone_size(index->asn_at(largest))) largest = id;
  }
  EXPECT_EQ(bits.row_count(), expected_rows);
  EXPECT_GT(expected_rows, 0u);

  // The largest cone must have a row and reproduce itself exactly.
  ASSERT_TRUE(bits.has_row(largest));
  std::vector<Asn> via_bits;
  for (const auto id : bits.intersect_ids(largest, largest)) {
    via_bits.push_back(index->asn_at(id));
  }
  EXPECT_EQ(via_bits, to_vec(index->cone(index->asn_at(largest))));

  // Disabled config materializes nothing.
  const core::ConeBitset off(index->ases(), index->cone_offsets(),
                             index->cone_members(),
                             core::ConeBitsetConfig::disabled());
  EXPECT_EQ(off.row_count(), 0u);
  EXPECT_EQ(off.memory_bytes(), n * sizeof(std::uint32_t));
}

// --------------------------------------------- engine kernel configs --

TEST(Differential, QueryEngineKernelConfigsAnswerIdentically) {
  const auto truth = make_truth("tiny", 11);
  const auto cones = cones_with_gaps(truth.graph);
  const auto index = build_index(truth, cones);

  // Three engines over one index: all-bitset, mixed (hybrid kicks in when
  // only one side of a pair has a row), and sorted-only.
  obs::Registry reg_bitset, reg_hybrid, reg_sorted;
  serve::QueryEngine bitset(index, 4096, &reg_bitset, {0});
  serve::QueryEngine hybrid(index, 4096, &reg_hybrid, {3});
  serve::QueryEngine sorted(index, 4096, &reg_sorted,
                            core::ConeBitsetConfig::disabled());

  const auto ases = to_vec(index->ases());
  for (const Asn a : ases) {
    for (const Asn b : ases) {
      const auto want = *sorted.cone_intersection(a, b);
      EXPECT_EQ(*bitset.cone_intersection(a, b), want)
          << a.str() << " ∩ " << b.str();
      EXPECT_EQ(*hybrid.cone_intersection(a, b), want)
          << a.str() << " ∩ " << b.str();
      EXPECT_EQ(bitset.in_cone(a, b), sorted.in_cone(a, b));
      EXPECT_EQ(hybrid.in_cone(a, b), sorted.in_cone(a, b));

      const auto other = index->cone(b);
      const auto minus = sorted.cone_minus(a, other);
      EXPECT_EQ(bitset.cone_minus(a, other), minus);
      EXPECT_EQ(hybrid.cone_minus(a, other), minus);
      EXPECT_EQ(minus, sorted_difference(index->cone(a), other));
    }
  }

  const char* help = "Cone intersection/diff/membership queries by answering kernel";
  EXPECT_GT(reg_bitset.counter("asrankd_cone_kernel_total", help,
                               {{"kernel", "bitset"}})
                .value(),
            0u);
  EXPECT_GT(reg_hybrid.counter("asrankd_cone_kernel_total", help,
                               {{"kernel", "hybrid"}})
                .value(),
            0u);
  EXPECT_EQ(reg_sorted.counter("asrankd_cone_kernel_total", help,
                               {{"kernel", "bitset"}})
                .value(),
            0u);
  EXPECT_GT(reg_sorted.counter("asrankd_cone_kernel_total", help,
                               {{"kernel", "sorted"}})
                .value(),
            0u);
}

TEST(Differential, CrossEpochConeMinusMatchesSetDifference) {
  // Epoch A, and epoch B = A evolved (new stubs, extra peerings, rehomed
  // customers) — the CONE_DIFF serving scenario, where the mask ASNs come
  // from a DIFFERENT snapshot and may be unknown to the answering one.
  auto truth = make_truth("tiny", 17);
  const auto cones_a = cones_with_gaps(truth.graph);
  const auto index_a = build_index(truth, cones_a);

  util::Rng rng(17);
  topogen::evolve(truth, rng, {});
  const auto cones_b = cones_with_gaps(truth.graph);
  const auto index_b = build_index(truth, cones_b);

  obs::Registry reg_a0, reg_a1, reg_b0, reg_b1;
  serve::QueryEngine a_bits(index_a, 4096, &reg_a0, {0});
  serve::QueryEngine a_sorted(index_a, 4096, &reg_a1,
                              core::ConeBitsetConfig::disabled());
  serve::QueryEngine b_bits(index_b, 4096, &reg_b0, {0});
  serve::QueryEngine b_sorted(index_b, 4096, &reg_b1,
                              core::ConeBitsetConfig::disabled());

  for (const Asn as : index_a->ases()) {
    if (!index_b->has_as(as)) continue;
    const auto cone_a = index_a->cone(as);
    const auto cone_b = index_b->cone(as);
    // added = B minus A, removed = A minus B; both kernels, both directions.
    const auto added = sorted_difference(cone_b, cone_a);
    const auto removed = sorted_difference(cone_a, cone_b);
    EXPECT_EQ(b_bits.cone_minus(as, cone_a), added) << as.str();
    EXPECT_EQ(b_sorted.cone_minus(as, cone_a), added) << as.str();
    EXPECT_EQ(a_bits.cone_minus(as, cone_b), removed) << as.str();
    EXPECT_EQ(a_sorted.cone_minus(as, cone_b), removed) << as.str();
  }
}

TEST(Differential, MmapBackedEngineServesIdenticalDerivedAnswers) {
  const auto truth = make_truth("tiny", 23);
  const auto cones = cones_with_gaps(truth.graph);
  const auto built = build_index(truth, cones);

  const std::string path = testing::TempDir() + "/diff-engine.asrk";
  snapshot::write_snapshot_file(*built, path);
  auto mapped = snapshot::try_map_snapshot_file(path);
  ASSERT_TRUE(mapped.ok()) << mapped.error().context;
  auto mapped_index = std::make_shared<const SnapshotIndex>(
      std::move(mapped).value());
  ASSERT_TRUE(mapped_index->mmap_backed());

  obs::Registry reg_heap, reg_mmap;
  serve::QueryEngine heap_engine(built, 4096, &reg_heap, {0});
  serve::QueryEngine mmap_engine(mapped_index, 4096, &reg_mmap, {0});

  const auto ases = to_vec(built->ases());
  for (const Asn a : ases) {
    // path_to_clique exercises the lazily-derived dense neighbour ids of
    // the mmap path (BFS over provider links).
    EXPECT_EQ(*heap_engine.path_to_clique(a), *mmap_engine.path_to_clique(a));
    for (const Asn b : ases) {
      EXPECT_EQ(*heap_engine.cone_intersection(a, b),
                *mmap_engine.cone_intersection(a, b));
    }
  }
  EXPECT_EQ(heap_engine.top(ases.size()), mmap_engine.top(ases.size()));
  std::remove(path.c_str());
}

// ------------------------------------------------------------- ingest ----
//
// Claim 3 (the streaming-ingest acceptance contract): replaying a seeded
// bgpsim update stream through the ingest conveyor — UpdateApplier table,
// EpochBuilder — emits epochs that are byte-identical to a from-scratch
// batch inference+snapshot of the same cumulative route table, at every
// single step, for every seed.

void replay_stream_and_compare(const std::string& preset, std::uint64_t seed) {
  auto params = topogen::GenParams::preset(preset);
  params.seed = seed;
  auto truth = topogen::generate(params);

  bgpsim::ObservationParams obs_params;
  obs_params.seed = seed + 1;
  bgpsim::UpdateStreamParams stream_params;
  stream_params.steps = 3;
  stream_params.seed = seed + 1000;
  stream_params.evolve.new_stubs =
      std::max<std::size_t>(2, truth.graph.as_count() / 50);
  stream_params.evolve.new_peerings =
      std::max<std::size_t>(1, truth.graph.link_count() / 40);
  const auto stream =
      bgpsim::generate_update_stream(truth, obs_params, stream_params);
  ASSERT_EQ(stream.size(), 4u);  // bootstrap + 3 evolution steps

  const ingest::EpochBuilderConfig config{};
  obs::Registry metrics;
  ingest::UpdateApplier applier(metrics);
  ingest::EpochBuilder builder(config, metrics);

  for (std::size_t step = 0; step < stream.size(); ++step) {
    for (const auto& update : stream[step].updates) applier.apply(update);

    // The applier's table must equal what the simulator's own replay
    // reconstructs (its observation after this step): same inference input.
    const auto reference_corpus =
        paths::PathCorpus::from_records(stream[step].observation.routes);
    const auto corpus = applier.corpus();
    ASSERT_EQ(corpus.size(), reference_corpus.size())
        << preset << " seed " << seed << " step " << step;

    ingest::EpochBuildInfo info;
    auto built = builder.build(corpus, &info);
    ASSERT_TRUE(built.ok()) << built.error().context;
    EXPECT_EQ(info.sequence, step + 1);

    const auto batch = ingest::EpochBuilder::batch_build(corpus, config);
    EXPECT_EQ(serialized_bytes(built.value()), serialized_bytes(batch))
        << preset << " seed " << seed << " step " << step;
  }
}

TEST(Differential, IngestEpochsMatchBatchBuildsAcrossSeeds) {
  for (const std::uint64_t seed : {3u, 17u, 92u}) replay_stream_and_compare("small", seed);
  replay_stream_and_compare("medium", 29);
}

}  // namespace
}  // namespace asrank
