#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <unordered_set>
#include <vector>

#include "bgpsim/observation.h"
#include "core/asrank.h"
#include "paths/arena.h"
#include "paths/corpus.h"
#include "paths/sanitizer.h"
#include "topogen/topogen.h"
#include "topology/topology_view.h"
#include "util/thread_pool.h"

namespace asrank::paths {
namespace {

PathRecord rec(std::uint32_t vp, const char* prefix, std::initializer_list<std::uint32_t> hops) {
  return PathRecord{Asn(vp), *Prefix::parse(prefix), AsPath(hops)};
}

// -------------------------------------------------------------- corpus ----

TEST(Corpus, BasicAccounting) {
  PathCorpus corpus;
  corpus.add(rec(1, "10.0.0.0/24", {1, 2, 3}));
  corpus.add(rec(1, "10.0.1.0/24", {1, 2, 4}));
  corpus.add(rec(5, "10.0.0.0/24", {5, 2, 3}));
  EXPECT_EQ(corpus.size(), 3u);
  EXPECT_EQ(corpus.vantage_points(), (std::vector<Asn>{Asn(1), Asn(5)}));
  EXPECT_EQ(corpus.prefix_count(), 2u);
  EXPECT_EQ(corpus.ases(), (std::vector<Asn>{Asn(1), Asn(2), Asn(3), Asn(4), Asn(5)}));
}

TEST(Corpus, LinkObservationsCountAdjacencies) {
  PathCorpus corpus;
  corpus.add(rec(1, "10.0.0.0/24", {1, 2, 3}));
  corpus.add(rec(1, "10.0.1.0/24", {1, 2, 2, 4}));  // prepending not a link
  const auto links = corpus.link_observations();
  EXPECT_EQ(links.at(PathCorpus::key(Asn(1), Asn(2))), 2u);
  EXPECT_EQ(links.at(PathCorpus::key(Asn(2), Asn(3))), 1u);
  EXPECT_EQ(links.at(PathCorpus::key(Asn(2), Asn(4))), 1u);
  EXPECT_EQ(links.size(), 3u);
}

TEST(Corpus, KeyMatchesAsGraphKey) {
  EXPECT_EQ(PathCorpus::key(Asn(7), Asn(3)), PathCorpus::key(Asn(3), Asn(7)));
}

TEST(Corpus, FromRecordsBridgesAnyType) {
  struct Foreign {
    Asn vp;
    Prefix prefix;
    AsPath path;
  };
  std::vector<Foreign> rows{{Asn(1), *Prefix::parse("10.0.0.0/24"), AsPath{1, 2}}};
  const auto corpus = PathCorpus::from_records(rows);
  EXPECT_EQ(corpus.size(), 1u);
}

// ----------------------------------------------------------- sanitizer ----

TEST(Sanitizer, CompressesPrepending) {
  PathCorpus corpus;
  corpus.add(rec(1, "10.0.0.0/24", {1, 2, 2, 2, 3}));
  SanitizerConfig config;
  const auto result = sanitize(corpus, config);
  ASSERT_EQ(result.corpus.size(), 1u);
  EXPECT_EQ(result.corpus.records()[0].path, (AsPath{1, 2, 3}));
  EXPECT_EQ(result.stats.prepended_compressed, 1u);
}

TEST(Sanitizer, DiscardsLoops) {
  PathCorpus corpus;
  corpus.add(rec(1, "10.0.0.0/24", {1, 2, 3, 2}));  // poisoned
  corpus.add(rec(1, "10.0.1.0/24", {1, 2, 3}));
  const auto result = sanitize(corpus, SanitizerConfig{});
  EXPECT_EQ(result.corpus.size(), 1u);
  EXPECT_EQ(result.stats.loops_discarded, 1u);
}

TEST(Sanitizer, DiscardsReservedByDefault) {
  PathCorpus corpus;
  corpus.add(rec(1, "10.0.0.0/24", {1, 64512, 3}));
  const auto result = sanitize(corpus, SanitizerConfig{});
  EXPECT_EQ(result.corpus.size(), 0u);
  EXPECT_EQ(result.stats.reserved_discarded, 1u);
}

TEST(Sanitizer, StripReservedKeepsPath) {
  PathCorpus corpus;
  corpus.add(rec(1, "10.0.0.0/24", {1, 64512, 3}));
  SanitizerConfig config;
  config.strip_reserved_asns = true;
  const auto result = sanitize(corpus, config);
  ASSERT_EQ(result.corpus.size(), 1u);
  EXPECT_EQ(result.corpus.records()[0].path, (AsPath{1, 3}));
  EXPECT_EQ(result.stats.reserved_hops_stripped, 1u);
  EXPECT_EQ(result.stats.reserved_discarded, 0u);
}

TEST(Sanitizer, StripsIxpAsns) {
  PathCorpus corpus;
  corpus.add(rec(1, "10.0.0.0/24", {1, 2, 900, 3}));  // 900 = route server
  SanitizerConfig config;
  config.ixp_asns.insert(Asn(900));
  const auto result = sanitize(corpus, config);
  ASSERT_EQ(result.corpus.size(), 1u);
  EXPECT_EQ(result.corpus.records()[0].path, (AsPath{1, 2, 3}));
  EXPECT_EQ(result.stats.ixp_hops_stripped, 1u);
}

TEST(Sanitizer, IxpStripCanRestoreLoopFreePath) {
  // The route server splits a prepending run; stripping merges it back.
  PathCorpus corpus;
  corpus.add(rec(1, "10.0.0.0/24", {1, 2, 900, 2, 3}));
  SanitizerConfig config;
  config.ixp_asns.insert(Asn(900));
  const auto result = sanitize(corpus, config);
  ASSERT_EQ(result.corpus.size(), 1u);
  EXPECT_EQ(result.corpus.records()[0].path, (AsPath{1, 2, 3}));
  EXPECT_EQ(result.stats.loops_discarded, 0u);
}

TEST(Sanitizer, Deduplicates) {
  PathCorpus corpus;
  corpus.add(rec(1, "10.0.0.0/24", {1, 2, 3}));
  corpus.add(rec(1, "10.0.0.0/24", {1, 2, 3}));
  corpus.add(rec(1, "10.0.0.0/24", {1, 2, 2, 3}));  // same after compression
  const auto result = sanitize(corpus, SanitizerConfig{});
  EXPECT_EQ(result.corpus.size(), 1u);
  EXPECT_EQ(result.stats.duplicates_removed, 2u);
}

TEST(Sanitizer, DedupKeepsDistinctPrefixesAndVps) {
  PathCorpus corpus;
  corpus.add(rec(1, "10.0.0.0/24", {1, 2, 3}));
  corpus.add(rec(1, "10.0.1.0/24", {1, 2, 3}));
  corpus.add(rec(4, "10.0.0.0/24", {4, 2, 3}));
  const auto result = sanitize(corpus, SanitizerConfig{});
  EXPECT_EQ(result.corpus.size(), 3u);
}

TEST(Sanitizer, StagesCanBeDisabled) {
  PathCorpus corpus;
  corpus.add(rec(1, "10.0.0.0/24", {1, 2, 2, 3}));
  SanitizerConfig config;
  config.compress_prepending = false;
  config.dedup = false;
  const auto result = sanitize(corpus, config);
  ASSERT_EQ(result.corpus.size(), 1u);
  EXPECT_TRUE(result.corpus.records()[0].path.has_prepending());
}

TEST(Sanitizer, EmptyPathsDropped) {
  PathCorpus corpus;
  corpus.add(rec(1, "10.0.0.0/24", {900}));  // only an IXP hop
  SanitizerConfig config;
  config.ixp_asns.insert(Asn(900));
  const auto result = sanitize(corpus, config);
  EXPECT_EQ(result.corpus.size(), 0u);
}

TEST(Sanitizer, IsIdempotent) {
  PathCorpus corpus;
  corpus.add(rec(1, "10.0.0.0/24", {1, 2, 2, 3}));
  corpus.add(rec(1, "10.0.1.0/24", {1, 2, 3, 2}));
  corpus.add(rec(4, "10.0.2.0/24", {4, 5}));
  SanitizerConfig config;
  const auto once = sanitize(corpus, config);
  const auto twice = sanitize(once.corpus, config);
  EXPECT_EQ(twice.corpus.size(), once.corpus.size());
  EXPECT_EQ(twice.stats.prepended_compressed, 0u);
  EXPECT_EQ(twice.stats.loops_discarded, 0u);
  EXPECT_EQ(twice.stats.duplicates_removed, 0u);
}

TEST(Sanitizer, StatsAddUp) {
  PathCorpus corpus;
  corpus.add(rec(1, "10.0.0.0/24", {1, 2, 3}));    // clean
  corpus.add(rec(1, "10.0.1.0/24", {1, 2, 3, 2})); // loop
  corpus.add(rec(1, "10.0.2.0/24", {1, 64512}));   // reserved
  corpus.add(rec(1, "10.0.0.0/24", {1, 2, 3}));    // duplicate
  const auto result = sanitize(corpus, SanitizerConfig{});
  const auto& s = result.stats;
  EXPECT_EQ(s.input_records, 4u);
  EXPECT_EQ(s.output_records,
            s.input_records - s.loops_discarded - s.reserved_discarded - s.duplicates_removed);
}

// -------------------------------------------------- sanitizer oracle ----

/// The per-record sanitizer the arena replaced, kept as the oracle: every
/// record walks every stage on its own copy of the hops, and dedup hashes
/// whole records.
SanitizeResult reference_sanitize(const PathCorpus& input, const SanitizerConfig& config) {
  struct RecordHash {
    std::size_t operator()(const PathRecord& record) const noexcept {
      std::size_t h = std::hash<Asn>{}(record.vp);
      h ^= std::hash<Prefix>{}(record.prefix) + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
      for (const Asn hop : record.path.hops()) {
        h ^= std::hash<Asn>{}(hop) + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
      }
      return h;
    }
  };
  SanitizeResult result;
  result.stats.input_records = input.size();
  std::unordered_set<PathRecord, RecordHash> seen;
  for (const PathRecord& record : input.records()) {
    std::vector<Asn> hops(record.path.hops().begin(), record.path.hops().end());
    if (config.strip_ixp_asns && !config.ixp_asns.empty()) {
      const auto before = hops.size();
      hops.erase(std::remove_if(hops.begin(), hops.end(),
                                [&](Asn a) { return config.ixp_asns.contains(a); }),
                 hops.end());
      result.stats.ixp_hops_stripped += before - hops.size();
    }
    if (config.strip_reserved_asns) {
      const auto before = hops.size();
      hops.erase(std::remove_if(hops.begin(), hops.end(), [](Asn a) { return a.reserved(); }),
                 hops.end());
      result.stats.reserved_hops_stripped += before - hops.size();
    }
    AsPath path(std::move(hops));
    if (config.compress_prepending && path.has_prepending()) {
      path = path.compress_prepending();
      ++result.stats.prepended_compressed;
    }
    if (config.discard_loops && path.has_loop()) {
      ++result.stats.loops_discarded;
      continue;
    }
    if (config.discard_reserved && path.has_reserved_asn()) {
      ++result.stats.reserved_discarded;
      continue;
    }
    if (path.empty()) continue;
    PathRecord cleaned{record.vp, record.prefix, std::move(path)};
    if (config.dedup && !seen.insert(cleaned).second) {
      ++result.stats.duplicates_removed;
      continue;
    }
    result.corpus.add(std::move(cleaned));
  }
  result.stats.output_records = result.corpus.size();
  return result;
}

/// Every combination of the six stage switches, with and without an IXP set.
std::vector<SanitizerConfig> all_configs(const std::unordered_set<Asn>& ixp_asns) {
  std::vector<SanitizerConfig> configs;
  for (unsigned bits = 0; bits < 64; ++bits) {
    for (const bool with_ixps : {false, true}) {
      SanitizerConfig config;
      config.strip_ixp_asns = bits & 1;
      config.strip_reserved_asns = bits & 2;
      config.compress_prepending = bits & 4;
      config.discard_loops = bits & 8;
      config.discard_reserved = bits & 16;
      config.dedup = bits & 32;
      if (with_ixps) config.ixp_asns = ixp_asns;
      configs.push_back(std::move(config));
    }
  }
  return configs;
}

std::string describe(const SanitizerConfig& c) {
  return "ixp=" + std::to_string(c.strip_ixp_asns) + "/" + std::to_string(c.ixp_asns.size()) +
         " strip_reserved=" + std::to_string(c.strip_reserved_asns) +
         " compress=" + std::to_string(c.compress_prepending) +
         " loops=" + std::to_string(c.discard_loops) +
         " reserved=" + std::to_string(c.discard_reserved) + " dedup=" + std::to_string(c.dedup);
}

void expect_stats_eq(const SanitizeStats& got, const SanitizeStats& want, const std::string& what) {
  EXPECT_EQ(got.input_records, want.input_records) << what;
  EXPECT_EQ(got.ixp_hops_stripped, want.ixp_hops_stripped) << what;
  EXPECT_EQ(got.reserved_hops_stripped, want.reserved_hops_stripped) << what;
  EXPECT_EQ(got.prepended_compressed, want.prepended_compressed) << what;
  EXPECT_EQ(got.loops_discarded, want.loops_discarded) << what;
  EXPECT_EQ(got.reserved_discarded, want.reserved_discarded) << what;
  EXPECT_EQ(got.duplicates_removed, want.duplicates_removed) << what;
  EXPECT_EQ(got.output_records, want.output_records) << what;
}

/// The structural promises of PathArena on top of the oracle's output.
void expect_arena_invariants(const PathArena& arena, const std::string& what) {
  std::size_t total = 0;
  std::set<std::vector<topology::NodeId>> distinct;
  for (std::size_t p = 0; p < arena.path_count(); ++p) {
    EXPECT_GT(arena.multiplicity(p), 0u) << what;
    total += arena.multiplicity(p);
    const auto hops = arena.path(p);
    EXPECT_FALSE(hops.empty()) << what;
    distinct.emplace(hops.begin(), hops.end());
  }
  EXPECT_EQ(total, arena.stats().output_records) << what;
  EXPECT_EQ(distinct.size(), arena.path_count()) << what << ": a path is stored twice";
  // Path ids follow first occurrence among the records.
  std::uint32_t next = 0;
  for (const ArenaRecord& record : arena.records()) {
    ASSERT_LE(record.path, next) << what;
    if (record.path == next) ++next;
  }
  EXPECT_EQ(next, arena.path_count()) << what;
}

/// Every field of two arenas, path by path and record by record.
void expect_arenas_equal(const PathArena& got, const PathArena& want, const std::string& what) {
  EXPECT_EQ(got.interner(), want.interner()) << what;
  ASSERT_EQ(got.path_count(), want.path_count()) << what;
  EXPECT_EQ(got.hop_count(), want.hop_count()) << what;
  for (std::size_t p = 0; p < want.path_count(); ++p) {
    EXPECT_EQ(got.offset(p), want.offset(p)) << what;
    EXPECT_EQ(got.multiplicity(p), want.multiplicity(p)) << what;
    EXPECT_TRUE(std::ranges::equal(got.path(p), want.path(p))) << what << " path " << p;
  }
  ASSERT_EQ(got.records().size(), want.records().size()) << what;
  for (std::size_t r = 0; r < want.records().size(); ++r) {
    EXPECT_EQ(got.records()[r].prefix, want.records()[r].prefix) << what;
    EXPECT_EQ(got.records()[r].vp, want.records()[r].vp) << what;
    EXPECT_EQ(got.records()[r].path, want.records()[r].path) << what;
  }
  expect_stats_eq(got.stats(), want.stats(), what);
}

void expect_matches_oracle(const PathCorpus& corpus, const std::unordered_set<Asn>& ixp_asns) {
  // Three workers split every pass unevenly; the arena must not notice.
  util::ThreadPool pool(3);
  for (const SanitizerConfig& config : all_configs(ixp_asns)) {
    const std::string what = describe(config);
    const SanitizeResult want = reference_sanitize(corpus, config);
    const SanitizeResult got = sanitize(corpus, config);
    ASSERT_EQ(got.corpus.size(), want.corpus.size()) << what;
    for (std::size_t r = 0; r < want.corpus.size(); ++r) {
      ASSERT_EQ(got.corpus.records()[r], want.corpus.records()[r]) << what << " record " << r;
    }
    expect_stats_eq(got.stats, want.stats, what);
    const PathArena arena = PathArena::build(corpus, config);
    expect_arena_invariants(arena, what);
    expect_arenas_equal(PathArena::build(corpus, config, pool), arena, what + " on 3 workers");
  }
}

/// Every pathology the sanitizer handles, in a few hand-written records.
PathCorpus hand_cases_corpus() {
  PathCorpus corpus;
  corpus.add(rec(1, "10.0.0.0/24", {1, 2, 2, 3, 2}));      // prepending and a loop
  corpus.add(rec(1, "10.0.1.0/24", {1, 0, 3}));            // AS0
  corpus.add(rec(1, "10.0.2.0/24", {1, 0, 0, 3, 0}));      // AS0 runs, AS0 loop
  corpus.add(rec(1, "10.0.3.0/24", {1, 64512, 23456, 4}));  // private use, AS_TRANS
  corpus.add(rec(1, "10.0.4.0/24", {900, 901}));           // IXP strip empties it
  corpus.add(rec(1, "10.0.5.0/24", {900}));
  corpus.add(rec(1, "10.0.6.0/24", {1, 900, 1, 5}));       // IXP strip joins a run
  corpus.add(rec(1, "10.0.7.0/24", {1, 900, 5, 1}));       // IXP strip keeps a loop
  corpus.add(rec(1, "10.0.8.0/24", {}));                   // empty on arrival
  corpus.add(rec(1, "10.0.9.0/24", {64512}));              // reserved only
  for (const std::uint32_t vp : {1u, 6u, 7u}) {            // one path, several VPs
    corpus.add(rec(vp, "10.1.0.0/24", {8, 9, 10}));
    corpus.add(rec(vp, "10.1.1.0/24", {8, 9, 10}));
  }
  corpus.add(rec(6, "10.1.0.0/24", {8, 9, 10}));           // exact duplicate
  corpus.add(rec(6, "10.1.0.0/24", {8, 8, 9, 10}));        // duplicate once compressed
  corpus.add(rec(7, "10.1.0.0/24", {8, 9, 9, 10, 10}));
  corpus.add(rec(1, "10.0.0.0/24", {1, 2, 2, 3, 2}));      // repeated raw path
  return corpus;
}

TEST(SanitizerOracle, HandCases) {
  expect_matches_oracle(hand_cases_corpus(), {Asn(900), Asn(901)});
}

/// A seeded bgpsim corpus with every pathology the sanitizer handles
/// injected (prepending, poisoned loops, IXP and private-ASN leaks), plus a
/// re-fed slice so dedup sees exact and compress-equal repeats.
struct InjectedWorld {
  PathCorpus corpus;
  std::unordered_set<Asn> ixps;
};

const InjectedWorld& injected_world() {
  static const InjectedWorld world = [] {
    auto gen = topogen::GenParams::preset("small");
    gen.seed = 31;
    const auto truth = topogen::generate(gen);
    bgpsim::ObservationParams params;
    params.seed = 32;
    params.full_vps = 6;
    params.partial_vps = 2;
    params.destination_sample = 0.5;
    params.prepend_prob = 0.2;
    params.poison_prob = 0.05;
    params.ixp_leak_prob = 0.3;
    params.private_leak_prob = 0.05;
    const auto observation = bgpsim::observe(truth, params);
    EXPECT_GT(observation.audit.prepended, 0u);
    EXPECT_GT(observation.audit.poisoned_loop, 0u);
    EXPECT_GT(observation.audit.ixp_leaked, 0u);
    EXPECT_GT(observation.audit.private_leaked, 0u);
    InjectedWorld out{PathCorpus::from_records(observation.routes),
                      {truth.ixp_asns.begin(), truth.ixp_asns.end()}};
    for (std::size_t r = 0; r < observation.routes.size(); r += 7) {
      out.corpus.add(observation.routes[r].vp, observation.routes[r].prefix,
                     observation.routes[r].path);
    }
    return out;
  }();
  return world;
}

TEST(SanitizerOracle, BgpsimCorpusWithInjectedPathologies) {
  const InjectedWorld& world = injected_world();
  ASSERT_FALSE(world.ixps.empty());
  expect_matches_oracle(world.corpus, world.ixps);
}

// 3000 dense ASNs beside 3000 widely spaced ones, so the arena's first-seen
// id table grows several times; every 50th path carries AS0.
constexpr std::uint32_t kRun = 3000;
constexpr std::uint32_t dense(std::uint32_t i) { return 10000 + i % kRun; }
constexpr std::uint32_t spaced(std::uint32_t i) { return 200000 + (i % kRun) * 7919; }

PathCorpus many_asns_corpus() {
  PathCorpus corpus;
  for (std::uint32_t i = 0; i < kRun; ++i) {
    const Prefix prefix = Prefix::v4(0x0a000000u + (i << 8), 24);
    corpus.add(Asn(dense(i)), prefix, AsPath{dense(i), spaced(i), dense(i * 7 + 1)});
    if (i % 50 == 0) corpus.add(Asn(dense(i)), prefix, AsPath{dense(i), 0, 0, spaced(i + 1)});
  }
  return corpus;
}

TEST(SanitizerOracle, ManyAsnsGrowTheFirstSeenTable) {
  const PathCorpus corpus = many_asns_corpus();
  const PathArena arena = PathArena::build(corpus, SanitizerConfig{});
  ASSERT_GT(arena.interner().size(), 4096u);
  // Kept AS0 hops are never interned.
  SanitizerConfig keep_as0;
  keep_as0.discard_reserved = false;
  EXPECT_EQ(PathArena::build(corpus, keep_as0).interner().size(), arena.interner().size());
  expect_matches_oracle(corpus, {Asn(dense(5)), Asn(spaced(9))});
}

/// Every record 1-4 times, later copies spread over the corpus.  Some
/// copies are exact, some carry prepending or an IXP hop, so they turn
/// into duplicates only once sanitized.
PathCorpus duplicate_heavy_corpus() {
  struct Base {
    std::uint32_t vp;
    Prefix prefix;
    std::vector<std::uint32_t> hops;
  };
  std::vector<Base> bases;
  for (std::uint32_t i = 0; i < 1500; ++i) {
    const std::uint32_t a = 1 + i % 7;
    const std::uint32_t b = 20 + i % 13;
    const std::uint32_t c = 100 + i % 97;
    bases.push_back({a, Prefix::v4(0x0a000000u + ((i / 3) << 8), 24), {a, b, c}});
  }
  PathCorpus corpus;
  const auto add = [&](const Base& base, std::vector<std::uint32_t> hops) {
    AsPath path;
    for (const std::uint32_t hop : hops) path.push_back(Asn(hop));
    corpus.add(Asn(base.vp), base.prefix, std::move(path));
  };
  for (std::size_t copy = 0; copy < 4; ++copy) {
    for (std::size_t i = 0; i < bases.size(); ++i) {
      if (copy > i % 4) continue;
      const Base& base = bases[i];
      std::vector<std::uint32_t> hops = base.hops;
      const std::uint32_t middle = hops[1];
      if (copy == 1) hops.insert(hops.begin() + 1, middle);  // 1 2 2 3 beside 1 2 3
      if (copy == 2) hops.insert(hops.begin() + 2, 900);      // IXP hop stripped
      add(base, std::move(hops));
    }
  }
  return corpus;
}

const PathCorpus& duplicate_heavy_corpus_ref() {
  static const PathCorpus corpus = duplicate_heavy_corpus();
  return corpus;
}

TEST(SanitizerOracle, DuplicateHeavyCorpus) {
  const PathCorpus corpus = duplicate_heavy_corpus();
  SanitizerConfig config;
  config.ixp_asns = {Asn(900)};
  const PathArena arena = PathArena::build(corpus, config);
  // Exact copies, copies equal once compressed, and copies equal once the
  // IXP hop is stripped are all dropped.
  EXPECT_EQ(arena.stats().duplicates_removed, corpus.size() - 1500);
  expect_matches_oracle(corpus, {Asn(900)});
}

TEST(PathArena, TwoBuildsAreEqualFieldByField) {
  const PathCorpus corpus = duplicate_heavy_corpus();
  SanitizerConfig config;
  config.ixp_asns = {Asn(900)};
  expect_arenas_equal(PathArena::build(corpus, config), PathArena::build(corpus, config),
                      "second build");
}

TEST(PathArena, ChunkedBuildIsIdenticalAtAnyWorkerCount) {
  // The default config (with the IXP set) and a compress-only one, which
  // keeps loops, reserved ASNs, AS0 hops and duplicate records.
  SanitizerConfig sanitizing;
  sanitizing.ixp_asns = injected_world().ixps;
  SanitizerConfig compress_only;
  compress_only.strip_ixp_asns = false;
  compress_only.discard_loops = false;
  compress_only.discard_reserved = false;
  compress_only.dedup = false;
  for (const PathCorpus* corpus : {&injected_world().corpus, &duplicate_heavy_corpus_ref()}) {
    for (const SanitizerConfig* config : {&sanitizing, &compress_only}) {
      const PathArena want = PathArena::build(*corpus, *config);
      ASSERT_GT(want.path_count(), 0u);
      for (const std::size_t workers : {1u, 2u, 4u, 8u}) {
        util::ThreadPool pool(workers);
        expect_arenas_equal(PathArena::build(*corpus, *config, pool), want,
                            describe(*config) + " on " + std::to_string(workers) + " workers");
      }
    }
  }
}

TEST(PathArena, SharesOnePathAcrossVantagePoints) {
  PathCorpus corpus;
  corpus.add(rec(1, "10.0.0.0/24", {4, 5, 6}));
  corpus.add(rec(2, "10.0.0.0/24", {4, 5, 6}));
  corpus.add(rec(3, "10.0.1.0/24", {4, 5, 5, 6}));
  corpus.add(rec(3, "10.0.2.0/24", {6, 5}));
  const PathArena arena = PathArena::build(corpus, SanitizerConfig{});
  ASSERT_EQ(arena.path_count(), 2u);
  EXPECT_EQ(arena.multiplicity(0), 3u);
  EXPECT_EQ(arena.multiplicity(1), 1u);
  const auto asns = arena.interner().asns();
  EXPECT_EQ(std::vector<Asn>(asns.begin(), asns.end()), (std::vector<Asn>{Asn(4), Asn(5), Asn(6)}));
  EXPECT_EQ(arena.as_path(0), (AsPath{4, 5, 6}));
  EXPECT_EQ(arena.as_path(1), (AsPath{6, 5}));
  const std::vector<topology::NodeId> ids(arena.path(1).begin(), arena.path(1).end());
  EXPECT_EQ(ids, (std::vector<topology::NodeId>{2, 1}));
  ASSERT_EQ(arena.records().size(), 4u);
  EXPECT_EQ(arena.records()[2].vp, Asn(3));
  EXPECT_EQ(arena.records()[2].path, 0u);
  EXPECT_EQ(arena.materialize().records()[2].path, (AsPath{4, 5, 6}));
}

TEST(PathArena, KeptAs0HopIsNoNode) {
  PathCorpus corpus;
  corpus.add(rec(1, "10.0.0.0/24", {1, 0, 3}));
  SanitizerConfig config;
  config.discard_reserved = false;
  const PathArena arena = PathArena::build(corpus, config);
  ASSERT_EQ(arena.path_count(), 1u);
  EXPECT_EQ(arena.interner().size(), 2u);  // AS0 is never interned
  EXPECT_EQ(arena.path(0)[1], topology::kNoNode);
  EXPECT_EQ(arena.as_path(0), (AsPath{1, 0, 3}));
}

// ------------------------------------------------ inference link table ----

/// `view` must equal the freeze of an AsGraph built link by link from the
/// view's own rows: same interner (so the AS table is exactly the link
/// endpoints), same rows, codes and p2c sub-rows.  Converting the view to
/// an AsGraph and back keeps every link.
void expect_view_is_frozen_link_table(const topology::TopologyView& view,
                                      const std::string& what) {
  using topology::NodeId;
  AsGraph graph;
  for (NodeId node = 0; node < view.node_count(); ++node) {
    const auto nbrs = view.neighbors(node);
    const auto codes = view.rels(node);
    for (std::size_t i = 0; i < nbrs.size(); ++i) {
      if (nbrs[i] < node) continue;
      const Asn as = view.ases()[node], other = view.ases()[nbrs[i]];
      switch (static_cast<RelView>(codes[i])) {
        case RelView::kCustomer: graph.add_p2c(as, other); break;
        case RelView::kProvider: graph.add_p2c(other, as); break;
        case RelView::kPeer: graph.add_p2p(as, other); break;
        case RelView::kSibling: graph.add_s2s(as, other); break;
      }
    }
  }
  const auto frozen = graph.freeze();
  EXPECT_EQ(view.interner(), frozen.interner()) << what;
  ASSERT_EQ(view.node_count(), frozen.node_count()) << what;
  EXPECT_EQ(view.link_count(), graph.link_count()) << what;
  for (NodeId node = 0; node < view.node_count(); ++node) {
    EXPECT_TRUE(std::ranges::equal(view.neighbors(node), frozen.neighbors(node)))
        << what << " row " << node;
    EXPECT_TRUE(std::ranges::equal(view.rels(node), frozen.rels(node)))
        << what << " codes " << node;
    EXPECT_TRUE(std::ranges::equal(view.providers(node), frozen.providers(node)))
        << what << " providers " << node;
    EXPECT_TRUE(std::ranges::equal(view.customers(node), frozen.customers(node)))
        << what << " customers " << node;
  }
  const AsGraph thawed = view.to_graph();
  EXPECT_EQ(thawed.links(), graph.links()) << what;
  EXPECT_EQ(thawed.freeze().to_graph().links(), thawed.links()) << what;
}

/// The inferred view under every sanitizer configuration.  Uncompressed
/// prepending leaves self-pairs in the link table; the view drops them.
void expect_views_on_every_config(const PathCorpus& corpus,
                                  const std::unordered_set<Asn>& ixp_asns) {
  for (const SanitizerConfig& config : all_configs(ixp_asns)) {
    const std::string what = describe(config);
    core::InferenceConfig inference;
    inference.sanitizer = config;
    const auto result = core::AsRankInference(inference).run(corpus);
    expect_view_is_frozen_link_table(result.graph, what);
  }
}

TEST(LinkTableView, UncompressedPrependingLeavesNoSelfLink) {
  PathCorpus corpus;
  corpus.add(rec(1, "10.0.0.0/24", {1, 2, 2, 3}));
  corpus.add(rec(4, "10.0.1.0/24", {4, 2, 3}));
  core::InferenceConfig inference;
  inference.sanitizer.compress_prepending = false;
  const auto result = core::AsRankInference(inference).run(corpus);
  expect_view_is_frozen_link_table(result.graph, "uncompressed prepending");
  EXPECT_TRUE(std::ranges::equal(result.graph.ases(),
                                 std::vector<Asn>{Asn(1), Asn(2), Asn(3), Asn(4)}));
  EXPECT_EQ(result.graph.link_count(), 3u);  // 1-2, 2-3, 2-4; no 2-2
  for (topology::NodeId node = 0; node < result.graph.node_count(); ++node) {
    EXPECT_EQ(std::ranges::count(result.graph.neighbors(node), node), 0) << node;
  }
  EXPECT_LE(result.audit.p2p_fallback, result.graph.link_count());
}

TEST(LinkTableView, MatchesTheFrozenGraphOfItsLinksOnSweepCorpora) {
  expect_views_on_every_config(hand_cases_corpus(), {Asn(900), Asn(901)});
  expect_views_on_every_config(injected_world().corpus, injected_world().ixps);
  expect_views_on_every_config(many_asns_corpus(), {Asn(dense(5)), Asn(spaced(9))});
  expect_views_on_every_config(duplicate_heavy_corpus_ref(), {Asn(900)});
}

TEST(LinkTableView, MatchesTheFrozenGraphOfItsLinksOnSeededTopologies) {
  for (const std::uint64_t seed : {3u, 17u, 42u}) {
    for (const char* preset : {"tiny", "small"}) {
      auto gen = topogen::GenParams::preset(preset);
      gen.seed = seed;
      const auto truth = topogen::generate(gen);
      bgpsim::ObservationParams obs;
      obs.seed = seed + 1;
      obs.full_vps = 8;
      obs.partial_vps = 3;
      core::InferenceConfig config;
      config.sanitizer.ixp_asns.insert(truth.ixp_asns.begin(), truth.ixp_asns.end());
      const auto result = core::AsRankInference(config).run(
          PathCorpus::from_records(bgpsim::observe(truth, obs).routes));
      ASSERT_GT(result.graph.link_count(), 0u);
      expect_view_is_frozen_link_table(result.graph, std::string(preset) + " seed " +
                                                         std::to_string(seed));
    }
  }
}

}  // namespace
}  // namespace asrank::paths
