#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <random>
#include <set>
#include <sstream>
#include <stdexcept>
#include <tuple>

#include "bgpsim/observation.h"
#include "core/asrank.h"
#include "core/clique.h"
#include "core/cones.h"
#include "core/degrees.h"
#include "core/ranking.h"
#include "topogen/topogen.h"

namespace asrank::core {
namespace {

paths::PathRecord rec(std::uint32_t vp, std::uint32_t prefix_id,
                      std::initializer_list<std::uint32_t> hops) {
  return paths::PathRecord{Asn(vp), Prefix::v4(prefix_id << 8, 24), AsPath(hops)};
}

paths::PathArena arena_of(const paths::PathCorpus& corpus) {
  return paths::PathArena::build(corpus, paths::SanitizerConfig{});
}

using topology::kNoNode;
using topology::NodeId;

/// Seeded random corpus over ASNs 1..`ases` plus AS0: paths of 1 to 7 hops
/// with prepending runs.
paths::PathCorpus random_corpus(std::uint64_t seed, std::size_t records, std::uint32_t ases) {
  std::mt19937_64 rng(seed);
  paths::PathCorpus corpus;
  for (std::size_t r = 0; r < records; ++r) {
    const std::size_t length = 1 + rng() % 7;
    std::vector<Asn> hops;
    while (hops.size() < length) {
      if (!hops.empty() && rng() % 4 == 0) {
        hops.push_back(hops.back());  // prepending
      } else if (rng() % 16 == 0) {
        hops.push_back(Asn(0));
      } else {
        hops.push_back(Asn(1 + static_cast<std::uint32_t>(rng() % ases)));
      }
    }
    corpus.add(Asn(1 + static_cast<std::uint32_t>(rng() % ases)),
               Prefix::v4(static_cast<std::uint32_t>(r) << 8, 24), AsPath(hops));
  }
  return corpus;
}

/// Strips, compresses and discards nothing: the arena keeps prepending
/// runs, loops and AS0 hops (as kNoNode).
paths::SanitizerConfig permissive_sanitizer() {
  paths::SanitizerConfig config;
  config.strip_ixp_asns = false;
  config.strip_reserved_asns = false;
  config.compress_prepending = false;
  config.discard_loops = false;
  config.discard_reserved = false;
  config.dedup = false;
  return config;
}

/// Degree tally by definition, over std::set: adjacency is every pair of
/// consecutive non-AS0 hops after collapsing prepending; a node's transit
/// neighbours are those seen beside it while it sits between two hops.
struct ReferenceDegrees {
  std::vector<std::set<NodeId>> adjacent;
  std::vector<std::set<NodeId>> transit;
};

ReferenceDegrees reference_degrees(const paths::PathArena& arena) {
  const std::size_t n = arena.interner().size();
  ReferenceDegrees ref{std::vector<std::set<NodeId>>(n), std::vector<std::set<NodeId>>(n)};
  for (std::size_t p = 0; p < arena.path_count(); ++p) {
    std::vector<NodeId> ids;
    for (const NodeId id : arena.path(p)) {
      if (ids.empty() || ids.back() != id) ids.push_back(id);
    }
    for (std::size_t i = 1; i < ids.size(); ++i) {
      if (ids[i - 1] == kNoNode || ids[i] == kNoNode) continue;
      ref.adjacent[ids[i - 1]].insert(ids[i]);
      ref.adjacent[ids[i]].insert(ids[i - 1]);
    }
    for (std::size_t i = 1; i + 1 < ids.size(); ++i) {
      if (ids[i] == kNoNode) continue;
      for (const NodeId y : {ids[i - 1], ids[i + 1]}) {
        if (y != kNoNode) ref.transit[ids[i]].insert(y);
      }
    }
  }
  return ref;
}

/// Customer-evidence witness counts the way the clique stage used to count
/// them: collect every (flagged node, origin) pair, sort, unique, tally.
std::vector<std::uint32_t> sorted_pair_evidence(const paths::PathArena& arena,
                                                const std::vector<NodeId>& members) {
  const std::size_t n = arena.interner().size();
  std::vector<bool> member(n, false);
  for (const NodeId m : members) member[m] = true;
  const auto in = [&](NodeId id) { return id != kNoNode && member[id]; };
  std::vector<std::uint64_t> pairs;
  for (std::size_t p = 0; p < arena.path_count(); ++p) {
    const auto ids = arena.path(p);
    if (ids.size() < 3) continue;
    const std::uint64_t origin = ids.back();
    for (std::size_t i = 0; i + 2 < ids.size(); ++i) {
      const bool first_in = in(ids[i]);
      const bool mid_in = in(ids[i + 1]);
      const bool last_in = in(ids[i + 2]);
      if (first_in && mid_in && !last_in && ids[i + 2] != kNoNode) {
        pairs.push_back(std::uint64_t{ids[i + 2]} << 32 | origin);
      }
      if (mid_in && last_in && !first_in && ids[i] != kNoNode) {
        pairs.push_back(std::uint64_t{ids[i]} << 32 | origin);
      }
      if (first_in && last_in && ids[i + 1] != kNoNode) {
        pairs.push_back(std::uint64_t{ids[i + 1]} << 32 | origin);
      }
    }
  }
  std::sort(pairs.begin(), pairs.end());
  pairs.erase(std::unique(pairs.begin(), pairs.end()), pairs.end());
  std::vector<std::uint32_t> witnesses(n, 0);
  for (const std::uint64_t pair : pairs) ++witnesses[pair >> 32];
  return witnesses;
}

// ------------------------------------------------------------- degrees ----

TEST(Degrees, TransitVsNodeDegree) {
  paths::PathCorpus corpus;
  corpus.add(rec(1, 1, {1, 2, 3}));
  corpus.add(rec(1, 2, {1, 2, 4}));
  const auto degrees = Degrees::compute(corpus);
  // 2 transits between 1 and {3,4}: transit neighbours {1,3,4}.
  EXPECT_EQ(degrees.transit_degree(Asn(2)), 3u);
  EXPECT_EQ(degrees.node_degree(Asn(2)), 3u);
  // 1, 3, 4 never transit.
  EXPECT_EQ(degrees.transit_degree(Asn(1)), 0u);
  EXPECT_EQ(degrees.transit_degree(Asn(3)), 0u);
  EXPECT_EQ(degrees.node_degree(Asn(3)), 1u);
}

TEST(Degrees, PrependingDoesNotInflate) {
  paths::PathCorpus corpus;
  corpus.add(rec(1, 1, {1, 2, 2, 3}));
  const auto degrees = Degrees::compute(corpus);
  EXPECT_EQ(degrees.node_degree(Asn(2)), 2u);
  EXPECT_EQ(degrees.transit_degree(Asn(2)), 2u);
}

TEST(Degrees, RankingOrderAndTies) {
  paths::PathCorpus corpus;
  corpus.add(rec(1, 1, {1, 10, 3}));
  corpus.add(rec(1, 2, {1, 10, 4}));
  corpus.add(rec(1, 3, {1, 20, 5}));
  const auto degrees = Degrees::compute(corpus);
  // 10 has transit degree 3; 20 has 2; leaf ties broken by ASN.
  EXPECT_EQ(degrees.ranked().front(), Asn(10));
  EXPECT_EQ(degrees.rank_of(Asn(10)), 0u);
  EXPECT_LT(degrees.rank_of(Asn(20)), degrees.rank_of(Asn(3)));
  EXPECT_LT(degrees.rank_of(Asn(3)), degrees.rank_of(Asn(4)));  // ASN tiebreak
  // Unknown AS ranks past the end.
  EXPECT_EQ(degrees.rank_of(Asn(999)), degrees.ranked().size());
}

TEST(Degrees, MatchesSetReferenceOnRandomArenas) {
  for (const std::uint64_t seed : {1ULL, 2ULL, 3ULL, 4ULL, 5ULL}) {
    const auto arena =
        paths::PathArena::build(random_corpus(seed, 600, 40 + 20 * seed), permissive_sanitizer());
    ASSERT_GT(arena.path_count(), 0u);
    const ReferenceDegrees ref = reference_degrees(arena);
    const std::size_t n = arena.interner().size();

    // The ranking by definition: transit desc, node degree desc, ASN asc,
    // over ASes with at least one neighbour.
    std::vector<NodeId> order;
    for (NodeId id = 0; id < n; ++id) {
      if (!ref.adjacent[id].empty()) order.push_back(id);
    }
    std::sort(order.begin(), order.end(), [&](NodeId a, NodeId b) {
      return std::tuple(ref.transit[b].size(), ref.adjacent[b].size(), a) <
             std::tuple(ref.transit[a].size(), ref.adjacent[a].size(), b);
    });
    std::vector<Asn> ranked;
    for (const NodeId id : order) ranked.push_back(arena.interner().asn_of(id));

    for (const std::size_t threads : {1u, 2u, 4u}) {
      const auto degrees = Degrees::compute(arena, threads);
      std::size_t transit_total = 0;
      for (NodeId id = 0; id < n; ++id) {
        const auto row = degrees.adjacency().neighbors(id);
        EXPECT_TRUE(std::equal(row.begin(), row.end(), ref.adjacent[id].begin(),
                               ref.adjacent[id].end()))
            << "seed " << seed << " threads " << threads << " id " << id;
        EXPECT_EQ(degrees.node_degree(id), ref.adjacent[id].size()) << "seed " << seed;
        EXPECT_EQ(degrees.transit_degree(id), ref.transit[id].size()) << "seed " << seed;
        transit_total += ref.transit[id].size();
      }
      EXPECT_GT(transit_total, 0u);
      EXPECT_EQ(degrees.ranked(), ranked) << "seed " << seed << " threads " << threads;
    }
  }
}

TEST(Degrees, RejectsIdSpacesTooWideForTheTallyEntry) {
  EXPECT_NO_THROW(detail::require_tally_id_space(0));
  EXPECT_NO_THROW(detail::require_tally_id_space(detail::kMaxTallyIds));
  EXPECT_THROW(detail::require_tally_id_space(std::size_t{1} << 31), std::length_error);
  EXPECT_THROW(detail::require_tally_id_space(std::size_t{1} << 32), std::length_error);
}

// -------------------------------------------------------------- clique ----

/// Observed adjacency over ids 0..nodes-1 with the given undirected edges.
ObservedAdjacency adjacency_of(std::size_t nodes,
                               std::initializer_list<std::pair<NodeId, NodeId>> edges) {
  std::vector<std::vector<NodeId>> rows(nodes);
  for (const auto& [a, b] : edges) {
    rows[a].push_back(b);
    rows[b].push_back(a);
  }
  std::vector<std::uint64_t> offsets{0};
  std::vector<NodeId> neighbors;
  for (auto& row : rows) {
    std::sort(row.begin(), row.end());
    neighbors.insert(neighbors.end(), row.begin(), row.end());
    offsets.push_back(neighbors.size());
  }
  return ObservedAdjacency(std::move(offsets), std::move(neighbors));
}

TEST(Clique, BronKerboschFindsAllMaximalCliques) {
  // Graph: triangle {1,2,3} plus edge 3-4.
  const auto adjacency = adjacency_of(5, {{1, 2}, {1, 3}, {2, 3}, {3, 4}});
  auto cliques = detail::maximal_cliques(adjacency, {1, 2, 3, 4});
  std::sort(cliques.begin(), cliques.end());
  ASSERT_EQ(cliques.size(), 2u);
  EXPECT_EQ(cliques[0], (std::vector<NodeId>{1, 2, 3}));
  EXPECT_EQ(cliques[1], (std::vector<NodeId>{3, 4}));
}

TEST(Clique, SingletonWhenNoEdges) {
  const auto adjacency = adjacency_of(3, {});
  const auto cliques = detail::maximal_cliques(adjacency, {1, 2});
  EXPECT_EQ(cliques.size(), 2u);  // two singletons
}

TEST(Clique, InferRecoversMeshedTop) {
  // Three meshed top ASes (10,20,30) each serving customers; the mesh is
  // visible because paths cross it.
  paths::PathCorpus corpus;
  corpus.add(rec(100, 1, {100, 10, 20, 200}));
  corpus.add(rec(100, 2, {100, 10, 30, 300}));
  corpus.add(rec(200, 3, {200, 20, 10, 100}));
  corpus.add(rec(200, 4, {200, 20, 30, 300}));
  corpus.add(rec(300, 5, {300, 30, 10, 100}));
  corpus.add(rec(300, 6, {300, 30, 20, 200}));
  const auto arena = arena_of(corpus);
  const auto degrees = Degrees::compute(arena);
  const auto clique = infer_clique(arena, degrees, CliqueConfig{});
  EXPECT_EQ(clique, (std::vector<Asn>{Asn(10), Asn(20), Asn(30)}));
}

TEST(Clique, CustomerEvidenceBlocksBigCustomer) {
  // 40 is a large transit customer: it is adjacent to clique members and
  // has plenty of transit degree of its own, but appears after the
  // consecutive pair (10,20) in a path, which proves it buys transit.
  paths::PathCorpus corpus;
  // Make 10 and 20 clearly the top by transit degree.
  for (std::uint32_t i = 0; i < 8; ++i) {
    corpus.add(rec(100, 10 + i, {100, 10, 500 + i}));
    corpus.add(rec(200, 30 + i, {200, 20, 600 + i}));
  }
  corpus.add(rec(100, 1, {100, 10, 20, 200}));
  corpus.add(rec(200, 2, {200, 20, 10, 100}));
  corpus.add(rec(100, 3, {100, 10, 20, 40, 400}));
  corpus.add(rec(300, 4, {300, 40, 401}));
  corpus.add(rec(300, 5, {300, 40, 402}));
  corpus.add(rec(300, 6, {300, 40, 403}));
  const auto arena = arena_of(corpus);
  const auto degrees = Degrees::compute(arena);
  ASSERT_LT(degrees.rank_of(Asn(10)), degrees.rank_of(Asn(40)));
  CliqueConfig config;
  config.max_missing_links = 3;  // adjacency tolerance alone could admit 40
  const auto clique = infer_clique(arena, degrees, config);
  EXPECT_EQ(std::count(clique.begin(), clique.end(), Asn(40)), 0);
}

TEST(Clique, OriginBucketsGroupEveryLongPathOnce) {
  const auto arena = paths::PathArena::build(random_corpus(11, 500, 30), permissive_sanitizer());
  const auto by_origin = detail::paths_by_origin(arena);
  std::vector<std::uint32_t> expected;
  for (std::size_t p = 0; p < arena.path_count(); ++p) {
    if (arena.path(p).size() >= 3) expected.push_back(static_cast<std::uint32_t>(p));
  }
  std::vector<std::uint32_t> sorted(by_origin.begin(), by_origin.end());
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(sorted, expected);
  // Origins ascend, kNoNode (AS0) last; ids ascend within an origin.
  const auto key = [&](std::uint32_t p) {
    const NodeId origin = arena.path(p).back();
    return std::pair<std::uint64_t, std::uint32_t>(
        origin == kNoNode ? arena.interner().size() : origin, p);
  };
  for (std::size_t i = 1; i < by_origin.size(); ++i) {
    EXPECT_LT(key(by_origin[i - 1]), key(by_origin[i]));
  }
  EXPECT_EQ(arena.path(by_origin.back()).back(), kNoNode);
}

TEST(Clique, CustomerEvidenceMatchesSortedPairReference) {
  std::size_t witnessed = 0;
  for (const std::uint64_t seed : {21ULL, 22ULL, 23ULL, 24ULL}) {
    const auto arena =
        paths::PathArena::build(random_corpus(seed, 800, 25), permissive_sanitizer());
    const auto by_origin = detail::paths_by_origin(arena);
    std::mt19937_64 rng(seed);
    for (int round = 0; round < 6; ++round) {
      std::vector<NodeId> members;
      for (NodeId id = 0; id < arena.interner().size(); ++id) {
        if (rng() % 3 == 0) members.push_back(id);
      }
      const auto want = sorted_pair_evidence(arena, members);
      EXPECT_EQ(detail::customer_evidence(arena, by_origin, members), want)
          << "seed " << seed << " round " << round;
      for (const std::uint32_t w : want) witnessed += w > 1;
    }
  }
  EXPECT_GT(witnessed, 0u);  // multi-origin witnesses occur, so dedup is exercised
}

TEST(Clique, EmptyCorpusYieldsEmptyClique) {
  const auto arena = arena_of(paths::PathCorpus{});
  const auto degrees = Degrees::compute(arena);
  EXPECT_TRUE(infer_clique(arena, degrees, CliqueConfig{}).empty());
}

// ------------------------------------------------------------ pipeline ----

/// Corpus over the hand topology used in test_bgpsim:
///   1-2 p2p (clique);  1->3, 1->4, 2->5 p2c;  4-5 p2p;  3->6, 4->7, 5->8.
/// Paths are written as a collector behind VPs 3 and 5 would see them.
paths::PathCorpus hand_corpus() {
  paths::PathCorpus corpus;
  std::uint32_t prefix = 0;
  auto add = [&](std::uint32_t vp, std::initializer_list<std::uint32_t> hops) {
    corpus.add(rec(vp, ++prefix, hops));
  };
  add(3, {3, 6});            // own customer
  add(3, {3, 1, 4, 7});      // via provider, descend to 7
  add(3, {3, 1, 2, 5, 8});   // cross the clique
  add(3, {3, 1, 2, 5});      //
  add(3, {3, 1, 4});         //
  add(3, {3, 1, 2});         //
  add(5, {5, 8});            //
  add(5, {5, 4, 7});         // peer route
  add(5, {5, 2, 1, 3, 6});   // cross the clique
  add(5, {5, 2, 1, 4});      // via provider
  add(5, {5, 2, 1, 3});      //
  add(4, {4, 7});            //
  add(4, {4, 1, 3, 6});      //
  add(4, {4, 5, 8});         // peer route from 4's side
  add(4, {4, 1, 2, 5});      //
  return corpus;
}

// The hand topology is tiny, so the Bron-Kerbosch seed must be wide enough
// to reach AS2, whose transit degree trails the tier-2 ASes.
InferenceConfig hand_config() {
  InferenceConfig config;
  config.clique.seed_size = 4;
  return config;
}

InferenceResult run_hand(InferenceConfig config = hand_config()) {
  return AsRankInference(config).run(hand_corpus());
}

/// Relationship of `neighbor` from `as`'s side in the inferred view, read
/// like AsGraph::view.
std::optional<RelView> relationship(const InferenceResult& result, Asn as, Asn neighbor) {
  const NodeId a = result.graph.interner().id_of(as);
  const NodeId b = result.graph.interner().id_of(neighbor);
  if (a == kNoNode || b == kNoNode) return std::nullopt;
  return result.graph.relationship(a, b);
}

TEST(Pipeline, InfersCliqueOnHandTopology) {
  const auto result = run_hand();
  EXPECT_EQ(result.clique, (std::vector<Asn>{Asn(1), Asn(2)}));
  EXPECT_EQ(relationship(result, Asn(1), Asn(2)), RelView::kPeer);
}

TEST(Pipeline, InfersTransitChains) {
  const auto result = run_hand();
  EXPECT_EQ(relationship(result, Asn(3), Asn(1)), RelView::kProvider);
  EXPECT_EQ(relationship(result, Asn(4), Asn(1)), RelView::kProvider);
  EXPECT_EQ(relationship(result, Asn(5), Asn(2)), RelView::kProvider);
  EXPECT_EQ(relationship(result, Asn(6), Asn(3)), RelView::kProvider);
  EXPECT_EQ(relationship(result, Asn(7), Asn(4)), RelView::kProvider);
  EXPECT_EQ(relationship(result, Asn(8), Asn(5)), RelView::kProvider);
}

TEST(Pipeline, InfersMidLevelPeering) {
  const auto result = run_hand();
  EXPECT_EQ(relationship(result, Asn(4), Asn(5)), RelView::kPeer);
}

TEST(Pipeline, ResultIsAcyclicAndComplete) {
  const auto result = run_hand();
  EXPECT_TRUE(result.audit.p2c_acyclic);
  // Every observed link is annotated.
  EXPECT_EQ(result.graph.link_count(), hand_corpus().link_observations().size());
}

TEST(Pipeline, SanitizesBeforeInference) {
  auto corpus = hand_corpus();
  corpus.add(rec(3, 900, {3, 1, 64512, 2, 5}));  // leaked private ASN
  corpus.add(rec(3, 901, {3, 1, 2, 1, 5}));      // loop
  InferenceConfig config;
  config.clique.seed_size = 4;
  const auto result = AsRankInference(config).run(corpus);
  EXPECT_EQ(result.audit.sanitize.reserved_discarded, 1u);
  EXPECT_EQ(result.audit.sanitize.loops_discarded, 1u);
  EXPECT_FALSE(result.graph.interner().contains(Asn(64512)));
}

TEST(Pipeline, KeptAs0HopsPlaceNoLinks) {
  // With reserved-ASN discard off, AS0 survives sanitizing but is never
  // interned: its paths count toward degrees and the clique and place no
  // link.
  auto corpus = hand_corpus();
  corpus.add(rec(3, 900, {3, 0, 9}));
  corpus.add(rec(5, 901, {5, 2, 0, 0, 9, 10}));
  InferenceConfig config = hand_config();
  config.sanitizer.discard_reserved = false;
  const auto result = AsRankInference(config).run(corpus);
  EXPECT_EQ(result.audit.sanitize.reserved_discarded, 0u);
  EXPECT_EQ(result.arena.records().size(), hand_corpus().size() + 2);
  EXPECT_FALSE(result.graph.interner().contains(Asn(9)));
  EXPECT_EQ(result.graph.link_count(), hand_corpus().link_observations().size());
  EXPECT_EQ(result.clique, (std::vector<Asn>{Asn(1), Asn(2)}));
}

TEST(Pipeline, DiscardsPoisonedPaths) {
  auto corpus = hand_corpus();
  // Paths with clique members separated by a non-clique AS.  Two distinct
  // origins witness AS9 between the tier-1s, so the clique's
  // customer-evidence rule (min 2 origins) refuses to admit it, and the
  // paths are then non-contiguous in clique hops -> poisoned.
  corpus.add(rec(3, 902, {3, 1, 9, 2, 5}));
  corpus.add(rec(5, 903, {5, 2, 9, 1, 3}));
  InferenceConfig config;
  config.clique.seed_size = 4;
  const auto result = AsRankInference(config).run(corpus);
  EXPECT_EQ(result.audit.poisoned_discarded, 2u);
  EXPECT_FALSE(result.graph.interner().contains(Asn(9)));
}

TEST(Pipeline, PoisonDiscardCanBeDisabled) {
  auto corpus = hand_corpus();
  corpus.add(rec(3, 902, {3, 1, 9, 2, 5}));
  corpus.add(rec(5, 903, {5, 2, 9, 1, 3}));
  InferenceConfig config;
  config.clique.seed_size = 4;
  config.discard_poisoned = false;
  const auto result = AsRankInference(config).run(corpus);
  EXPECT_EQ(result.audit.poisoned_discarded, 0u);
  EXPECT_TRUE(result.graph.interner().contains(Asn(9)));
}

TEST(Pipeline, SingleOriginCannotPoisonClique) {
  // One poisoning origin alone must not eject true members or smuggle its
  // inserted AS into the clique.
  auto corpus = hand_corpus();
  corpus.add(rec(3, 904, {3, 1, 9, 2, 5}));  // only origin 5 witnesses
  InferenceConfig config;
  config.clique.seed_size = 4;
  const auto result = AsRankInference(config).run(corpus);
  EXPECT_EQ(result.clique.size(), 2u);
  EXPECT_TRUE(std::binary_search(result.clique.begin(), result.clique.end(), Asn(1)));
  EXPECT_TRUE(std::binary_search(result.clique.begin(), result.clique.end(), Asn(2)));
}

TEST(Pipeline, PartialVpPathsDescend) {
  // VP 50 is partial: tiny table, all customer routes.
  paths::PathCorpus corpus = hand_corpus();
  corpus.add(rec(50, 910, {50, 51}));
  corpus.add(rec(50, 911, {50, 51, 52}));
  InferenceConfig config;
  config.clique.seed_size = 4;
  config.partial_vp_threshold = 0.5;
  const auto result = AsRankInference(config).run(corpus);
  EXPECT_GE(result.audit.partial_vps, 1u);
  EXPECT_EQ(relationship(result, Asn(51), Asn(50)), RelView::kProvider);
  EXPECT_EQ(relationship(result, Asn(52), Asn(51)), RelView::kProvider);
}

// A looped path that crosses link 1-9 twice, once in each direction.  Its
// first walk commits 1 -> 9 going backward from the clique link and then
// reads the same link descending; walked again, it also reads it from the
// other side.  So the fixpoint must re-walk it on every visit: counted from
// its first walk, the second iteration would report one violation too few.
// The expected counts are those of walking every record every iteration.
TEST(Pipeline, FixpointRewalksPathsThatRepeatALink) {
  auto corpus = hand_corpus();
  corpus.add(rec(3, 920, {3, 1, 9, 1, 2}));
  auto config = hand_config();
  config.sanitizer.discard_loops = false;
  config.discard_poisoned = false;
  const auto result = AsRankInference(config).run(corpus);
  EXPECT_EQ(relationship(result, Asn(9), Asn(1)), RelView::kProvider);
  EXPECT_EQ(result.audit.triplet_inferred, 4u);
  EXPECT_EQ(result.audit.valley_violations, 3u);
}

/// The post-step-4 corpus by definition: the sanitized records, in order,
/// minus those whose clique hops are not one contiguous run.
paths::PathCorpus reference_sanitized(const paths::PathCorpus& raw, const InferenceConfig& config,
                                      const std::vector<Asn>& clique) {
  const auto arena = paths::PathArena::build(raw, config.sanitizer);
  paths::PathCorpus out;
  for (const auto& record : arena.records()) {
    const AsPath path = arena.as_path(record.path);
    const auto hops = path.hops();
    std::vector<std::size_t> at;
    for (std::size_t i = 0; i < hops.size(); ++i) {
      if (std::binary_search(clique.begin(), clique.end(), hops[i])) at.push_back(i);
    }
    const bool poisoned = config.discard_poisoned && !at.empty() &&
                          at.back() - at.front() + 1 != at.size();
    if (!poisoned) out.add(record.vp, record.prefix, path);
  }
  return out;
}

TEST(Pipeline, SanitizedReturnsSurvivingRecordsInOrder) {
  auto corpus = hand_corpus();
  corpus.add(rec(3, 902, {3, 1, 9, 2, 5}));  // poisoned (see DiscardsPoisonedPaths)
  corpus.add(rec(5, 903, {5, 2, 9, 1, 3}));
  corpus.add(rec(3, 904, {3, 1, 2, 1, 5}));  // loop
  corpus.add(rec(3, 905, {3, 3, 1, 4}));     // prepending
  corpus.add(rec(3, 905, {3, 1, 4}));        // duplicate once compressed
  std::vector<std::pair<paths::PathCorpus, InferenceConfig>> cases;
  cases.emplace_back(corpus, hand_config());
  for (const std::uint64_t seed : {31ULL, 32ULL}) {
    cases.emplace_back(random_corpus(seed, 500, 30), InferenceConfig{});
  }
  for (const auto& [raw, config] : cases) {
    const auto result = AsRankInference(config).run(raw);
    const auto sanitized = result.arena.materialize();
    const auto want = reference_sanitized(raw, config, result.clique);
    EXPECT_TRUE(std::equal(sanitized.records().begin(), sanitized.records().end(),
                           want.records().begin(), want.records().end()));
    EXPECT_EQ(result.arena.records().size() + result.audit.poisoned_discarded,
              result.audit.sanitize.output_records);
  }
  EXPECT_EQ(AsRankInference(hand_config()).run(corpus).audit.poisoned_discarded, 2u);
}

TEST(Pipeline, StubCliqueHeuristic) {
  auto corpus = hand_corpus();
  // Stub 60 hangs directly off clique member 1 and is seen nowhere else.
  corpus.add(rec(3, 920, {3, 1, 60}));
  InferenceConfig config;
  config.clique.seed_size = 4;
  const auto result = AsRankInference(config).run(corpus);
  EXPECT_EQ(relationship(result, Asn(60), Asn(1)), RelView::kProvider);
}

TEST(Pipeline, EmptyCorpus) {
  const auto result = AsRankInference().run(paths::PathCorpus{});
  EXPECT_EQ(result.graph.link_count(), 0u);
  EXPECT_TRUE(result.clique.empty());
  EXPECT_TRUE(result.audit.p2c_acyclic);
}

TEST(Pipeline, DeterministicAcrossRuns) {
  const auto a = run_hand();
  const auto b = run_hand();
  EXPECT_EQ(a.graph.to_graph().links(), b.graph.to_graph().links());
  EXPECT_EQ(a.clique, b.clique);
}

TEST(Pipeline, EnforcesTransitFreeClique) {
  // Overwhelm the voting with paths that make clique member 2 look like a
  // customer of tier-2 AS 5 (e.g. systematic apex misidentification); the
  // A1-enforcement stage must re-orient the link.
  auto corpus = hand_corpus();
  const auto result = run_hand();
  ASSERT_TRUE(result.audit.p2c_acyclic);
  const AsGraph graph = result.graph.to_graph();
  for (const Asn member : result.clique) {
    // No neighbour may be the member's provider: tier-1s are transit-free.
    EXPECT_TRUE(graph.providers(member).empty())
        << "clique member AS" << member.value() << " buys transit";
  }
}

TEST(Pipeline, InfersSiblingsFromBidirectionalTransit) {
  // 21 and 22 are siblings under 1: each appears providing for the other
  // (routes flow 1 -> 21 -> 22 -> leaf and 1 -> 22 -> 21 -> leaf).
  auto corpus = hand_corpus();
  std::uint32_t prefix = 5000;
  auto add = [&](std::uint32_t vp, std::initializer_list<std::uint32_t> hops) {
    corpus.add(paths::PathRecord{Asn(vp), Prefix::v4(++prefix << 8, 24), AsPath(hops)});
  };
  for (int i = 0; i < 4; ++i) {
    add(3, {3, 1, 21, 22, 31});
    add(4, {4, 1, 22, 21, 32});
    add(5, {5, 2, 1, 21, 22, 31});
    add(5, {5, 2, 1, 22, 21, 32});
  }
  auto config = hand_config();
  const auto result = AsRankInference(config).run(corpus);
  EXPECT_EQ(relationship(result, Asn(21), Asn(22)), RelView::kSibling);
  EXPECT_GE(result.audit.siblings_inferred, 1u);
  // The links above/below the sibling pair stay transit.
  EXPECT_EQ(relationship(result, Asn(21), Asn(1)), RelView::kProvider);
  EXPECT_EQ(relationship(result, Asn(31), Asn(22)), RelView::kProvider);
}

TEST(Pipeline, SiblingDetectionCanBeDisabled) {
  auto corpus = hand_corpus();
  std::uint32_t prefix = 5000;
  auto add = [&](std::uint32_t vp, std::initializer_list<std::uint32_t> hops) {
    corpus.add(paths::PathRecord{Asn(vp), Prefix::v4(++prefix << 8, 24), AsPath(hops)});
  };
  for (int i = 0; i < 4; ++i) {
    add(3, {3, 1, 21, 22, 31});
    add(4, {4, 1, 22, 21, 32});
  }
  auto config = hand_config();
  config.sibling_conflict_ratio = 0.0;
  const auto result = AsRankInference(config).run(corpus);
  EXPECT_EQ(result.audit.siblings_inferred, 0u);
  const auto view = relationship(result, Asn(21), Asn(22));
  ASSERT_TRUE(view);
  EXPECT_NE(*view, RelView::kSibling);
}

TEST(Pipeline, OneSidedEvidenceIsNotASibling) {
  // A plain transit chain must never be labelled s2s however often seen.
  auto corpus = hand_corpus();
  std::uint32_t prefix = 6000;
  for (int i = 0; i < 10; ++i) {
    corpus.add(paths::PathRecord{Asn(3), Prefix::v4(++prefix << 8, 24),
                                 AsPath({3, 1, 4, 7})});
  }
  const auto result = AsRankInference(hand_config()).run(corpus);
  EXPECT_EQ(relationship(result, Asn(7), Asn(4)), RelView::kProvider);
  EXPECT_EQ(result.audit.siblings_inferred, 0u);
}

// --------------------------------------------------------------- cones ----

/// Hand DAG:  1 -> 2 -> 4;  1 -> 3;  2 -> 5;  3 -> 5  (5 multihomed).
AsGraph cone_graph() {
  AsGraph g;
  g.add_p2c(Asn(1), Asn(2));
  g.add_p2c(Asn(1), Asn(3));
  g.add_p2c(Asn(2), Asn(4));
  g.add_p2c(Asn(2), Asn(5));
  g.add_p2c(Asn(3), Asn(5));
  return g;
}

/// `corpus` as an arena with every sanitizer stage off, as the CLI passes a
/// raw corpus to the observed cones.
paths::PathArena raw_arena(const paths::PathCorpus& corpus) {
  return paths::PathArena::build(corpus, permissive_sanitizer());
}

std::vector<Asn> row(const ConeMap& cones, Asn as) {
  const auto members = cones.at(as);
  return {members.begin(), members.end()};
}

TEST(Cones, RecursiveClosure) {
  const auto cones = recursive_cone(cone_graph());
  EXPECT_EQ(row(cones, Asn(1)),
            (std::vector<Asn>{Asn(1), Asn(2), Asn(3), Asn(4), Asn(5)}));
  EXPECT_EQ(row(cones, Asn(2)), (std::vector<Asn>{Asn(2), Asn(4), Asn(5)}));
  EXPECT_EQ(row(cones, Asn(3)), (std::vector<Asn>{Asn(3), Asn(5)}));
  EXPECT_EQ(row(cones, Asn(4)), (std::vector<Asn>{Asn(4)}));
}

TEST(Cones, RecursiveRejectsCycles) {
  AsGraph g;
  g.add_p2c(Asn(1), Asn(2));
  g.add_p2c(Asn(2), Asn(3));
  g.add_p2c(Asn(3), Asn(1));
  EXPECT_THROW((void)recursive_cone(g), std::invalid_argument);
}

TEST(Cones, BreakProviderCyclesImposesRankOrder) {
  // 1 -> 2 -> 3 -> 1 is a provider cycle.  Transit evidence ranks 1 above
  // 2 above 3, so the repair re-orients only the 3 -> 1 edge and the result
  // satisfies the closure's DAG precondition.
  AsGraph g;
  g.add_p2c(Asn(1), Asn(2));
  g.add_p2c(Asn(2), Asn(3));
  g.add_p2c(Asn(3), Asn(1));
  paths::PathCorpus corpus;
  corpus.add(rec(9, 1, {9, 1, 2}));
  corpus.add(rec(9, 2, {9, 1, 3}));
  corpus.add(rec(8, 3, {8, 2, 3}));
  const auto degrees = Degrees::compute(corpus);
  ASSERT_LT(degrees.rank_of(Asn(1)), degrees.rank_of(Asn(2)));
  ASSERT_LT(degrees.rank_of(Asn(2)), degrees.rank_of(Asn(3)));

  EXPECT_EQ(break_provider_cycles(g, degrees), 1u);
  EXPECT_TRUE(g.p2c_acyclic());
  // Edges agreeing with the ranking are untouched; 3 -> 1 flipped.
  EXPECT_EQ(g.view(Asn(1), Asn(2)), RelView::kCustomer);
  EXPECT_EQ(g.view(Asn(2), Asn(3)), RelView::kCustomer);
  EXPECT_EQ(g.view(Asn(1), Asn(3)), RelView::kCustomer);
  const auto cones = recursive_cone(g);
  EXPECT_EQ(row(cones, Asn(1)), (std::vector<Asn>{Asn(1), Asn(2), Asn(3)}));

  // Acyclic input is the common case and a strict no-op.
  AsGraph dag = cone_graph();
  EXPECT_EQ(break_provider_cycles(dag, degrees), 0u);
  EXPECT_EQ(dag.view(Asn(1), Asn(2)), RelView::kCustomer);
}

TEST(Cones, BgpObservedNeedsActualPaths) {
  const AsGraph g = cone_graph();
  paths::PathCorpus corpus;
  corpus.add(rec(9, 1, {1, 2, 4}));  // descent 1->2->4 observed
  const auto cones = bgp_observed_cone(g.freeze(), raw_arena(corpus));
  EXPECT_EQ(row(cones, Asn(1)), (std::vector<Asn>{Asn(1), Asn(2), Asn(4)}));
  // 5 was never observed below anyone.
  EXPECT_EQ(row(cones, Asn(3)), (std::vector<Asn>{Asn(3)}));
}

TEST(Cones, BgpObservedStopsAtNonP2cLink) {
  AsGraph g = cone_graph();
  g.add_p2p(Asn(4), Asn(6));
  paths::PathCorpus corpus;
  corpus.add(rec(9, 1, {1, 2, 4, 6}));  // 4-6 is peering: descent ends at 4
  const auto cones = bgp_observed_cone(g.freeze(), raw_arena(corpus));
  EXPECT_EQ(row(cones, Asn(1)), (std::vector<Asn>{Asn(1), Asn(2), Asn(4)}));
}

TEST(Cones, BgpObservedKeysOnlyGraphAsesAndRoundTripsThroughPpdc) {
  // 99 and 98 are not in the graph: 99 heads the path and 98 ends one, so
  // neither gets a row, and the written file reads back as the same cones.
  const AsGraph g = cone_graph();
  paths::PathCorpus corpus;
  corpus.add(rec(99, 1, {99, 1, 2, 4}));
  corpus.add(rec(3, 2, {3, 5, 98}));
  const auto cones = bgp_observed_cone(g.freeze(), raw_arena(corpus));
  EXPECT_FALSE(cones.contains(Asn(99)));
  EXPECT_FALSE(cones.contains(Asn(98)));
  EXPECT_EQ(cones.size(), g.ases().size());
  EXPECT_EQ(row(cones, Asn(1)), (std::vector<Asn>{Asn(1), Asn(2), Asn(4)}));
  EXPECT_EQ(row(cones, Asn(3)), (std::vector<Asn>{Asn(3), Asn(5)}));

  std::stringstream text;
  write_ppdc(cones, text);
  const auto read = try_read_ppdc(text);
  ASSERT_TRUE(read.ok()) << read.error().message();
  EXPECT_EQ(read.value(), cones);
}

TEST(Cones, ProviderPeerObservedRequiresDescentFromAbove) {
  const AsGraph g = cone_graph();
  paths::PathCorpus corpus;
  // 2 is reached via its provider 1, then descends to 5: the 2->5 link is
  // proven.  The 1->2 link itself has nobody above 1, so cone(1) via this
  // method includes only what the closure over proven links gives it.
  corpus.add(rec(9, 1, {1, 2, 5}));
  const auto cones = provider_peer_observed_cone(g.freeze(), raw_arena(corpus));
  EXPECT_EQ(row(cones, Asn(2)), (std::vector<Asn>{Asn(2), Asn(5)}));
  EXPECT_EQ(row(cones, Asn(1)), (std::vector<Asn>{Asn(1)}));  // no proven 1->x link
}

TEST(Cones, ProviderPeerUsesPeerPrecedingToo) {
  AsGraph g = cone_graph();
  g.add_p2p(Asn(1), Asn(7));
  paths::PathCorpus corpus;
  corpus.add(rec(9, 1, {7, 1, 2, 5}));  // 1 reached via peer 7: 1->2, 2->5 proven
  const auto cones = provider_peer_observed_cone(g.freeze(), raw_arena(corpus));
  EXPECT_EQ(row(cones, Asn(1)), (std::vector<Asn>{Asn(1), Asn(2), Asn(5)}));
}

TEST(Cones, EveryConeContainsSelf) {
  const AsGraph g = cone_graph();
  const auto view = g.freeze();
  const auto arena = raw_arena(paths::PathCorpus{});
  for (const auto& [name, cones] :
       {std::pair{"recursive", recursive_cone(g)},
        std::pair{"bgp-observed", bgp_observed_cone(view, arena)},
        std::pair{"provider-peer-observed", provider_peer_observed_cone(view, arena)}}) {
    for (const auto& [as, members] : cones) {
      EXPECT_TRUE(std::binary_search(members.begin(), members.end(), as)) << name;
    }
  }
}

TEST(Cones, ContainmentInvariant) {
  // recursive >= ppdc and recursive >= bgp-observed, member-wise.
  const auto result = run_hand();
  const auto& view = result.graph;
  const auto recursive = recursive_cone(view);
  const auto ppdc = provider_peer_observed_cone(view, result.arena);
  const auto observed = bgp_observed_cone(view, result.arena);
  for (const auto& [as, members] : recursive) {
    const auto& p = ppdc.at(as);
    const auto& o = observed.at(as);
    EXPECT_TRUE(std::includes(members.begin(), members.end(), p.begin(), p.end()));
    EXPECT_TRUE(std::includes(members.begin(), members.end(), o.begin(), o.end()));
  }
}

/// Is b a customer of a in `g`?  AS0 and ASes outside the graph have no
/// links.
bool reference_p2c(const AsGraph& g, Asn a, Asn b) {
  const auto rel = g.view(a, b);
  return rel && *rel == RelView::kCustomer;
}

/// One row per graph AS, from per-AS member sets that hold only graph ASes.
ConeMap reference_cone_map(const AsGraph& g, std::map<Asn, std::set<Asn>> members) {
  ConeMap out;
  for (const Asn as : g.ases()) {
    members[as].insert(as);
    const std::vector<Asn> row(members[as].begin(), members[as].end());
    out.append(as, row);
  }
  return out;
}

/// BGP-observed cones by definition, one record at a time in ASN space:
/// every AS on a contiguous p2c descent after `as` in some path.
ConeMap reference_bgp_observed(const AsGraph& g, const paths::PathCorpus& corpus) {
  std::map<Asn, std::set<Asn>> members;
  for (const auto& record : corpus.records()) {
    const auto hops = record.path.hops();
    for (std::size_t i = 0; i < hops.size(); ++i) {
      for (std::size_t j = i + 1; j < hops.size() && reference_p2c(g, hops[j - 1], hops[j]);
           ++j) {
        members[hops[i]].insert(hops[j]);
      }
    }
  }
  return reference_cone_map(g, std::move(members));
}

/// Provider/peer-observed cones by definition: the p2c links seen on a
/// descent that entered its first provider from that provider's provider or
/// peer, one record at a time, then closed by depth-first search.
ConeMap reference_ppdc(const AsGraph& g, const paths::PathCorpus& corpus) {
  std::map<Asn, std::set<Asn>> proven;
  for (const auto& record : corpus.records()) {
    const auto hops = record.path.hops();
    for (std::size_t i = 1; i + 1 < hops.size(); ++i) {
      const auto preceding = g.view(hops[i], hops[i - 1]);
      if (!preceding || (*preceding != RelView::kProvider && *preceding != RelView::kPeer)) {
        continue;
      }
      for (std::size_t j = i; j + 1 < hops.size() && reference_p2c(g, hops[j], hops[j + 1]);
           ++j) {
        proven[hops[j]].insert(hops[j + 1]);
      }
    }
  }
  std::map<Asn, std::set<Asn>> members;
  for (const Asn as : g.ases()) {
    std::vector<Asn> stack{as};
    while (!stack.empty()) {
      const Asn top = stack.back();
      stack.pop_back();
      for (const Asn customer : proven[top]) {
        if (members[as].insert(customer).second) stack.push_back(customer);
      }
    }
  }
  return reference_cone_map(g, std::move(members));
}

TEST(Cones, ObservedConesMatchPerRecordReference) {
  // Seeded worlds with every pathology the simulator injects, plus AS0 hops
  // and ASes outside both graphs.  Each arena is checked against the
  // per-record reference over its own records: the pipeline's (post-step-4)
  // arena, under default sanitizing and with AS0 hops kept, and an arena
  // with every stage off over the raw corpus.  Against the inferred graph
  // and the ground truth, at 1, 2 and 4 workers.
  for (const std::uint64_t seed : {3ULL, 17ULL}) {
    auto gen = topogen::GenParams::preset("tiny");
    gen.seed = seed;
    const auto truth = topogen::generate(gen);
    bgpsim::ObservationParams params;
    params.seed = seed + 1;
    params.full_vps = 12;
    params.partial_vps = 4;
    params.prepend_prob = 0.1;
    params.poison_prob = 0.05;
    params.private_leak_prob = 0.05;
    const auto observation = bgpsim::observe(truth, params);
    ASSERT_GT(observation.audit.prepended, 0u);
    ASSERT_GT(observation.audit.poisoned(), 0u);
    ASSERT_GT(observation.audit.private_leaked, 0u);

    std::mt19937_64 rng(seed);
    paths::PathCorpus raw;
    for (std::size_t r = 0; r < observation.routes.size(); ++r) {
      const auto& route = observation.routes[r];
      std::vector<Asn> hops(route.path.hops().begin(), route.path.hops().end());
      if (r % 11 == 0) hops.insert(hops.begin() + rng() % (hops.size() + 1), Asn(0));
      if (r % 13 == 0) {
        const Asn stranger(3000000000U + static_cast<std::uint32_t>(rng() % 4));
        hops.insert(hops.begin() + rng() % (hops.size() + 1), stranger);
      }
      raw.add(route.vp, route.prefix, AsPath(hops));
    }

    std::vector<std::pair<paths::PathArena, paths::PathCorpus>> arenas;
    arenas.emplace_back(raw_arena(raw), raw);
    std::vector<AsGraph> graphs{truth.graph};
    for (const bool keep_as0 : {false, true}) {
      InferenceConfig config;
      config.sanitizer.discard_reserved = !keep_as0;
      auto result = AsRankInference(config).run(raw);
      auto records = reference_sanitized(raw, config, result.clique);
      arenas.emplace_back(std::move(result.arena), std::move(records));
      graphs.push_back(result.graph.to_graph());
    }
    for (const AsGraph& graph : graphs) {
      const auto view = graph.freeze();
      for (const auto& [arena, records] : arenas) {
        const auto bgp = reference_bgp_observed(graph, records);
        const auto ppdc = reference_ppdc(graph, records);
        for (const std::size_t threads : {1u, 2u, 4u}) {
          EXPECT_EQ(bgp_observed_cone(view, arena, threads), bgp) << seed << " " << threads;
          EXPECT_EQ(provider_peer_observed_cone(view, arena, threads), ppdc)
              << seed << " " << threads;
        }
      }
    }
  }
}

// ------------------------------------------------------------- ranking ----

TEST(Ranking, OrdersByConeSizeThenTransitDegree) {
  const auto result = run_hand();
  const auto cones = recursive_cone(result.graph);
  const auto entries = rank_by_cone(cones, result.degrees);
  ASSERT_FALSE(entries.empty());
  for (std::size_t i = 1; i < entries.size(); ++i) {
    EXPECT_GE(entries[i - 1].cone_size, entries[i].cone_size);
    EXPECT_EQ(entries[i].rank, i + 1);
  }
  // Clique members 1 and 2 have the two largest cones.
  EXPECT_TRUE(entries[0].as == Asn(1) || entries[0].as == Asn(2));
}

TEST(Ranking, TopNTruncates) {
  const auto result = run_hand();
  const auto cones = recursive_cone(result.graph);
  EXPECT_EQ(top_n(cones, result.degrees, 3).size(), 3u);
  EXPECT_EQ(top_n(cones, result.degrees, 1000).size(), cones.size());
}

}  // namespace
}  // namespace asrank::core
