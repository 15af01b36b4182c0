#include <gtest/gtest.h>

#include <cstdint>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "algo/registry.h"
#include "baselines/tor_local_search.h"
#include "bgpsim/observation.h"
#include "core/asrank.h"
#include "core/cones.h"
#include "core/degrees.h"
#include "paths/sanitizer.h"
#include "topogen/topogen.h"
#include "topology/serialization.h"
#include "util/crc32.h"
#include "validation/ppv.h"

namespace asrank::baselines {
namespace {

/// Every algorithm under test is constructed through the registry — the same
/// path the CLI and snapshot builder use — so these tests also pin the
/// registry's name->config plumbing.
std::unique_ptr<algo::InferenceAlgorithm> make(std::string_view name,
                                               algo::AlgorithmOptions options = {}) {
  auto made = algo::create(name, options);
  EXPECT_TRUE(made.ok()) << (made.ok() ? "" : made.error().message());
  return std::move(made).value();
}

paths::PathRecord rec(std::uint32_t vp, std::uint32_t prefix_id,
                      std::initializer_list<std::uint32_t> hops) {
  return paths::PathRecord{Asn(vp), Prefix::v4(prefix_id << 8, 24), AsPath(hops)};
}

/// Star provider 10 with customers 1..4; plus 20 serving 5,6; VP paths give
/// 10 the largest degree.
paths::PathCorpus star_corpus() {
  paths::PathCorpus corpus;
  std::uint32_t prefix = 0;
  auto add = [&](std::uint32_t vp, std::initializer_list<std::uint32_t> hops) {
    corpus.add(rec(vp, ++prefix, hops));
  };
  add(1, {1, 10, 2});
  add(1, {1, 10, 3});
  add(1, {1, 10, 4});
  add(2, {2, 10, 1});
  add(5, {5, 20, 10, 1});  // 20 buys from 10
  add(5, {5, 20, 6});
  add(1, {1, 10, 20, 6});
  return corpus;
}

// ----------------------------------------------------------------- Gao ----

TEST(Gao, InfersTransitAroundTopProvider) {
  const auto gao = make("gao2001");
  const auto g = gao->infer(star_corpus());
  EXPECT_EQ(g.relationship(Asn(1), Asn(10)), RelView::kProvider);
  EXPECT_EQ(g.relationship(Asn(2), Asn(10)), RelView::kProvider);
  EXPECT_EQ(g.relationship(Asn(20), Asn(10)), RelView::kProvider);
  EXPECT_EQ(g.relationship(Asn(6), Asn(20)), RelView::kProvider);
}

TEST(Gao, SiblingWhenBothDirectionsTransit) {
  paths::PathCorpus corpus;
  // 1 and 2 each appear providing for the other repeatedly around top 10.
  corpus.add(rec(9, 1, {9, 10, 1, 2, 3}));
  corpus.add(rec(9, 2, {9, 10, 1, 2, 4}));
  corpus.add(rec(9, 3, {9, 10, 2, 1, 5}));
  corpus.add(rec(9, 4, {9, 10, 2, 1, 6}));
  algo::AlgorithmOptions options;
  options.params["sibling-threshold"] = "1";
  const auto gao = make("gao2001", options);
  const auto g = gao->infer(corpus);
  EXPECT_EQ(g.relationship(Asn(1), Asn(2)), RelView::kSibling);
}

TEST(Gao, PeeringAtTopWithComparableDegrees) {
  paths::PathCorpus corpus;
  // Two comparable tops 10 and 20, each with customers; the 10-20 link is
  // only ever seen at the peak.
  corpus.add(rec(1, 1, {1, 10, 20, 5}));
  corpus.add(rec(5, 2, {5, 20, 10, 1}));
  corpus.add(rec(1, 3, {1, 10, 2}));
  corpus.add(rec(5, 4, {5, 20, 6}));
  const auto gao = make("gao2001");
  const auto g = gao->infer(corpus);
  EXPECT_EQ(g.relationship(Asn(10), Asn(20)), RelView::kPeer);
}

TEST(Gao, DegreeRatioBlocksImplausiblePeering) {
  paths::PathCorpus corpus;
  // Top 10 has many neighbours; 2 has only one: ratio too large to peer.
  for (std::uint32_t i = 20; i < 120; ++i) corpus.add(rec(1, i, {1, 10, i}));
  corpus.add(rec(2, 500, {2, 10, 21}));
  algo::AlgorithmOptions options;
  options.params["peering-degree-ratio"] = "10.0";
  const auto gao = make("gao2001", options);
  const auto g = gao->infer(corpus);
  EXPECT_EQ(g.relationship(Asn(2), Asn(10)), RelView::kProvider);
}

TEST(Gao, NameIsStable) { EXPECT_EQ(make("gao")->name(), "gao2001"); }

// ---------------------------------------------------- degree heuristic ----

TEST(DegreeHeuristic, BigDegreeGapMeansProvider) {
  const auto heuristic = make("degree-ratio");
  const auto g = heuristic->infer(star_corpus());
  EXPECT_EQ(g.relationship(Asn(1), Asn(10)), RelView::kProvider);
  EXPECT_EQ(g.relationship(Asn(6), Asn(20)), RelView::kProvider);
}

TEST(DegreeHeuristic, ComparableDegreesMeanPeer) {
  paths::PathCorpus corpus;
  corpus.add(rec(1, 1, {1, 10, 20, 5}));
  corpus.add(rec(1, 2, {1, 10, 2}));
  corpus.add(rec(5, 3, {5, 20, 6}));
  const auto heuristic = make("degree");
  const auto g = heuristic->infer(corpus);
  // 10 and 20 both have degree 3: peers under ratio 2.
  EXPECT_EQ(g.relationship(Asn(10), Asn(20)), RelView::kPeer);
}

TEST(DegreeHeuristic, AnnotatesEveryObservedLink) {
  const auto corpus = star_corpus();
  const auto g = make("degree-ratio")->infer(corpus);
  EXPECT_EQ(g.link_count(), corpus.link_observations().size());
}

// --------------------------------------------------- ToR local search ----

TEST(TorLocalSearch, ReducesViolationsFromInitialLabelling) {
  const auto corpus = star_corpus();
  const auto start = make("degree-ratio")->infer(corpus);
  const auto tuned = make("tor-local-search")->infer(corpus);
  EXPECT_LE(TorLocalSearch::violations(tuned, corpus),
            TorLocalSearch::violations(start, corpus));
}

TEST(TorLocalSearch, ConvergesToValleyFreeOnCleanStar) {
  const auto corpus = star_corpus();
  const auto tuned = make("tor")->infer(corpus);
  EXPECT_EQ(TorLocalSearch::violations(tuned, corpus), 0u);
  // Transit skeleton correct where the objective constrains it.
  EXPECT_EQ(tuned.relationship(Asn(1), Asn(10)), RelView::kProvider);
  // The 10-20 link is valley-free both as p2c and as p2p — the documented
  // degeneracy of pure valley-free maximization.  It must at least not be
  // inverted (20 providing 10 would create valleys).
  const auto view = tuned.relationship(Asn(20), Asn(10));
  ASSERT_TRUE(view);
  EXPECT_NE(*view, RelView::kCustomer);
}

TEST(TorLocalSearch, ViolationCountsKnownCases) {
  AsGraph g;
  g.add_p2c(Asn(1), Asn(2));  // 1 provides 2
  g.add_p2c(Asn(3), Asn(2));  // 3 provides 2
  paths::PathCorpus corpus;
  corpus.add(rec(9, 1, {1, 2, 3}));  // down then up: a valley
  EXPECT_EQ(TorLocalSearch::violations(g.freeze(), corpus), 1u);
  corpus.add(rec(9, 2, {2, 1}));  // pure ascent: fine
  EXPECT_EQ(TorLocalSearch::violations(g.freeze(), corpus), 1u);
}

TEST(TorLocalSearch, AnnotatesEveryObservedLink) {
  const auto corpus = star_corpus();
  const auto tuned = make("tor-local-search")->infer(corpus);
  EXPECT_EQ(tuned.link_count(), corpus.link_observations().size());
}

// ---------------------------------------------------------- comparison ----

TEST(Comparison, AsRankBeatsBaselinesOnSyntheticTruth) {
  const auto truth = topogen::generate(topogen::GenParams::preset("small"));
  bgpsim::ObservationParams params;
  params.full_vps = 15;
  params.partial_vps = 5;
  const auto observation = bgpsim::observe(truth, params);
  // All algorithms consume the same IXP-stripped corpus, so differences are
  // algorithmic rather than hygiene (asrank re-sanitizes internally; that
  // pass is a no-op on already-clean paths).
  paths::SanitizerConfig sanitizer;
  sanitizer.ixp_asns.insert(truth.ixp_asns.begin(), truth.ixp_asns.end());
  const auto corpus =
      paths::sanitize(paths::PathCorpus::from_records(observation.routes), sanitizer).corpus;

  auto accuracy = [&](std::string_view name) {
    const auto inferred = make(name)->infer(corpus);
    return validation::evaluate_against_truth(inferred, truth.graph).accuracy();
  };
  const double a = accuracy("asrank");
  const double g = accuracy("gao2001");
  const double d = accuracy("degree-ratio");
  const double t = accuracy("tor-local-search");
  EXPECT_GT(a, g);
  EXPECT_GT(a, d);
  EXPECT_GT(a, t);
  EXPECT_GT(a, 0.85);
}

// ------------------------------------------------------------- registry ----

TEST(Registry, ResolvesCanonicalNamesAndAliases) {
  for (const auto& [alias, canonical] :
       {std::pair<std::string_view, std::string_view>{"gao", "gao2001"},
        {"core", "asrank"},
        {"degree", "degree-ratio"},
        {"tor", "tor-local-search"}}) {
    auto resolved = algo::resolve(alias);
    ASSERT_TRUE(resolved.ok()) << alias;
    EXPECT_EQ(resolved.value(), canonical);
    EXPECT_EQ(algo::resolve(canonical).value(), canonical);
  }
}

TEST(Registry, UnknownNameListsRegisteredAlgorithms) {
  auto resolved = algo::resolve("bgp-magic");
  ASSERT_FALSE(resolved.ok());
  EXPECT_EQ(resolved.error().code, ErrorCode::kInvalidArgument);
  EXPECT_NE(resolved.error().context.find("unknown algorithm 'bgp-magic'"), std::string::npos);
  for (const std::string_view name : algo::names()) {
    EXPECT_NE(resolved.error().context.find(name), std::string::npos) << name;
  }
}

TEST(Registry, CreatedAlgorithmsReportCanonicalNames) {
  for (const std::string_view name : algo::names()) {
    EXPECT_EQ(make(name)->name(), name);
  }
}

TEST(Registry, RejectsUnknownAndMalformedParams) {
  algo::AlgorithmOptions bad_key;
  bad_key.params["no-such-knob"] = "1";
  auto made = algo::create("gao2001", bad_key);
  ASSERT_FALSE(made.ok());
  EXPECT_EQ(made.error().code, ErrorCode::kInvalidArgument);
  EXPECT_NE(made.error().context.find("no-such-knob"), std::string::npos);

  algo::AlgorithmOptions bad_value;
  bad_value.params["sibling-threshold"] = "many";
  auto parsed = algo::create("gao2001", bad_value);
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.error().code, ErrorCode::kInvalidArgument);
}

TEST(Registry, InfoCarriesCitations) {
  for (const std::string_view name : algo::names()) {
    const auto* info = algo::info(name);
    ASSERT_NE(info, nullptr) << name;
    EXPECT_EQ(info->name, name);
    EXPECT_FALSE(info->citation.empty());
  }
  EXPECT_EQ(algo::info("nonsense"), nullptr);
  // Aliases resolve to the same metadata.
  EXPECT_EQ(algo::info("gao"), algo::info("gao2001"));
}


// ---------------------------------------------------------- output pins ----

// Every registered algorithm's output on seeded topogen worlds, raw and with
// the IXP hops stripped: the .as-rel bytes (size and CRC-32), the scoring
// against ground truth, and how many p2c edges cycle repair re-orients (the
// pipeline's own step-11 count for asrank; break_provider_cycles on the
// inferred graph, ranked by the corpus tally, for the baselines, as the
// snapshot builder applies it).

struct OutputPin {
  const char* algorithm;
  const char* preset;
  std::uint64_t seed;
  bool ixp_stripped;
  std::size_t bytes;
  std::uint32_t crc;
  std::size_t compared, unknown_links;
  std::size_t c2p_validated, c2p_correct, p2p_validated, p2p_correct;
  std::size_t s2s_validated, s2s_correct, s2s_links, direction_errors;
  std::size_t cycle_edges_reoriented;
};

std::string pin_row(const OutputPin& pin) {
  std::ostringstream os;
  os << "{\"" << pin.algorithm << "\", \"" << pin.preset << "\", " << pin.seed << ", "
     << (pin.ixp_stripped ? "true" : "false") << ", " << pin.bytes << ", 0x" << std::hex
     << pin.crc << std::dec << ", " << pin.compared << ", " << pin.unknown_links << ", "
     << pin.c2p_validated << ", " << pin.c2p_correct << ", " << pin.p2p_validated << ", "
     << pin.p2p_correct << ", " << pin.s2s_validated << ", " << pin.s2s_correct << ", "
     << pin.s2s_links << ", " << pin.direction_errors << ", " << pin.cycle_edges_reoriented
     << "},";
  return os.str();
}

OutputPin measure(std::string_view name, const paths::PathCorpus& corpus, const AsGraph& truth) {
  algo::AlgorithmOptions options;
  options.threads = 1;
  auto inferred = make(name, options)->infer(corpus);
  OutputPin pin{};
  std::ostringstream as_rel;
  write_as_rel(inferred, as_rel);
  const std::string bytes = as_rel.str();
  pin.bytes = bytes.size();
  pin.crc = util::crc32({reinterpret_cast<const std::uint8_t*>(bytes.data()), bytes.size()});
  const auto accuracy = validation::evaluate_against_truth(inferred, truth);
  pin.compared = accuracy.compared;
  pin.unknown_links = accuracy.unknown_links;
  pin.c2p_validated = accuracy.c2p.validated;
  pin.c2p_correct = accuracy.c2p.correct;
  pin.p2p_validated = accuracy.p2p.validated;
  pin.p2p_correct = accuracy.p2p.correct;
  pin.s2s_validated = accuracy.s2s.validated;
  pin.s2s_correct = accuracy.s2s.correct;
  pin.s2s_links = accuracy.s2s_links;
  pin.direction_errors = accuracy.direction_errors;
  if (name == "asrank") {
    core::InferenceConfig config;
    config.threads = 1;
    pin.cycle_edges_reoriented =
        core::AsRankInference(config).run(corpus).audit.cycle_edges_reoriented;
  } else {
    pin.cycle_edges_reoriented =
        core::break_provider_cycles(inferred, core::Degrees::compute(corpus));
  }
  return pin;
}

constexpr OutputPin kOutputPins[] = {
    {"asrank", "tiny", 3, false, 919, 0x4ef69b2e, 105, 0, 79, 79, 25, 25, 0, 0, 1, 0, 0},
    {"degree-ratio", "tiny", 3, false, 949, 0xa996dbf5, 105, 4, 65, 55, 39, 17, 0, 0, 1, 2, 0},
    {"gao2001", "tiny", 3, false, 980, 0x81c336c4, 105, 4, 93, 69, 4, 2, 7, 0, 1, 7, 0},
    {"tor-local-search", "tiny", 3, false, 983, 0x4e844c7, 105, 4, 97, 72, 7, 5, 0, 0, 1, 5, 8},
    {"asrank", "tiny", 3, true, 919, 0x4ef69b2e, 105, 0, 79, 79, 25, 25, 0, 0, 1, 0, 0},
    {"degree-ratio", "tiny", 3, true, 949, 0xa996dbf5, 105, 4, 65, 55, 39, 17, 0, 0, 1, 2, 0},
    {"gao2001", "tiny", 3, true, 980, 0x81c336c4, 105, 4, 93, 69, 4, 2, 7, 0, 1, 7, 0},
    {"tor-local-search", "tiny", 3, true, 983, 0x4e844c7, 105, 4, 97, 72, 7, 5, 0, 0, 1, 5, 8},
    {"asrank", "tiny", 17, false, 943, 0x21b06f22, 106, 2, 87, 87, 18, 16, 0, 0, 1, 0, 0},
    {"degree-ratio", "tiny", 17, false, 1039, 0xe3aa87b1, 106, 12, 72, 67, 33, 13, 0, 0, 1, 2, 0},
    {"gao2001", "tiny", 17, false, 1063, 0x312d8819, 106, 12, 94, 81, 1, 1, 10, 0, 1, 3, 0},
    {"tor-local-search", "tiny", 17, false, 1070, 0x1286d78a, 106, 12, 100, 82, 5, 2, 0, 0, 1, 4, 8},
    {"asrank", "tiny", 17, true, 927, 0x3677a9e2, 106, 0, 87, 87, 18, 16, 0, 0, 1, 0, 0},
    {"degree-ratio", "tiny", 17, true, 1025, 0x2a2310e3, 106, 10, 74, 67, 31, 11, 0, 0, 1, 2, 0},
    {"gao2001", "tiny", 17, true, 1045, 0xa49a45af, 106, 10, 92, 81, 1, 1, 12, 0, 1, 2, 0},
    {"tor-local-search", "tiny", 17, true, 1055, 0xec8e18f8, 106, 10, 101, 82, 4, 1, 0, 0, 1, 4, 8},
    {"asrank", "small", 3, false, 5361, 0x7d998983, 577, 5, 446, 430, 120, 108, 7, 5, 4, 1, 0},
    {"degree-ratio", "small", 3, false, 5619, 0xbca5f340, 578, 29, 412, 362, 157, 73, 0, 0, 9, 0, 0},
    {"gao2001", "small", 3, false, 5763, 0xfac6e78c, 578, 29, 545, 437, 12, 11, 17, 5, 4, 2, 0},
    {"tor-local-search", "small", 3, false, 5756, 0x8fd5c9ca, 578, 29, 533, 421, 36, 24, 0, 0, 9, 13, 24},
    {"asrank", "small", 3, true, 5341, 0x99d85ae2, 577, 3, 446, 430, 120, 108, 7, 5, 4, 1, 0},
    {"degree-ratio", "small", 3, true, 5599, 0xf0a87f, 578, 27, 412, 362, 157, 73, 0, 0, 9, 0, 0},
    {"gao2001", "small", 3, true, 5743, 0x172f4fc5, 578, 27, 545, 437, 12, 11, 17, 5, 4, 2, 0},
    {"tor-local-search", "small", 3, true, 5736, 0xe07bd58c, 578, 27, 533, 421, 36, 24, 0, 0, 9, 13, 24},
    {"asrank", "small", 17, false, 5748, 0x8868f9aa, 621, 7, 435, 433, 179, 158, 4, 2, 3, 0, 0},
    {"degree-ratio", "small", 17, false, 6234, 0x5cd33f68, 623, 46, 475, 380, 143, 66, 0, 0, 5, 1, 0},
    {"gao2001", "small", 17, false, 6345, 0x1c310142, 623, 46, 582, 446, 12, 12, 28, 4, 1, 2, 0},
    {"tor-local-search", "small", 17, false, 6339, 0xe9ea358f, 623, 46, 568, 431, 50, 37, 0, 0, 5, 14, 15},
    {"asrank", "small", 17, true, 5681, 0xbff72e8f, 621, 0, 435, 433, 179, 158, 4, 2, 3, 0, 0},
    {"degree-ratio", "small", 17, true, 6156, 0x38525f6, 623, 38, 474, 380, 144, 67, 0, 0, 5, 1, 0},
    {"gao2001", "small", 17, true, 6266, 0x7ba8c3d9, 623, 38, 582, 446, 12, 12, 28, 4, 1, 2, 0},
    {"tor-local-search", "small", 17, true, 6261, 0x72802d79, 623, 38, 567, 431, 51, 38, 0, 0, 5, 14, 12},
};

TEST(AlgorithmOutputPin, EveryAlgorithmOnSeededWorlds) {
  std::vector<std::string> got;
  std::size_t row = 0;
  for (const char* preset : {"tiny", "small"}) {
    for (const std::uint64_t seed : {3u, 17u}) {
      auto params = topogen::GenParams::preset(preset);
      params.seed = seed;
      const auto truth = topogen::generate(params);
      bgpsim::ObservationParams observe;
      observe.seed = seed + 1;
      observe.full_vps = 12;
      observe.partial_vps = 4;
      const auto raw = paths::PathCorpus::from_records(bgpsim::observe(truth, observe).routes);
      paths::SanitizerConfig ixp_only;
      ixp_only.compress_prepending = false;
      ixp_only.discard_loops = false;
      ixp_only.discard_reserved = false;
      ixp_only.dedup = false;
      ixp_only.ixp_asns.insert(truth.ixp_asns.begin(), truth.ixp_asns.end());
      const auto stripped = paths::sanitize(raw, ixp_only).corpus;
      for (const bool ixp_stripped : {false, true}) {
        for (const std::string_view name : algo::names()) {
          OutputPin pin = measure(name, ixp_stripped ? stripped : raw, truth.graph);
          pin.algorithm = name.data();
          pin.preset = preset;
          pin.seed = seed;
          pin.ixp_stripped = ixp_stripped;
          got.push_back(pin_row(pin));
          const std::string want =
              row < std::size(kOutputPins) ? pin_row(kOutputPins[row]) : "(none)";
          EXPECT_EQ(got.back(), want) << "row " << row;
          ++row;
        }
      }
    }
  }
  EXPECT_EQ(row, std::size(kOutputPins));
  // The cycle repair must be exercised on some baseline graph.
  std::size_t repaired = 0;
  for (const OutputPin& pin : kOutputPins) {
    if (std::string_view(pin.algorithm) != "asrank") repaired += pin.cycle_edges_reoriented;
  }
  EXPECT_GT(repaired, 0u);
  if (HasFailure()) {
    for (const std::string& line : got) std::cout << "    " << line << "\n";
  }
}

}  // namespace
}  // namespace asrank::baselines
