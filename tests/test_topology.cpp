#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <sstream>
#include <string>
#include <vector>

#include "topology/as_graph.h"
#include "topology/relationship.h"
#include "topology/serialization.h"
#include "text_fuzz.h"
#include "util/hash.h"
#include "util/rng.h"

namespace asrank {
namespace {

// -------------------------------------------------------- relationship ----

TEST(Relationship, AsRelCodesRoundTrip) {
  for (const LinkType t : {LinkType::kP2C, LinkType::kP2P, LinkType::kS2S}) {
    EXPECT_EQ(link_type_from_code(as_rel_code(t)), t);
  }
  EXPECT_FALSE(link_type_from_code(1));
  EXPECT_FALSE(link_type_from_code(-2));
}

TEST(Relationship, Names) {
  EXPECT_EQ(to_string(LinkType::kP2C), "p2c");
  EXPECT_EQ(to_string(RelView::kProvider), "provider");
}

// ------------------------------------------------------------- AsGraph ----

TEST(AsGraph, AddAndViewP2c) {
  AsGraph g;
  g.add_p2c(Asn(1), Asn(2));  // 1 provides 2
  EXPECT_EQ(g.view(Asn(2), Asn(1)), RelView::kProvider);
  EXPECT_EQ(g.view(Asn(1), Asn(2)), RelView::kCustomer);
  EXPECT_FALSE(g.view(Asn(1), Asn(3)));
}

TEST(AsGraph, P2cOrientationSurvivesAsnOrder) {
  AsGraph g;
  g.add_p2c(Asn(9), Asn(3));  // provider has the larger ASN
  const auto link = g.link(Asn(3), Asn(9));
  ASSERT_TRUE(link);
  EXPECT_EQ(link->a, Asn(9));
  EXPECT_EQ(link->b, Asn(3));
  EXPECT_EQ(link->type, LinkType::kP2C);
}

TEST(AsGraph, PeerAndSiblingSymmetric) {
  AsGraph g;
  g.add_p2p(Asn(1), Asn(2));
  g.add_s2s(Asn(3), Asn(4));
  EXPECT_EQ(g.view(Asn(1), Asn(2)), RelView::kPeer);
  EXPECT_EQ(g.view(Asn(2), Asn(1)), RelView::kPeer);
  EXPECT_EQ(g.view(Asn(3), Asn(4)), RelView::kSibling);
}

TEST(AsGraph, SetRelationshipReplaces) {
  AsGraph g;
  g.add_p2c(Asn(1), Asn(2));
  g.add_p2p(Asn(1), Asn(2));  // re-annotate
  EXPECT_EQ(g.view(Asn(1), Asn(2)), RelView::kPeer);
  EXPECT_TRUE(g.customers(Asn(1)).empty());
  EXPECT_TRUE(g.providers(Asn(2)).empty());
  EXPECT_EQ(g.link_count(), 1u);
}

TEST(AsGraph, ReorientP2c) {
  AsGraph g;
  g.add_p2c(Asn(1), Asn(2));
  g.add_p2c(Asn(2), Asn(1));  // flip provider
  EXPECT_EQ(g.view(Asn(1), Asn(2)), RelView::kProvider);
  EXPECT_EQ(g.customers(Asn(2)).size(), 1u);
  EXPECT_EQ(g.customers(Asn(1)).size(), 0u);
}

TEST(AsGraph, RemoveLink) {
  AsGraph g;
  g.add_p2c(Asn(1), Asn(2));
  EXPECT_TRUE(g.remove_link(Asn(2), Asn(1)));  // order-independent
  EXPECT_FALSE(g.has_link(Asn(1), Asn(2)));
  EXPECT_TRUE(g.providers(Asn(2)).empty());
  EXPECT_FALSE(g.remove_link(Asn(1), Asn(2)));  // already gone
  EXPECT_EQ(g.as_count(), 2u);                  // nodes remain
}

TEST(AsGraph, RejectsInvalid) {
  AsGraph g;
  EXPECT_THROW(g.add_p2c(Asn(1), Asn(1)), std::invalid_argument);
  EXPECT_THROW(g.add_p2p(Asn(0), Asn(1)), std::invalid_argument);
  EXPECT_THROW(g.add_as(Asn(0)), std::invalid_argument);
}

TEST(AsGraph, DegreeAndCounts) {
  AsGraph g;
  g.add_p2c(Asn(1), Asn(2));
  g.add_p2c(Asn(1), Asn(3));
  g.add_p2p(Asn(2), Asn(3));
  g.add_s2s(Asn(3), Asn(4));
  EXPECT_EQ(g.degree(Asn(3)), 3u);
  EXPECT_EQ(g.degree(Asn(99)), 0u);
  const auto counts = g.link_counts();
  EXPECT_EQ(counts.p2c, 2u);
  EXPECT_EQ(counts.p2p, 1u);
  EXPECT_EQ(counts.s2s, 1u);
  EXPECT_EQ(g.link_count(), 4u);
}

TEST(AsGraph, NeighborsUnion) {
  AsGraph g;
  g.add_p2c(Asn(1), Asn(2));
  g.add_p2p(Asn(2), Asn(3));
  auto n = g.neighbors(Asn(2));
  std::sort(n.begin(), n.end());
  EXPECT_EQ(n, (std::vector<Asn>{Asn(1), Asn(3)}));
}

TEST(AsGraph, LinksDeterministicOrder) {
  AsGraph g;
  g.add_p2p(Asn(5), Asn(2));
  g.add_p2c(Asn(3), Asn(1));
  const auto links = g.links();
  ASSERT_EQ(links.size(), 2u);
  // Sorted by normalized endpoints: (1,3) then (2,5).
  EXPECT_EQ(std::min(links[0].a, links[0].b), Asn(1));
  EXPECT_EQ(std::min(links[1].a, links[1].b), Asn(2));
}

TEST(AsGraph, AcyclicityDetection) {
  AsGraph g;
  g.add_p2c(Asn(1), Asn(2));
  g.add_p2c(Asn(2), Asn(3));
  EXPECT_TRUE(g.p2c_acyclic());
  g.add_p2c(Asn(3), Asn(1));  // cycle 1->2->3->1
  EXPECT_FALSE(g.p2c_acyclic());
}

TEST(AsGraph, PeeringDoesNotAffectAcyclicity) {
  AsGraph g;
  g.add_p2p(Asn(1), Asn(2));
  g.add_p2p(Asn(2), Asn(3));
  g.add_p2p(Asn(3), Asn(1));
  EXPECT_TRUE(g.p2c_acyclic());
}

TEST(AsGraph, ProviderFreeAndStubs) {
  AsGraph g;
  g.add_p2c(Asn(1), Asn(2));
  g.add_p2c(Asn(2), Asn(3));
  g.add_p2p(Asn(1), Asn(4));
  EXPECT_EQ(g.provider_free_ases(), (std::vector<Asn>{Asn(1)}));
  EXPECT_EQ(g.stub_ases(), (std::vector<Asn>{Asn(3), Asn(4)}));
}

TEST(AsGraph, LinkKeyIsOrderIndependent) {
  EXPECT_EQ(AsGraph::link_key(Asn(1), Asn(2)), AsGraph::link_key(Asn(2), Asn(1)));
  EXPECT_NE(AsGraph::link_key(Asn(1), Asn(2)), AsGraph::link_key(Asn(1), Asn(3)));
}

// ------------------------------------------------------- serialization ----

TEST(Serialization, AsRelRoundTrip) {
  AsGraph g;
  g.add_p2c(Asn(3356), Asn(64500));
  g.add_p2p(Asn(3356), Asn(1299));
  g.add_s2s(Asn(64500), Asn(64501));
  std::stringstream text;
  write_as_rel(g, text);
  const AsGraph parsed = read_as_rel(text);
  EXPECT_EQ(parsed.as_count(), g.as_count());
  EXPECT_EQ(parsed.view(Asn(64500), Asn(3356)), RelView::kProvider);
  EXPECT_EQ(parsed.view(Asn(1299), Asn(3356)), RelView::kPeer);
  EXPECT_EQ(parsed.view(Asn(64501), Asn(64500)), RelView::kSibling);
}

TEST(Serialization, AsRelParsesCaidaFormat) {
  std::stringstream text(
      "# inferred by asrank\n"
      "1|2|-1\n"
      "2|3|0\n");
  const AsGraph g = read_as_rel(text);
  EXPECT_EQ(g.view(Asn(2), Asn(1)), RelView::kProvider);
  EXPECT_EQ(g.view(Asn(2), Asn(3)), RelView::kPeer);
}

TEST(Serialization, AsRelRejectsMalformed) {
  std::stringstream missing_field("1|2\n");
  EXPECT_THROW((void)read_as_rel(missing_field), std::runtime_error);
  std::stringstream bad_code("1|2|7\n");
  EXPECT_THROW((void)read_as_rel(bad_code), std::runtime_error);
  std::stringstream bad_asn("x|2|0\n");
  EXPECT_THROW((void)read_as_rel(bad_asn), std::runtime_error);
}

TEST(Serialization, PpdcRoundTrip) {
  ConeMap cones;
  cones.append(Asn(1), std::vector<Asn>{Asn(1), Asn(2), Asn(3)});
  cones.append(Asn(2), std::vector<Asn>{Asn(2)});
  std::stringstream text;
  write_ppdc(cones, text);
  const ConeMap parsed = read_ppdc(text);
  EXPECT_EQ(parsed, cones);
}

TEST(Serialization, ConeMapIsACheckedCsrTable) {
  ConeMap cones;
  cones.append(Asn(2), std::vector<Asn>{Asn(2), Asn(5)});
  cones.append(Asn(5), std::vector<Asn>{Asn(5)});
  EXPECT_THROW(cones.append(Asn(5), std::vector<Asn>{Asn(5)}), std::invalid_argument);
  EXPECT_THROW(cones.append(Asn(3), std::vector<Asn>{Asn(3)}), std::invalid_argument);
  EXPECT_EQ(cones.size(), 2u);
  EXPECT_TRUE(cones.contains(Asn(5)));
  EXPECT_FALSE(cones.contains(Asn(3)));
  EXPECT_EQ(cones.at(Asn(2)).size(), 2u);
  EXPECT_THROW((void)cones.at(Asn(3)), std::out_of_range);
  std::vector<Asn> keys;
  for (const auto& [as, members] : cones) keys.push_back(as);
  EXPECT_EQ(keys, (std::vector<Asn>{Asn(2), Asn(5)}));

  // The adopting constructor takes the same table, and rejects a malformed one.
  const std::vector<Asn> members = {Asn(2), Asn(5), Asn(5)};
  EXPECT_EQ(ConeMap({Asn(2), Asn(5)}, {0, 2, 3}, members), cones);
  EXPECT_THROW(ConeMap({Asn(5), Asn(2)}, {0, 2, 3}, members), std::invalid_argument);
  EXPECT_THROW(ConeMap({Asn(2), Asn(5)}, {0, 2}, members), std::invalid_argument);
  EXPECT_THROW(ConeMap({Asn(2), Asn(5)}, {0, 3, 2}, members), std::invalid_argument);
  EXPECT_THROW(ConeMap({Asn(2), Asn(5)}, {0, 2, 4}, members), std::invalid_argument);
}

TEST(Serialization, PpdcRejectsMalformed) {
  std::stringstream bad("1 2 x\n");
  EXPECT_THROW((void)read_ppdc(bad), std::runtime_error);
}

// Parser strictness (dataset files reject spellings human input accepts)
// and line-number diagnostics.

std::string thrown_message(const std::string& text, bool ppdc = false) {
  std::stringstream is(text);
  try {
    if (ppdc) {
      (void)read_ppdc(is);
    } else {
      (void)read_as_rel(is);
    }
  } catch (const std::runtime_error& error) {
    return error.what();
  }
  return "";
}

TEST(Serialization, AsRelRejectsTrailingJunkInFields) {
  EXPECT_NE(thrown_message("AS1|2|-1\n"), "");     // "AS" prefix is human input
  EXPECT_NE(thrown_message("1.2|3|0\n"), "");      // asdot likewise
  EXPECT_NE(thrown_message("1|2|-1x\n"), "");      // junk after the code
  EXPECT_NE(thrown_message("1|2x|0\n"), "");       // junk after an ASN
  EXPECT_NE(thrown_message("1|2|0|extra\n"), "");  // extra field
}

TEST(Serialization, AsRelErrorsCarryLineNumbers) {
  const auto message = thrown_message("1|2|-1\n2|3|0\nbogus|4|0\n");
  EXPECT_NE(message.find("line 3"), std::string::npos) << message;
  EXPECT_NE(message.find("malformed ASN"), std::string::npos) << message;
}

TEST(Serialization, AsRelRejectsDuplicateLinks) {
  const auto message = thrown_message("1|2|-1\n2|1|0\n");
  EXPECT_NE(message.find("line 2"), std::string::npos) << message;
  EXPECT_NE(message.find("duplicate link"), std::string::npos) << message;
}

TEST(Serialization, AsRelRejectsSelfLinksAndAs0WithLineNumbers) {
  EXPECT_NE(thrown_message("5|5|-1\n").find("line 1"), std::string::npos);
  const auto as0 = thrown_message("#comment\n0|2|-1\n");
  EXPECT_NE(as0.find("line 2"), std::string::npos) << as0;
}

TEST(Serialization, PpdcRejectsStructuralErrorsWithLineNumbers) {
  // Members out of order.
  auto message = thrown_message("1 1 3 2\n", /*ppdc=*/true);
  EXPECT_NE(message.find("line 1"), std::string::npos) << message;
  EXPECT_NE(message.find("ascending"), std::string::npos) << message;
  // Duplicate member (not strictly ascending either).
  EXPECT_NE(thrown_message("1 1 2 2\n", true), "");
  // Cone missing its own AS.
  message = thrown_message("1 2 3\n", /*ppdc=*/true);
  EXPECT_NE(message.find("does not contain its own AS"), std::string::npos)
      << message;
  // Duplicate cone line.
  message = thrown_message("1 1\n2 2\n1 1\n", /*ppdc=*/true);
  EXPECT_NE(message.find("line 3"), std::string::npos) << message;
  EXPECT_NE(message.find("duplicate cone"), std::string::npos) << message;
  // Human ASN spellings are junk here too.
  EXPECT_NE(thrown_message("AS1 AS1\n", true), "");
}

TEST(Serialization, TryReadAsRelReturnsTypedLineErrors) {
  const std::string text = "1|2|-1\nbogus|4|0\n";
  std::stringstream bad(text);
  auto parsed = try_read_as_rel(bad);
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.error().code, ErrorCode::kCorrupt);
  EXPECT_NE(parsed.error().context.find("line 2"), std::string::npos);
  EXPECT_NE(parsed.error().context.find("malformed ASN"), std::string::npos);
  // The throwing wrapper reports the identical message.
  EXPECT_EQ(parsed.error().context, thrown_message(text));

  std::stringstream good("# comment\n1|2|-1\n1|3|0\n");
  auto graph = try_read_as_rel(good);
  ASSERT_TRUE(graph.ok());
  EXPECT_EQ(graph.value().view(Asn(1), Asn(2)), RelView::kCustomer);
  EXPECT_EQ(graph.value().view(Asn(1), Asn(3)), RelView::kPeer);
}

TEST(Serialization, TryReadPpdcReturnsTypedLineErrors) {
  const std::string text = "1 1\n2 3\n";  // cone missing its own AS
  std::stringstream bad(text);
  auto parsed = try_read_ppdc(bad);
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.error().code, ErrorCode::kCorrupt);
  EXPECT_NE(parsed.error().context.find("line 2"), std::string::npos);
  EXPECT_NE(parsed.error().context.find("does not contain its own AS"),
            std::string::npos);
  EXPECT_EQ(parsed.error().context, thrown_message(text, /*ppdc=*/true));

  std::stringstream good("1 1 2\n2 2\n");
  auto cones = try_read_ppdc(good);
  ASSERT_TRUE(cones.ok());
  EXPECT_EQ(cones.value().at(Asn(1)).size(), 2u);
  EXPECT_EQ(cones.value().at(Asn(2)).size(), 1u);
}

TEST(Serialization, PpdcKeysInAnyOrder) {
  const std::vector<std::string> lines = {"3 3", "7 2 7 9", "9 9", "12 3 9 12"};
  std::string sorted = "# format: <as> <cone member> ...\n";
  std::string descending;
  for (const std::string& line : lines) sorted += line + "\n";
  for (auto it = lines.rbegin(); it != lines.rend(); ++it) descending += *it + "\n";
  const std::string shuffled = lines[2] + "\n" + lines[0] + "\n" + lines[3] + "\n" +
                               lines[1] + "\n";

  std::stringstream sorted_text(sorted);
  const ConeMap expected = read_ppdc(sorted_text);
  ASSERT_EQ(expected.size(), lines.size());
  for (const std::string& text : {descending, shuffled}) {
    std::stringstream is(text);
    const ConeMap parsed = read_ppdc(is);
    EXPECT_EQ(parsed, expected) << text;
    std::stringstream written;
    write_ppdc(parsed, written);
    EXPECT_EQ(written.str(), sorted) << text;
  }
}

// PpdcFuzz: every prefix and every single-byte flip of a few valid .ppdc
// texts must parse or fail with a kCorrupt line error.  Each outcome (the
// parsed cones, or the error) folds into one digest per seed, pinned so a
// reader rewrite that changes what any damaged text parses to, or how it
// fails, is caught.

/// A valid .ppdc text of 6-11 ASes with seeded ASNs of 1-6 digits and
/// seeded cones, its cone lines in seeded order (not ascending by key).
std::string fuzz_ppdc_text(util::Rng& rng) {
  std::vector<std::uint32_t> asns;
  const std::size_t n = 6 + rng.uniform(6);
  while (asns.size() < n) {
    const auto as = static_cast<std::uint32_t>(1 + rng.uniform(std::uint64_t{1}
                                                                << (4 + rng.uniform(16))));
    if (std::find(asns.begin(), asns.end(), as) == asns.end()) asns.push_back(as);
  }
  std::vector<std::uint32_t> sorted = asns;
  std::sort(sorted.begin(), sorted.end());
  std::string text = "# format: <as> <cone member> ...\n";
  for (const std::uint32_t as : asns) {
    text += std::to_string(as);
    for (const std::uint32_t member : sorted) {
      if (member == as || rng.bernoulli(0.3)) text += " " + std::to_string(member);
    }
    text += rng.bernoulli(0.2) ? "\n\n" : "\n";
  }
  return text;
}

using text_fuzz::Digest;
using text_fuzz::PinnedDigests;
using text_fuzz::flip_digest;
using text_fuzz::prefix_digest;

/// Fold a failed parse, which must be a kCorrupt "line <n>: ..." error: its
/// code and context.
void fold_error(Digest& digest, const Error& error) {
  digest.add(1);
  digest.add(static_cast<std::uint64_t>(error.code));
  digest.add(util::fnv1a_64(error.context));
  EXPECT_EQ(error.code, ErrorCode::kCorrupt);
  EXPECT_EQ(error.context.rfind("line ", 0), 0u) << error.context;
}

/// Parse `text` as .ppdc and fold the outcome: every (AS, members) row in
/// key order, or the error.
void fold_ppdc(Digest& digest, const std::string& text) {
  std::stringstream is(text);
  const auto parsed = try_read_ppdc(is);
  if (!parsed.ok()) return fold_error(digest, parsed.error());
  digest.add(0);
  digest.add(parsed.value().size());
  for (const auto& [as, members] : parsed.value()) {
    digest.add(as.value());
    digest.add(members.size());
    for (const Asn member : members) digest.add(member.value());
  }
}

/// Per-seed digests (seeds 1..4), each over three texts' outcomes.
constexpr PinnedDigests kPpdcPrefixDigests = {
    0x1cd4282908c065acULL, 0x784b60fd6e0a1f0fULL,
    0xb7b8d956ce855a54ULL, 0xadce1689e4144c04ULL};
constexpr PinnedDigests kPpdcFlipDigests = {
    0x146f245cea3caf3eULL, 0xa80da2fad330c9a0ULL,
    0xe7baf6e4ff5e7a6cULL, 0xab4b1ffa77a64a41ULL};

TEST(PpdcFuzz, EveryPrefixParsesOrFailsWithALineError) {
  for (std::uint64_t seed = 1; seed <= kPpdcPrefixDigests.size(); ++seed) {
    const std::uint64_t digest = prefix_digest(seed, fuzz_ppdc_text, fold_ppdc);
    EXPECT_EQ(digest, kPpdcPrefixDigests[seed - 1])
        << "seed " << seed << " digest 0x" << std::hex << digest;
  }
}

TEST(PpdcFuzz, EverySingleByteFlipParsesOrFailsWithALineError) {
  for (std::uint64_t seed = 1; seed <= kPpdcFlipDigests.size(); ++seed) {
    const std::uint64_t digest = flip_digest(seed, fuzz_ppdc_text, fold_ppdc);
    EXPECT_EQ(digest, kPpdcFlipDigests[seed - 1])
        << "seed " << seed << " digest 0x" << std::hex << digest;
  }
}

// AsRelFuzz: the same for the .as-rel reader, the other untrusted file
// asrank_cli reads.

/// A valid .as-rel text of 6-11 links over seeded ASNs of 1-6 digits, with
/// seeded relationship codes (-1, 0, 2), in seeded order.
std::string fuzz_as_rel_text(util::Rng& rng) {
  std::vector<std::uint32_t> asns;
  while (asns.size() < 8) {
    const auto as = static_cast<std::uint32_t>(1 + rng.uniform(std::uint64_t{1}
                                                                << (4 + rng.uniform(16))));
    if (std::find(asns.begin(), asns.end(), as) == asns.end()) asns.push_back(as);
  }
  constexpr std::array<const char*, 3> kCodes = {"-1", "0", "2"};
  std::vector<std::pair<std::uint32_t, std::uint32_t>> pairs;
  std::string text = "# format: <provider|peer>|<customer|peer>|<-1 p2c, 0 p2p, 2 s2s>\n";
  const std::size_t links = 6 + rng.uniform(6);
  while (pairs.size() < links) {
    const std::uint32_t a = asns[rng.uniform(asns.size())];
    const std::uint32_t b = asns[rng.uniform(asns.size())];
    const auto pair = std::pair{std::min(a, b), std::max(a, b)};
    if (a == b || std::find(pairs.begin(), pairs.end(), pair) != pairs.end()) continue;
    pairs.push_back(pair);
    text += std::to_string(a) + "|" + std::to_string(b) + "|" + kCodes[rng.uniform(3)];
    text += rng.bernoulli(0.2) ? "\n\n" : "\n";
  }
  return text;
}

/// Parse `text` as .as-rel and fold the outcome: the AS count and every
/// link in normalized order with its type, or the error.
void fold_as_rel(Digest& digest, const std::string& text) {
  std::stringstream is(text);
  const auto parsed = try_read_as_rel(is);
  if (!parsed.ok()) return fold_error(digest, parsed.error());
  digest.add(0);
  digest.add(parsed.value().as_count());
  for (const Link& link : parsed.value().links()) {
    digest.add(link.a.value());
    digest.add(link.b.value());
    digest.add(static_cast<std::uint64_t>(link.type));
  }
}

/// Per-seed digests (seeds 1..4), each over three texts' outcomes.
constexpr PinnedDigests kAsRelPrefixDigests = {
    0xfd5a44334479f87aULL, 0xa1afcac82ac31baaULL,
    0x76a863c795ac60eeULL, 0x29e24fdcbd80d609ULL};
constexpr PinnedDigests kAsRelFlipDigests = {
    0x49162a75bcfe12e1ULL, 0x12df0dca7f862eb8ULL,
    0xcef0bf021bf74d6fULL, 0x6af3c106a23dd7a5ULL};

TEST(AsRelFuzz, EveryPrefixParsesOrFailsWithALineError) {
  for (std::uint64_t seed = 1; seed <= kAsRelPrefixDigests.size(); ++seed) {
    const std::uint64_t digest = prefix_digest(seed, fuzz_as_rel_text, fold_as_rel);
    EXPECT_EQ(digest, kAsRelPrefixDigests[seed - 1])
        << "seed " << seed << " digest 0x" << std::hex << digest;
  }
}

TEST(AsRelFuzz, EverySingleByteFlipParsesOrFailsWithALineError) {
  for (std::uint64_t seed = 1; seed <= kAsRelFlipDigests.size(); ++seed) {
    const std::uint64_t digest = flip_digest(seed, fuzz_as_rel_text, fold_as_rel);
    EXPECT_EQ(digest, kAsRelFlipDigests[seed - 1])
        << "seed " << seed << " digest 0x" << std::hex << digest;
  }
}

}  // namespace
}  // namespace asrank
