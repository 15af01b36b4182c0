#include <gtest/gtest.h>

#include <algorithm>
#include <compare>
#include <span>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "asn/as_path.h"
#include "asn/asn.h"
#include "asn/prefix.h"
#include "util/rng.h"

namespace asrank {
namespace {

// ----------------------------------------------------------------- Asn ----

TEST(Asn, DefaultIsInvalidAs0) {
  EXPECT_FALSE(Asn{}.valid());
  EXPECT_TRUE(Asn{}.reserved());
  EXPECT_TRUE(Asn(65000).valid());
}

TEST(Asn, ParsePlainAndPrefixed) {
  EXPECT_EQ(Asn::parse("65000")->value(), 65000u);
  EXPECT_EQ(Asn::parse("AS65000")->value(), 65000u);
  EXPECT_EQ(Asn::parse("as65000")->value(), 65000u);
  EXPECT_EQ(Asn::parse(" 7018 ")->value(), 7018u);
}

TEST(Asn, ParseAsdot) {
  EXPECT_EQ(Asn::parse("1.0")->value(), 65536u);
  EXPECT_EQ(Asn::parse("2.5")->value(), 2u * 65536 + 5);
  EXPECT_EQ(Asn::parse("AS1.1")->value(), 65537u);
}

TEST(Asn, ParseRejectsMalformed) {
  EXPECT_FALSE(Asn::parse(""));
  EXPECT_FALSE(Asn::parse("AS"));
  EXPECT_FALSE(Asn::parse("12x"));
  EXPECT_FALSE(Asn::parse("-3"));
  EXPECT_FALSE(Asn::parse("1.2.3"));
  EXPECT_FALSE(Asn::parse("70000.1"));     // asdot high > 16 bit
  EXPECT_FALSE(Asn::parse("4294967296"));  // > 32 bit
}

struct ReservedCase {
  std::uint32_t value;
  bool reserved;
};

// gtest would otherwise print the raw object bytes, padding included, and
// those bytes end up in the discovered ctest names.
void PrintTo(const ReservedCase& c, std::ostream* os) {
  *os << "Asn" << c.value << (c.reserved ? "_reserved" : "_unreserved");
}

class AsnReservedTest : public ::testing::TestWithParam<ReservedCase> {};

TEST_P(AsnReservedTest, MatchesIanaRegistry) {
  EXPECT_EQ(Asn(GetParam().value).reserved(), GetParam().reserved)
      << "ASN " << GetParam().value;
}

INSTANTIATE_TEST_SUITE_P(
    IanaSpecialRegistry, AsnReservedTest,
    ::testing::Values(
        ReservedCase{0, true},            // RFC 7607
        ReservedCase{1, false},           //
        ReservedCase{23455, false},       //
        ReservedCase{23456, true},        // AS_TRANS, RFC 6793
        ReservedCase{23457, false},       //
        ReservedCase{64495, false},       //
        ReservedCase{64496, true},        // documentation, RFC 5398
        ReservedCase{64511, true},        //
        ReservedCase{64512, true},        // private use, RFC 6996
        ReservedCase{65534, true},        //
        ReservedCase{65535, true},        // reserved, RFC 7300
        ReservedCase{65536, true},        // documentation, RFC 5398
        ReservedCase{65551, true},        //
        ReservedCase{65552, false},       //
        ReservedCase{4199999999, false},  //
        ReservedCase{4200000000, true},   // private use, RFC 6996
        ReservedCase{4294967294, true},   //
        ReservedCase{4294967295, true}    // reserved, RFC 7300
        ));

TEST(Asn, PrivateUseSubset) {
  EXPECT_TRUE(Asn(64512).private_use());
  EXPECT_TRUE(Asn(4200000000U).private_use());
  EXPECT_FALSE(Asn(23456).private_use());  // reserved but not private
  EXPECT_FALSE(Asn(64496).private_use());
}

TEST(Asn, OrderingAndHash) {
  EXPECT_LT(Asn(1), Asn(2));
  EXPECT_EQ(Asn(7), Asn(7));
  EXPECT_NE(std::hash<Asn>{}(Asn(1)), std::hash<Asn>{}(Asn(2)));
}

// -------------------------------------------------------------- Prefix ----

TEST(Prefix, ParseV4) {
  const auto p = Prefix::parse("10.0.0.0/8");
  ASSERT_TRUE(p);
  EXPECT_EQ(p->family(), Prefix::Family::kIpv4);
  EXPECT_EQ(p->length(), 8);
  EXPECT_EQ(static_cast<std::uint32_t>(p->bits()), 0x0a000000u);
  EXPECT_EQ(p->str(), "10.0.0.0/8");
}

TEST(Prefix, ParseCanonicalizesHostBits) {
  const auto p = Prefix::parse("10.1.2.3/8");
  ASSERT_TRUE(p);
  EXPECT_EQ(p->str(), "10.0.0.0/8");
  EXPECT_EQ(*p, *Prefix::parse("10.0.0.0/8"));
}

TEST(Prefix, ParseRejectsMalformedV4) {
  EXPECT_FALSE(Prefix::parse("10.0.0.0"));       // no length
  EXPECT_FALSE(Prefix::parse("10.0.0/8"));       // 3 octets
  EXPECT_FALSE(Prefix::parse("10.0.0.256/8"));   // octet overflow
  EXPECT_FALSE(Prefix::parse("10.0.0.0/33"));    // length too long
  EXPECT_FALSE(Prefix::parse("10.0.0.0/"));      //
  EXPECT_FALSE(Prefix::parse("a.b.c.d/8"));      //
}

TEST(Prefix, ParseV6) {
  const auto p = Prefix::parse("2001:db8::/32");
  ASSERT_TRUE(p);
  EXPECT_EQ(p->family(), Prefix::Family::kIpv6);
  EXPECT_EQ(p->length(), 32);
  EXPECT_EQ(static_cast<std::uint64_t>(p->bits() >> 64), 0x20010db800000000ULL);
}

TEST(Prefix, ParseV6Forms) {
  EXPECT_TRUE(Prefix::parse("::/0"));
  EXPECT_TRUE(Prefix::parse("::1/128"));
  EXPECT_TRUE(Prefix::parse("1:2:3:4:5:6:7:8/128"));
  EXPECT_FALSE(Prefix::parse("1:2:3/64"));         // too few groups, no ::
  EXPECT_FALSE(Prefix::parse("1::2::3/64"));       // double elision
  EXPECT_FALSE(Prefix::parse("2001:db8::/129"));   // bad length
  EXPECT_FALSE(Prefix::parse("1:2:3:4:5:6:7:8:9/128"));
  EXPECT_FALSE(Prefix::parse("12345::/16"));       // group too wide
}

TEST(Prefix, V6RoundTrip) {
  const auto p = Prefix::parse("2001:db8:1::/48");
  ASSERT_TRUE(p);
  const auto q = Prefix::parse(p->str());
  ASSERT_TRUE(q);
  EXPECT_EQ(*p, *q);
}

TEST(Prefix, Contains) {
  const auto eight = *Prefix::parse("10.0.0.0/8");
  const auto sixteen = *Prefix::parse("10.1.0.0/16");
  const auto other = *Prefix::parse("11.0.0.0/16");
  EXPECT_TRUE(eight.contains(sixteen));
  EXPECT_TRUE(eight.contains(eight));
  EXPECT_FALSE(sixteen.contains(eight));
  EXPECT_FALSE(eight.contains(other));
  const auto v6 = *Prefix::parse("2001:db8::/32");
  EXPECT_FALSE(eight.contains(v6));  // cross-family
  EXPECT_TRUE(Prefix::parse("::/0")->contains(v6));
}

TEST(Prefix, OrderingIsTotal) {
  const auto a = *Prefix::parse("10.0.0.0/8");
  const auto b = *Prefix::parse("10.0.0.0/16");
  const auto c = *Prefix::parse("11.0.0.0/8");
  EXPECT_LT(a, b);  // same bits, shorter first
  EXPECT_LT(a, c);
  EXPECT_LT(b, c);
}

TEST(Prefix, V4ConstructorClampsLength) {
  const auto p = Prefix::v4(0x0a000000, 40);
  EXPECT_EQ(p.length(), 32);
}

TEST(Prefix, HashDistinguishes) {
  const std::hash<Prefix> h;
  EXPECT_NE(h(*Prefix::parse("10.0.0.0/8")), h(*Prefix::parse("10.0.0.0/9")));
  EXPECT_EQ(h(*Prefix::parse("10.9.9.9/8")), h(*Prefix::parse("10.0.0.0/8")));
}

// A prefix as one 128-bit value, with the comparison, hash, containment and
// rendering Prefix had when it stored its bits that way.  Prefix now stores
// four u32 words; it must still mean exactly this.
struct RefPrefix {
  Prefix::Family family;
  unsigned __int128 bits;
  std::uint8_t length;

  RefPrefix(Prefix::Family f, unsigned __int128 raw, unsigned len) : family(f) {
    const unsigned width = f == Prefix::Family::kIpv4 ? 32 : 128;
    length = static_cast<std::uint8_t>(std::min(len, width));
    bits = raw & mask(length, width);
  }
  static unsigned __int128 mask(unsigned length, unsigned width) {
    unsigned __int128 keep = 0;
    for (unsigned i = 0; i < length; ++i) keep |= static_cast<unsigned __int128>(1) << (width - 1 - i);
    return keep;
  }
  std::strong_ordering operator<=>(const RefPrefix& o) const {
    if (family != o.family) return family <=> o.family;
    if (bits != o.bits) return bits < o.bits ? std::strong_ordering::less
                                             : std::strong_ordering::greater;
    return length <=> o.length;
  }
  bool operator==(const RefPrefix& o) const {
    return family == o.family && bits == o.bits && length == o.length;
  }
  std::size_t hash() const {
    const auto low = static_cast<std::uint64_t>(bits);
    const auto high = static_cast<std::uint64_t>(bits >> 64);
    std::uint64_t h = low * 0x9e3779b97f4a7c15ULL;
    h ^= high + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
    h ^= (static_cast<std::uint64_t>(length) << 8) | static_cast<std::uint64_t>(family);
    return static_cast<std::size_t>(h);
  }
  bool contains(const RefPrefix& o) const {
    if (family != o.family || o.length < length) return false;
    const auto keep = mask(length, family == Prefix::Family::kIpv4 ? 32 : 128);
    return (bits & keep) == (o.bits & keep);
  }
  std::string str() const {
    std::ostringstream oss;
    if (family == Prefix::Family::kIpv4) {
      const auto addr = static_cast<std::uint32_t>(bits);
      oss << (addr >> 24) << '.' << ((addr >> 16) & 0xff) << '.' << ((addr >> 8) & 0xff) << '.'
          << (addr & 0xff);
    } else {
      oss << std::hex;
      for (int g = 7; g >= 0; --g) {
        oss << static_cast<std::uint16_t>(bits >> (g * 16));
        if (g != 0) oss << ':';
      }
    }
    oss << std::dec << '/' << static_cast<unsigned>(length);
    return oss.str();
  }
};

TEST(Prefix, WordLayoutMatches128BitReference) {
  util::Rng rng(20240917);
  std::vector<std::pair<Prefix, RefPrefix>> pairs;
  for (int i = 0; i < 4000; ++i) {
    const bool v6 = rng.bernoulli(0.5);
    const auto family = v6 ? Prefix::Family::kIpv6 : Prefix::Family::kIpv4;
    // Few distinct high words, so equal, nested and adjacent prefixes occur.
    unsigned __int128 raw = (static_cast<unsigned __int128>(rng.uniform(4)) << 126) |
                            (static_cast<unsigned __int128>(rng()) << 64) | rng();
    if (!v6) raw = (rng.uniform(4) << 30) | (rng() & 0x3fffffffu);
    if (i > 0 && rng.bernoulli(0.3)) {  // a sibling or sub-prefix of the last one
      raw = pairs.back().second.bits | (raw & rng.uniform(4));
    }
    const auto length = static_cast<unsigned>(rng.uniform(v6 ? 131 : 35));
    pairs.emplace_back(Prefix(family, raw, static_cast<std::uint8_t>(length)),
                       RefPrefix(family, raw, length));
  }
  const std::hash<Prefix> hash;
  std::size_t nested = 0;  // distinct pairs where one contains the other
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    const auto& [p, ref] = pairs[i];
    ASSERT_EQ(p.bits(), ref.bits) << ref.str();
    ASSERT_EQ(p.length(), ref.length) << ref.str();
    ASSERT_EQ(p.family(), ref.family) << ref.str();
    ASSERT_EQ(hash(p), ref.hash()) << ref.str();
    ASSERT_EQ(p.str(), ref.str());
    ASSERT_EQ(Prefix::parse(p.str()), p) << ref.str();
    for (const std::size_t j : {i, i == 0 ? i : i - 1, (i * 7919) % pairs.size()}) {
      const auto& [q, qref] = pairs[j];
      ASSERT_EQ(p <=> q, ref <=> qref) << ref.str() << " vs " << qref.str();
      ASSERT_EQ(p == q, ref == qref) << ref.str() << " vs " << qref.str();
      ASSERT_EQ(p.contains(q), ref.contains(qref)) << ref.str() << " vs " << qref.str();
      ASSERT_EQ(q.contains(p), qref.contains(ref)) << qref.str() << " vs " << ref.str();
      if (j != i && (ref.contains(qref) || qref.contains(ref))) ++nested;
    }
  }
  EXPECT_GT(nested, 200u);
}

// -------------------------------------------------------------- AsPath ----

TEST(AsPath, BasicAccessors) {
  const AsPath p{701, 174, 3356};
  EXPECT_EQ(p.size(), 3u);
  EXPECT_EQ(p.first().value(), 701u);
  EXPECT_EQ(p.last().value(), 3356u);
  EXPECT_TRUE(p.contains(Asn(174)));
  EXPECT_FALSE(p.contains(Asn(1)));
  EXPECT_EQ(p.index_of(Asn(174)), 1u);
  EXPECT_FALSE(p.index_of(Asn(9)));
}

TEST(AsPath, LoopDetection) {
  EXPECT_FALSE((AsPath{1, 2, 3}.has_loop()));
  EXPECT_TRUE((AsPath{1, 2, 1}.has_loop()));
  EXPECT_FALSE((AsPath{1, 2, 2, 3}.has_loop()));  // prepending is not a loop
  EXPECT_TRUE((AsPath{1, 2, 2, 3, 2}.has_loop()));
  EXPECT_FALSE(AsPath{}.has_loop());
}

TEST(AsPath, PrependingDetectionAndCompression) {
  const AsPath p{701, 701, 174, 174, 174, 3356};
  EXPECT_TRUE(p.has_prepending());
  const auto compressed = p.compress_prepending();
  EXPECT_EQ(compressed, (AsPath{701, 174, 3356}));
  EXPECT_FALSE(compressed.has_prepending());
  // Idempotent.
  EXPECT_EQ(compressed.compress_prepending(), compressed);
}

TEST(AsPath, ReservedDetection) {
  EXPECT_TRUE((AsPath{1, 64512, 2}.has_reserved_asn()));
  EXPECT_TRUE((AsPath{1, 23456}.has_reserved_asn()));
  EXPECT_FALSE((AsPath{1, 2, 3}.has_reserved_asn()));
}

TEST(AsPath, ParseAndStr) {
  const auto p = AsPath::parse("701 174 3356");
  ASSERT_TRUE(p);
  EXPECT_EQ(*p, (AsPath{701, 174, 3356}));
  EXPECT_EQ(p->str(), "701 174 3356");
  EXPECT_TRUE(AsPath::parse("")->empty());
  EXPECT_FALSE(AsPath::parse("701 {1,2} 3356"));  // AS_SET remnant rejected
  EXPECT_FALSE(AsPath::parse("701 abc"));
}

TEST(AsPath, EqualityIsExact) {
  EXPECT_EQ((AsPath{1, 2}), (AsPath{1, 2}));
  EXPECT_NE((AsPath{1, 2}), (AsPath{2, 1}));
  EXPECT_NE((AsPath{1, 2}), (AsPath{1, 2, 2}));
}

// Representation: up to kInlineHops hops live inline, longer paths on the
// heap.  Every operation must behave the same on both sides of the line.

AsPath sequential_path(std::uint32_t hops, std::uint32_t base = 1) {
  AsPath path;
  for (std::uint32_t i = 0; i < hops; ++i) path.push_back(Asn(base + i));
  return path;
}

void expect_hops(const AsPath& path, std::uint32_t hops, std::uint32_t base = 1) {
  ASSERT_EQ(path.size(), hops);
  EXPECT_EQ(path.empty(), hops == 0);
  EXPECT_EQ(path.hops().size(), hops);
  for (std::uint32_t i = 0; i < hops; ++i) EXPECT_EQ(path.hops()[i].value(), base + i);
}

TEST(AsPathLayout, ThirtyTwoBytesSixInline) {
  EXPECT_EQ(sizeof(AsPath), 32u);
  EXPECT_EQ(AsPath::kInlineHops, 6u);
}

TEST(AsPathLayout, LengthsAcrossTheInlineLimit) {
  for (const std::uint32_t hops : {0u, 1u, 6u, 7u, 255u, 256u, 600u}) {
    SCOPED_TRACE(hops);
    const AsPath pushed = sequential_path(hops);
    expect_hops(pushed, hops);

    std::vector<Asn> raw;
    for (std::uint32_t i = 0; i < hops; ++i) raw.emplace_back(1 + i);
    const AsPath from_vector(raw);
    const AsPath from_span{std::span<const Asn>(raw)};
    EXPECT_EQ(from_vector, pushed);
    EXPECT_EQ(from_span, pushed);

    const auto parsed = AsPath::parse(pushed.str());
    ASSERT_TRUE(parsed);
    EXPECT_EQ(*parsed, pushed);
    if (hops > 0) {
      EXPECT_EQ(pushed.first().value(), 1u);
      EXPECT_EQ(pushed.last().value(), hops);
      EXPECT_EQ(pushed.index_of(Asn(hops)), hops - 1);
    }
    EXPECT_THROW((void)pushed.at(hops), std::out_of_range);
  }
  EXPECT_THROW((void)AsPath{}.first(), std::out_of_range);
  EXPECT_THROW((void)AsPath{}.last(), std::out_of_range);
}

TEST(AsPathLayout, CopyAndMoveInlineAndHeap) {
  for (const std::uint32_t hops : {3u, 6u, 7u, 600u}) {
    SCOPED_TRACE(hops);
    const AsPath original = sequential_path(hops);

    AsPath copy(original);
    expect_hops(copy, hops);
    AsPath assigned = sequential_path(2, 900);
    assigned = original;
    expect_hops(assigned, hops);
    AsPath long_target = sequential_path(300, 900);  // heap buffer reused
    long_target = original;
    expect_hops(long_target, hops);

    AsPath moved(std::move(copy));
    expect_hops(moved, hops);
    EXPECT_TRUE(copy.empty());  // NOLINT(bugprone-use-after-move)
    copy.push_back(Asn(42));    // a moved-from path is reusable
    EXPECT_EQ(copy, (AsPath{42}));

    AsPath move_assigned = sequential_path(300, 900);
    move_assigned = std::move(moved);
    expect_hops(move_assigned, hops);
    EXPECT_TRUE(moved.empty());  // NOLINT(bugprone-use-after-move)
    moved = sequential_path(8, 5);
    expect_hops(moved, 8, 5);

    AsPath& self = assigned;
    assigned = self;
    expect_hops(assigned, hops);
    assigned = std::move(self);
    expect_hops(assigned, hops);
    EXPECT_EQ(original.hops().size(), hops);  // the source is untouched
  }
}

TEST(AsPathLayout, EqualityIgnoresStorage) {
  AsPath heap;
  heap.reserve(100);  // three hops, but in a heap buffer
  for (const std::uint32_t v : {701u, 174u, 3356u}) heap.push_back(Asn(v));
  const AsPath inline_path{701, 174, 3356};
  EXPECT_EQ(heap, inline_path);
  EXPECT_EQ(inline_path, heap);
  EXPECT_NE(heap, (AsPath{701, 174}));
  EXPECT_EQ(AsPath(heap), inline_path);
}

TEST(AsPathLayout, PushBackCrossesToHeap) {
  AsPath path;
  for (std::uint32_t i = 1; i <= 6; ++i) path.push_back(Asn(i));
  const auto inline_hops = path.hops();
  expect_hops(path, 6);
  path.push_back(Asn(7));  // spills to the heap; the old span is now stale
  expect_hops(path, 7);
  EXPECT_NE(path.hops().data(), inline_hops.data());
  for (std::uint32_t i = 8; i <= 600; ++i) path.push_back(Asn(i));
  expect_hops(path, 600);
}

TEST(AsPathLayout, CompressTakesHeapPathInline) {
  AsPath path;
  for (const std::uint32_t v : {701u, 174u, 3356u}) {
    for (int copy = 0; copy < 5; ++copy) path.push_back(Asn(v));
  }
  ASSERT_EQ(path.size(), 15u);
  const AsPath compressed = path.compress_prepending();
  EXPECT_EQ(compressed, (AsPath{701, 174, 3356}));
  EXPECT_FALSE(compressed.has_prepending());
  const AsPath long_compressed = sequential_path(600).compress_prepending();
  expect_hops(long_compressed, 600);
}

TEST(AsPathLayout, LoopCheckOverSpansPastSixteenRuns) {
  // Beyond 16 runs the check sorts; it must agree with the pairwise one.
  AsPath path = sequential_path(40);
  EXPECT_FALSE(path.has_loop());
  EXPECT_FALSE(has_loop(path.hops()));
  path.push_back(Asn(40));  // prepending
  EXPECT_FALSE(path.has_loop());
  path.push_back(Asn(3));
  EXPECT_TRUE(path.has_loop());
  EXPECT_TRUE(has_loop(path.hops()));
  EXPECT_FALSE(has_loop({}));
}

}  // namespace
}  // namespace asrank
