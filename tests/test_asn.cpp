#include <gtest/gtest.h>

#include "asn/as_path.h"
#include "asn/asn.h"
#include "asn/prefix.h"

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

}  // namespace
}  // namespace asrank
