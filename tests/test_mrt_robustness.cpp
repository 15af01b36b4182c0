// Robustness tests for the wire-format decoders: randomly mutated or
// truncated input must either parse or throw DecodeError — never crash,
// hang, or read out of bounds.  (Run under ASan/UBSan for full effect;
// the assertions here pin down the throw-or-parse contract.)
//
// Each MrtFuzz suite also folds every round's outcome (a hash of the
// decoded structure, or the exception type and message) into one digest
// per seed and compares it with a pinned value, so a decoder rewrite that
// changes what any mutated input decodes to, or how it fails, is caught.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <new>
#include <span>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "bgpsim/observation.h"
#include "mrt/bgp4mp.h"
#include "mrt/table_dump_v1.h"
#include "mrt/table_dump_v2.h"
#include "topogen/topogen.h"
#include "util/hash.h"
#include "util/rng.h"

namespace asrank::mrt {
namespace {

/// Order-dependent fold of decoded structures and failure messages.
class Digest {
 public:
  void add(std::uint64_t v) noexcept { h_ = util::mix64(h_, v); }
  void add(std::string_view bytes) noexcept {
    add(bytes.size());
    add(util::fnv1a_64(bytes));
  }
  void add(const Prefix& prefix) noexcept {
    add(static_cast<std::uint64_t>(prefix.family()));
    add(static_cast<std::uint64_t>(prefix.bits() >> 64));
    add(static_cast<std::uint64_t>(prefix.bits()));
    add(prefix.length());
  }
  void add(const BgpAttributes& attrs) noexcept {
    add(static_cast<std::uint64_t>(attrs.origin));
    add(attrs.as_path.size());
    for (const Asn hop : attrs.as_path.hops()) add(hop.value());
    add(attrs.has_as_set ? 1 : 0);
    add(attrs.next_hop ? 1 + std::uint64_t{*attrs.next_hop} : 0);
    add(attrs.communities.size());
    for (const Community c : attrs.communities) add(c.raw());
    add(attrs.opaque.size());
    for (const OpaqueAttr& attr : attrs.opaque) {
      add(attr.flags);
      add(attr.type);
      add(std::string_view(reinterpret_cast<const char*>(attr.payload.data()),
                           attr.payload.size()));
    }
  }
  void add(const RibDump& dump) noexcept {
    add(dump.collector_bgp_id);
    add(dump.view_name);
    add(dump.timestamp);
    add(dump.peers.size());
    for (const PeerEntry& peer : dump.peers) {
      add(peer.bgp_id);
      add(peer.ipv4);
      add(peer.as.value());
    }
    add(dump.rib.size());
    for (const RibEntry& entry : dump.rib) {
      add(entry.prefix);
      add(entry.routes.size());
      for (const RibRoute& route : entry.routes) {
        add(route.peer_index);
        add(route.originated_time);
        add(route.attrs);
      }
    }
  }
  void add(const std::vector<UpdateMessage>& updates) noexcept {
    add(updates.size());
    for (const UpdateMessage& update : updates) {
      add(update.timestamp);
      add(update.peer_as.value());
      add(update.local_as.value());
      add(update.peer_ip);
      add(update.local_ip);
      add(update.withdrawn.size());
      for (const Prefix& prefix : update.withdrawn) add(prefix);
      add(update.announced.size());
      for (const Prefix& prefix : update.announced) add(prefix);
      add(update.attrs);
    }
  }
  void add(const std::vector<TableDumpV1Entry>& entries) noexcept {
    add(entries.size());
    for (const TableDumpV1Entry& entry : entries) {
      add(entry.timestamp);
      add(entry.prefix);
      add(entry.originated_time);
      add(entry.peer_ip);
      add(entry.peer_as.value());
      add(entry.attrs);
    }
  }
  /// One failed round: which acceptable exception type, and its message.
  void fail(std::uint64_t type, const std::exception& error) noexcept {
    add(type);
    add(std::string_view(error.what()));
  }

  [[nodiscard]] std::uint64_t value() const noexcept { return h_; }

 private:
  std::uint64_t h_ = 0;
};

/// Decode `bytes` and fold the outcome: the decoded structure, or which
/// acceptable exception it threw and its message.
template <typename Decode>
void fold_outcome(Digest& digest, const std::string& bytes, const Decode& decode) {
  std::stringstream stream(bytes);
  try {
    digest.add(0);
    digest.add(decode(stream));
  } catch (const DecodeError& error) {
    digest.fail(1, error);
  } catch (const std::length_error& error) {
    // allocation guard on absurd declared lengths: acceptable
    digest.fail(2, error);
  } catch (const std::bad_alloc& error) {
    // mutated length field demanded a huge buffer: acceptable
    digest.fail(3, error);
  }
}

/// Per-seed digests (seeds 1..8) of each MrtFuzz suite's 50 outcomes.
using Pinned = std::array<std::uint64_t, 8>;
constexpr Pinned kMutatedV2Digests = {
    0x41754f302aededa0ULL, 0xce0016359d74d39aULL,
    0x48fa6d131a23bad8ULL, 0x315191cd9522730aULL,
    0x6d565961cdcbeb8aULL, 0x485748b19ac0c7f5ULL,
    0xb51fea173cf73587ULL, 0x6f8f6ecf85a194d6ULL};
constexpr Pinned kTruncatedV2Digests = {
    0xc8b29a78765ffd3dULL, 0xad16b0ad4d8b5e13ULL,
    0x1fee60e2931fadb5ULL, 0xbece595924c6372cULL,
    0x8ae230d036f9eaeeULL, 0x32293af4380f66a7ULL,
    0x43e0ebe3f712fb2dULL, 0xb9c2d035c15454ecULL};
constexpr Pinned kMutatedBgp4mpDigests = {
    0x250b56b0386277cdULL, 0x70d9efd4ea50581bULL,
    0xf6c83b4e6660eb56ULL, 0x9ec94b04bb231119ULL,
    0x9dbfef04231c91d5ULL, 0xa94fe08f61850836ULL,
    0x7c8d7ab7a72e49f7ULL, 0x6a5072eba8a435d0ULL};
constexpr Pinned kMutatedV1Digests = {
    0xb308fd77b632b05fULL, 0xc15f8054e9518cf9ULL,
    0xcc181f620b9ebdddULL, 0x47617e503b04b2caULL,
    0xe16701337b917960ULL, 0xcfb08586ad2fc2abULL,
    0x568638855788ce7fULL, 0xa66483111e6e8155ULL};

void expect_pinned(const Pinned& pinned, std::uint64_t seed, const Digest& digest) {
  ASSERT_GE(seed, 1u);
  ASSERT_LE(seed, pinned.size());
  EXPECT_EQ(digest.value(), pinned[seed - 1])
      << "seed " << seed << " digest 0x" << std::hex << digest.value();
}

std::string wellformed_v2_bytes() {
  const auto truth = topogen::generate(topogen::GenParams::preset("tiny"));
  bgpsim::ObservationParams params;
  params.full_vps = 3;
  params.partial_vps = 1;
  const auto observation = bgpsim::observe(truth, params);
  std::stringstream stream;
  write_table_dump_v2(bgpsim::to_rib_dump(observation), stream);
  return stream.str();
}

class MrtFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MrtFuzz, MutatedV2EitherParsesOrThrows) {
  static const std::string base = wellformed_v2_bytes();
  util::Rng rng(GetParam());
  Digest digest;
  for (int round = 0; round < 50; ++round) {
    std::string bytes = base;
    const std::size_t flips = 1 + rng.uniform(8);
    for (std::size_t f = 0; f < flips; ++f) {
      bytes[rng.uniform(bytes.size())] ^= static_cast<char>(1 + rng.uniform(255));
    }
    fold_outcome(digest, bytes, [](std::istream& stream) {
      auto dump = read_table_dump_v2(stream);
      // Parsed despite mutation: structure must still be sane.
      for (const auto& entry : dump.rib) {
        for (const auto& route : entry.routes) {
          EXPECT_LE(route.peer_index, 0xffff);
        }
      }
      return dump;
    });
  }
  expect_pinned(kMutatedV2Digests, GetParam(), digest);
}

TEST_P(MrtFuzz, TruncatedV2EitherParsesOrThrows) {
  static const std::string base = wellformed_v2_bytes();
  util::Rng rng(GetParam() + 1000);
  Digest digest;
  for (int round = 0; round < 50; ++round) {
    const std::string bytes = base.substr(0, rng.uniform(base.size()));
    std::stringstream stream(bytes);
    try {
      digest.add(0);
      digest.add(read_table_dump_v2(stream));
    } catch (const DecodeError& error) {
      digest.fail(1, error);
    }
  }
  expect_pinned(kTruncatedV2Digests, GetParam(), digest);
}

TEST_P(MrtFuzz, MutatedBgp4mpEitherParsesOrThrows) {
  std::stringstream base_stream;
  for (std::uint32_t i = 1; i <= 20; ++i) {
    UpdateMessage update;
    update.timestamp = i;
    update.peer_as = Asn(i);
    update.local_as = Asn(65000);
    update.announced = {Prefix::v4(i << 12, 20)};
    update.attrs.as_path = AsPath{i, i + 1, i + 2};
    update.withdrawn = {Prefix::v4(i << 20, 12)};
    write_update(update, base_stream);
  }
  const std::string base = base_stream.str();

  util::Rng rng(GetParam() + 2000);
  Digest digest;
  for (int round = 0; round < 50; ++round) {
    std::string bytes = base;
    for (std::size_t f = 0; f < 1 + rng.uniform(8); ++f) {
      bytes[rng.uniform(bytes.size())] ^= static_cast<char>(1 + rng.uniform(255));
    }
    fold_outcome(digest, bytes, [](std::istream& stream) { return read_updates(stream); });
  }
  expect_pinned(kMutatedBgp4mpDigests, GetParam(), digest);
}

TEST_P(MrtFuzz, MutatedV1EitherParsesOrThrows) {
  std::stringstream base_stream;
  for (std::uint32_t i = 1; i <= 20; ++i) {
    TableDumpV1Entry entry;
    entry.timestamp = i;
    entry.prefix = Prefix::v4(i << 16, 16);
    entry.peer_as = Asn(100 + i);
    entry.attrs.as_path = AsPath{100 + i, 200 + i};
    write_table_dump_v1(entry, base_stream);
  }
  const std::string base = base_stream.str();

  util::Rng rng(GetParam() + 3000);
  Digest digest;
  for (int round = 0; round < 50; ++round) {
    std::string bytes = base;
    for (std::size_t f = 0; f < 1 + rng.uniform(8); ++f) {
      bytes[rng.uniform(bytes.size())] ^= static_cast<char>(1 + rng.uniform(255));
    }
    fold_outcome(digest, bytes, [](std::istream& stream) { return read_table_dump_v1(stream); });
  }
  expect_pinned(kMutatedV1Digests, GetParam(), digest);
}

INSTANTIATE_TEST_SUITE_P(Seeds, MrtFuzz, ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

// ----------------------------------------------- decoder fallback paths ----
// ByteReader reads a u32 after one range check, and the AS_PATH decoder
// reads the hops of an AS_SEQUENCE that its body holds whole in one go.  On
// short input both throw the error of the per-word reads they replaced: the
// text a u32 read as two u16 halves gave.

/// What decoding `bytes` as path attributes throws ("parsed" if nothing).
std::string attrs_error(const std::vector<std::uint8_t>& bytes) {
  ByteReader reader(bytes);
  try {
    (void)decode_attributes(reader);
  } catch (const DecodeError& error) {
    return error.what();
  }
  return "parsed";
}

/// ORIGIN IGP, then one AS_PATH attribute whose body is `path_body`.
std::vector<std::uint8_t> with_path_body(const std::vector<std::uint8_t>& path_body) {
  const std::array<std::uint8_t, 7> head = {0x40, 1, 1, 0, 0x40, 2,
                                            static_cast<std::uint8_t>(path_body.size())};
  std::vector<std::uint8_t> bytes(head.size() + path_body.size());
  std::copy(path_body.begin(), path_body.end(),
            std::copy(head.begin(), head.end(), bytes.begin()));
  return bytes;
}

TEST(MrtDecoderFallback, AsSequenceOverrunningItsBody) {
  // Three hops declared; one whole word and then 0-3 bytes of the second.
  const std::array<const char*, 4> expected = {
      "mrt: truncated input: need 2 bytes, have 0",
      "mrt: truncated input: need 2 bytes, have 1",
      "mrt: truncated input: need 2 bytes, have 0",
      "mrt: truncated input: need 2 bytes, have 1",
  };
  for (std::uint8_t tail = 0; tail < 4; ++tail) {
    std::vector<std::uint8_t> body = {2, 3, 0, 0, 0x01, 0x2c};
    for (std::uint8_t i = 0; i < tail; ++i) body.push_back(0xff);
    EXPECT_EQ(attrs_error(with_path_body(body)), expected[tail]) << "tail " << int{tail};
  }
  // A whole first segment, then a second one that overruns.
  EXPECT_EQ(attrs_error(with_path_body({2, 1, 0, 0, 0, 7, 2, 2, 0, 0, 0, 8, 0})),
            "mrt: truncated input: need 2 bytes, have 1");
  // A segment header cut after its type byte.
  EXPECT_EQ(attrs_error(with_path_body({2, 1, 0, 0, 0, 7, 2})),
            "mrt: truncated input: need 1 bytes, have 0");
}

TEST(MrtDecoderFallback, U32OverAShortTail) {
  const std::array<const char*, 3> expected = {
      "mrt: truncated input: need 2 bytes, have 1",
      "mrt: truncated input: need 2 bytes, have 0",
      "mrt: truncated input: need 2 bytes, have 1",
  };
  const std::vector<std::uint8_t> bytes(4, 0xab);
  for (std::size_t size = 1; size <= 3; ++size) {
    ByteReader reader(std::span<const std::uint8_t>(bytes).first(size));
    try {
      (void)reader.get_u32();
      ADD_FAILURE() << "a u32 read " << size << " bytes";
    } catch (const DecodeError& error) {
      EXPECT_EQ(std::string(error.what()), expected[size - 1]) << size << " bytes";
    }
  }
  const std::vector<std::uint8_t> word = {0xde, 0xad, 0xbe, 0xef};
  ByteReader reader(word);
  EXPECT_EQ(reader.get_u32(), 0xdeadbeefu);
  EXPECT_TRUE(reader.done());
}

TEST(MrtDecoderFallback, ShortU16) {
  const std::vector<std::uint8_t> bytes(2, 0xab);
  for (std::size_t size = 0; size <= 1; ++size) {
    ByteReader reader(std::span<const std::uint8_t>(bytes).first(size));
    try {
      (void)reader.get_u16();
      ADD_FAILURE() << "a u16 read " << size << " bytes";
    } catch (const DecodeError& error) {
      EXPECT_EQ(std::string(error.what()),
                "mrt: truncated input: need 2 bytes, have " + std::to_string(size));
    }
  }
}

TEST(MrtDecoderFallback, OverrunningSegmentInADump) {
  // A dump whose one route declares four hops but carries three.
  RibDump dump;
  dump.peers.push_back({1, 2, Asn(100)});
  RibRoute route;
  route.attrs.as_path = AsPath{100, 200, 300};
  dump.rib.push_back({Prefix::v4(0x0a000000, 8), {route}});
  std::stringstream out;
  write_table_dump_v2(dump, out);
  std::string bytes = out.str();
  const std::string segment("\x02\x03\x00\x00\x00\x64", 6);
  const auto at = bytes.find(segment);
  ASSERT_NE(at, std::string::npos);
  bytes[at + 1] = 4;
  std::stringstream in(bytes);
  const auto parsed = try_read_table_dump_v2(in);
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.error().code, ErrorCode::kTruncated);
  EXPECT_EQ(parsed.error().context, "mrt: truncated input: need 2 bytes, have 0");
}

TEST(MrtRobustness, EmptyInputs) {
  std::stringstream empty1, empty2, empty3;
  EXPECT_THROW((void)read_table_dump_v2(empty1), DecodeError);  // needs peer table
  EXPECT_TRUE(read_updates(empty2).empty());
  EXPECT_TRUE(read_table_dump_v1(empty3).empty());
}

TEST(MrtRobustness, TryReadTableDumpV2ClassifiesErrors) {
  // Missing peer table: structurally corrupt, not truncated.
  std::stringstream empty;
  auto parsed = try_read_table_dump_v2(empty);
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.error().code, ErrorCode::kCorrupt);
  EXPECT_NE(parsed.error().context.find("no PEER_INDEX_TABLE"),
            std::string::npos);

  // A well-formed dump cut mid-record is kTruncated.
  const std::string bytes = wellformed_v2_bytes();
  std::stringstream cut(bytes.substr(0, bytes.size() - 1));
  auto truncated = try_read_table_dump_v2(cut);
  ASSERT_FALSE(truncated.ok());
  EXPECT_EQ(truncated.error().code, ErrorCode::kTruncated);

  // The throwing wrapper reports the identical message.
  std::stringstream cut_again(bytes.substr(0, bytes.size() - 1));
  try {
    (void)read_table_dump_v2(cut_again);
    FAIL() << "expected DecodeError";
  } catch (const DecodeError& error) {
    EXPECT_EQ(truncated.error().context, error.what());
  }

  // An intact dump parses on the Result rail too.
  std::stringstream whole(bytes);
  EXPECT_TRUE(try_read_table_dump_v2(whole).ok());
}

TEST(MrtRobustness, TryReadUpdatesClassifiesErrors) {
  UpdateMessage update;
  update.timestamp = 7;
  update.peer_as = Asn(100);
  update.local_as = Asn(200);
  update.announced = {Prefix::v4(0x0a000000, 8)};
  update.attrs.as_path = AsPath{100, 300};
  std::stringstream full;
  write_update(update, full);
  const std::string bytes = full.str();

  std::stringstream cut(bytes.substr(0, bytes.size() - 1));
  auto truncated = try_read_updates(cut);
  ASSERT_FALSE(truncated.ok());
  EXPECT_EQ(truncated.error().code, ErrorCode::kTruncated);
  EXPECT_NE(truncated.error().context.find("truncated"), std::string::npos);

  std::stringstream cut_again(bytes.substr(0, bytes.size() - 1));
  try {
    (void)read_updates(cut_again);
    FAIL() << "expected DecodeError";
  } catch (const DecodeError& error) {
    EXPECT_EQ(truncated.error().context, error.what());
  }

  std::stringstream whole(bytes);
  auto ok = try_read_updates(whole);
  ASSERT_TRUE(ok.ok());
  ASSERT_EQ(ok.value().size(), 1u);
  EXPECT_EQ(ok.value()[0].announced, update.announced);
}

TEST(MrtRobustness, GarbageHeaderOnly) {
  std::string garbage(12, '\xff');  // one MRT header claiming a huge body
  std::stringstream stream(garbage);
  try {
    (void)read_updates(stream);
  } catch (const DecodeError&) {
  } catch (const std::length_error&) {
  } catch (const std::bad_alloc&) {
  }
}

}  // namespace
}  // namespace asrank::mrt
