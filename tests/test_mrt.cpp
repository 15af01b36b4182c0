#include <gtest/gtest.h>

#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "mrt/bgp4mp.h"
#include "mrt/bgp_attrs.h"
#include "mrt/bytes.h"
#include "mrt/table_dump_v2.h"
#include "mrt/text_table.h"

namespace asrank::mrt {
namespace {

// --------------------------------------------------------------- bytes ----

TEST(Bytes, WriterBigEndian) {
  ByteWriter w;
  w.put_u8(0x01);
  w.put_u16(0x0203);
  w.put_u32(0x04050607);
  const auto& b = w.bytes();
  ASSERT_EQ(b.size(), 7u);
  EXPECT_EQ(b[0], 0x01);
  EXPECT_EQ(b[1], 0x02);
  EXPECT_EQ(b[2], 0x03);
  EXPECT_EQ(b[3], 0x04);
  EXPECT_EQ(b[6], 0x07);
}

TEST(Bytes, ReaderRoundTrip) {
  ByteWriter w;
  w.put_u32(0xdeadbeef);
  w.put_u16(0xcafe);
  w.put_u8(0x42);
  w.put_string("hi");
  ByteReader r(w.bytes());
  EXPECT_EQ(r.get_u32(), 0xdeadbeefu);
  EXPECT_EQ(r.get_u16(), 0xcafeu);
  EXPECT_EQ(r.get_u8(), 0x42u);
  EXPECT_EQ(r.get_string(2), "hi");
  EXPECT_TRUE(r.done());
}

TEST(Bytes, ReaderUnderrunThrows) {
  const std::vector<std::uint8_t> data{1, 2};
  ByteReader r(data);
  EXPECT_EQ(r.get_u16(), 0x0102u);
  EXPECT_THROW((void)r.get_u8(), DecodeError);
}

TEST(Bytes, SubReaderConsumes) {
  const std::vector<std::uint8_t> data{1, 2, 3, 4};
  ByteReader r(data);
  ByteReader sub = r.sub(2);
  EXPECT_EQ(sub.get_u16(), 0x0102u);
  EXPECT_EQ(r.get_u16(), 0x0304u);
  EXPECT_THROW((void)r.sub(1), DecodeError);
}

TEST(Bytes, PatchBackfillsLength) {
  ByteWriter w;
  w.put_u16(0);
  w.put_u32(0);
  w.patch_u16(0, 0xaabb);
  w.patch_u32(2, 0x11223344);
  ByteReader r(w.bytes());
  EXPECT_EQ(r.get_u16(), 0xaabbu);
  EXPECT_EQ(r.get_u32(), 0x11223344u);
  EXPECT_THROW(w.patch_u16(100, 0), std::out_of_range);
}

// --------------------------------------------------------------- attrs ----

BgpAttributes sample_attrs() {
  BgpAttributes attrs;
  attrs.origin = Origin::kEgp;
  attrs.as_path = AsPath{701, 174, 3356};
  attrs.next_hop = 0xc0000201;
  attrs.communities = {Community{3356, 100}, Community{701, 666}};
  return attrs;
}

TEST(Attrs, RoundTrip) {
  const auto attrs = sample_attrs();
  const auto wire = encode_attributes(attrs);
  ByteReader r(wire);
  const auto decoded = decode_attributes(r);
  EXPECT_EQ(decoded, attrs);
}

TEST(Attrs, MinimalPathOnly) {
  BgpAttributes attrs;
  attrs.as_path = AsPath{65000};
  const auto wire = encode_attributes(attrs);
  ByteReader r(wire);
  const auto decoded = decode_attributes(r);
  EXPECT_EQ(decoded.as_path, attrs.as_path);
  EXPECT_FALSE(decoded.next_hop);
  EXPECT_TRUE(decoded.communities.empty());
}

TEST(Attrs, LongPathSplitsSegments) {
  std::vector<Asn> hops;
  for (std::uint32_t i = 1; i <= 300; ++i) hops.emplace_back(i);
  BgpAttributes attrs;
  attrs.as_path = AsPath(hops);
  const auto wire = encode_attributes(attrs);
  ByteReader r(wire);
  EXPECT_EQ(decode_attributes(r).as_path.size(), 300u);
}

TEST(Attrs, AsSetDecodes) {
  // Hand-craft an AS_PATH with an AS_SET segment {30,10,20} after seq [1].
  ByteWriter body;
  body.put_u8(2);  // AS_SEQUENCE
  body.put_u8(1);
  body.put_u32(1);
  body.put_u8(1);  // AS_SET
  body.put_u8(3);
  body.put_u32(30);
  body.put_u32(10);
  body.put_u32(20);
  ByteWriter w;
  w.put_u8(0x40);  // transitive
  w.put_u8(2);     // AS_PATH
  w.put_u8(static_cast<std::uint8_t>(body.size()));
  w.put_bytes(body.bytes());
  ByteReader r(w.bytes());
  const auto decoded = decode_attributes(r);
  EXPECT_TRUE(decoded.has_as_set);
  EXPECT_EQ(decoded.as_path, (AsPath{1, 10, 20, 30}));  // set sorted
  EXPECT_THROW((void)encode_attributes(decoded), std::invalid_argument);
}

/// An attribute block holding only an AS_PATH with the given body.
std::vector<std::uint8_t> as_path_attribute(const ByteWriter& body) {
  ByteWriter w;
  w.put_u8(0x40);  // transitive
  w.put_u8(2);     // AS_PATH
  w.put_u8(static_cast<std::uint8_t>(body.size()));
  w.put_bytes(body.bytes());
  return w.take();
}

TEST(Attrs, AsSetSortedWithinItsSegmentAcrossInlineLimit) {
  // [1..5] {30,10,20} [7 4294967294]: the set lands on both sides of the
  // sixth hop and only its own members are sorted; a hop with its high bit
  // set decodes unsigned.
  ByteWriter body;
  body.put_u8(2);
  body.put_u8(5);
  for (std::uint32_t v = 1; v <= 5; ++v) body.put_u32(v);
  body.put_u8(1);
  body.put_u8(3);
  for (const std::uint32_t v : {30u, 10u, 20u}) body.put_u32(v);
  body.put_u8(2);
  body.put_u8(2);
  body.put_u32(7);
  body.put_u32(4294967294u);
  const auto wire = as_path_attribute(body);
  ByteReader r(wire);
  const auto decoded = decode_attributes(r);
  EXPECT_TRUE(decoded.has_as_set);
  EXPECT_EQ(decoded.as_path, (AsPath{1, 2, 3, 4, 5, 10, 20, 30, 7, 4294967294u}));
}

TEST(Attrs, UnknownSegmentTypeIsCheckedAfterItsWords) {
  // Segment type 3 is not defined.  With its words present the decoder
  // rejects the type; with them cut short it reports the truncation.
  ByteWriter whole;
  whole.put_u8(3);
  whole.put_u8(2);
  whole.put_u32(10);
  whole.put_u32(20);
  const auto whole_wire = as_path_attribute(whole);
  ByteReader whole_reader(whole_wire);
  try {
    (void)decode_attributes(whole_reader);
    FAIL() << "expected DecodeError";
  } catch (const DecodeError& error) {
    EXPECT_STREQ(error.what(), "mrt: unknown AS_PATH segment type");
  }

  ByteWriter cut;
  cut.put_u8(3);
  cut.put_u8(2);
  cut.put_u32(10);
  const auto cut_wire = as_path_attribute(cut);
  ByteReader cut_reader(cut_wire);
  try {
    (void)decode_attributes(cut_reader);
    FAIL() << "expected DecodeError";
  } catch (const DecodeError& error) {
    EXPECT_NE(std::string(error.what()).find("truncated"), std::string::npos) << error.what();
  }
}

TEST(Attrs, RepeatedAsPathReplacesTheFirst) {
  ByteWriter first;
  first.put_u8(2);
  first.put_u8(7);
  for (std::uint32_t v = 1; v <= 7; ++v) first.put_u32(v);
  ByteWriter second;
  second.put_u8(2);
  second.put_u8(2);
  second.put_u32(100);
  second.put_u32(200);
  auto wire = as_path_attribute(first);
  const auto tail = as_path_attribute(second);
  wire.insert(wire.end(), tail.begin(), tail.end());
  ByteReader r(wire);
  EXPECT_EQ(decode_attributes(r).as_path, (AsPath{100, 200}));
}

TEST(Attrs, UnknownAttributeRoundTripsOpaque) {
  BgpAttributes attrs;
  attrs.as_path = AsPath{1};
  attrs.opaque.push_back(OpaqueAttr{0xc0, 32, {1, 2, 3}});  // LARGE_COMMUNITY-ish
  const auto wire = encode_attributes(attrs);
  ByteReader r(wire);
  const auto decoded = decode_attributes(r);
  ASSERT_EQ(decoded.opaque.size(), 1u);
  EXPECT_EQ(decoded.opaque[0], attrs.opaque[0]);
}

TEST(Attrs, MalformedInputsThrow) {
  {
    ByteWriter w;  // ORIGIN with wrong length
    w.put_u8(0x40);
    w.put_u8(1);
    w.put_u8(2);
    w.put_u16(0);
    ByteReader r(w.bytes());
    EXPECT_THROW((void)decode_attributes(r), DecodeError);
  }
  {
    ByteWriter w;  // no AS_PATH at all
    w.put_u8(0x40);
    w.put_u8(1);
    w.put_u8(1);
    w.put_u8(0);
    ByteReader r(w.bytes());
    EXPECT_THROW((void)decode_attributes(r), DecodeError);
  }
  {
    ByteWriter w;  // truncated attribute body
    w.put_u8(0x40);
    w.put_u8(2);
    w.put_u8(10);  // claims 10 bytes, provides none
    ByteReader r(w.bytes());
    EXPECT_THROW((void)decode_attributes(r), DecodeError);
  }
}

TEST(Attrs, CommunityRawConversion) {
  const Community c{3356, 100};
  EXPECT_EQ(c.raw(), (3356u << 16) | 100u);
  EXPECT_EQ(Community::from_raw(c.raw()), c);
}

// ------------------------------------------------------- table dump v2 ----

RibDump sample_dump() {
  RibDump dump;
  dump.collector_bgp_id = 0xc0000201;
  dump.view_name = "test-view";
  dump.timestamp = 1367193600;
  dump.peers.push_back(PeerEntry{0x0a000001, 0x0a000001, Asn(701)});
  dump.peers.push_back(PeerEntry{0x0a000002, 0x0a000002, Asn(3356)});

  RibEntry entry;
  entry.prefix = *Prefix::parse("192.0.2.0/24");
  RibRoute route;
  route.peer_index = 0;
  route.originated_time = 1367000000;
  route.attrs = sample_attrs();
  entry.routes.push_back(route);
  route.peer_index = 1;
  route.attrs.as_path = AsPath{3356, 64500};
  entry.routes.push_back(route);
  dump.rib.push_back(entry);

  RibEntry entry2;
  entry2.prefix = *Prefix::parse("198.51.100.0/25");  // non-octet-aligned length
  RibRoute route2;
  route2.peer_index = 1;
  route2.attrs.as_path = AsPath{3356};
  entry2.routes.push_back(route2);
  dump.rib.push_back(entry2);
  return dump;
}

TEST(TableDumpV2, RoundTrip) {
  const auto dump = sample_dump();
  std::stringstream stream;
  write_table_dump_v2(dump, stream);
  const auto parsed = read_table_dump_v2(stream);
  EXPECT_EQ(parsed, dump);
}

TEST(TableDumpV2, EmptyRibRoundTrips) {
  RibDump dump;
  dump.view_name = "empty";
  dump.peers.push_back(PeerEntry{1, 1, Asn(1)});
  std::stringstream stream;
  write_table_dump_v2(dump, stream);
  const auto parsed = read_table_dump_v2(stream);
  EXPECT_EQ(parsed.peers.size(), 1u);
  EXPECT_TRUE(parsed.rib.empty());
}

TEST(TableDumpV2, MissingPeerTableThrows) {
  std::stringstream empty;
  EXPECT_THROW((void)read_table_dump_v2(empty), DecodeError);
}

TEST(TableDumpV2, TruncatedBodyThrows) {
  const auto dump = sample_dump();
  std::stringstream stream;
  write_table_dump_v2(dump, stream);
  std::string text = stream.str();
  text.resize(text.size() - 5);
  std::stringstream truncated(text);
  EXPECT_THROW((void)read_table_dump_v2(truncated), DecodeError);
}

/// 600 hops: three AS_SEQUENCE segments (255 + 255 + 90) on the wire, and
/// a heap-held path after decoding.
AsPath six_hundred_hops() {
  AsPath path;
  for (std::uint32_t i = 0; i < 600; ++i) path.push_back(Asn(100000 + i));
  return path;
}

TEST(TableDumpV2, SixHundredHopPathRoundTrips) {
  auto dump = sample_dump();
  dump.rib[0].routes[1].attrs.as_path = six_hundred_hops();
  std::stringstream stream;
  write_table_dump_v2(dump, stream);
  const auto parsed = read_table_dump_v2(stream);
  EXPECT_EQ(parsed, dump);
  EXPECT_EQ(parsed.rib[0].routes[1].attrs.as_path.size(), 600u);
}

// -------------------------------------------------------------- bgp4mp ----

TEST(Bgp4mp, UpdateRoundTrip) {
  UpdateMessage update;
  update.timestamp = 1367193600;
  update.peer_as = Asn(701);
  update.local_as = Asn(6447);
  update.peer_ip = 0x0a000001;
  update.local_ip = 0x0a0000fe;
  update.announced = {*Prefix::parse("192.0.2.0/24"), *Prefix::parse("10.0.0.0/8")};
  update.withdrawn = {*Prefix::parse("198.51.100.0/24")};
  update.attrs = sample_attrs();

  std::stringstream stream;
  write_update(update, stream);
  const auto parsed = read_updates(stream);
  ASSERT_EQ(parsed.size(), 1u);
  EXPECT_EQ(parsed[0], update);
}

TEST(Bgp4mp, SixHundredHopPathRoundTrips) {
  UpdateMessage update;
  update.timestamp = 1367193600;
  update.peer_as = Asn(100000);
  update.local_as = Asn(6447);
  update.announced = {*Prefix::parse("192.0.2.0/24")};
  update.attrs.as_path = six_hundred_hops();

  std::stringstream stream;
  write_update(update, stream);
  const auto parsed = read_updates(stream);
  ASSERT_EQ(parsed.size(), 1u);
  EXPECT_EQ(parsed[0], update);
}

TEST(Bgp4mp, WithdrawOnlyUpdate) {
  UpdateMessage update;
  update.peer_as = Asn(1);
  update.local_as = Asn(2);
  update.withdrawn = {*Prefix::parse("192.0.2.0/24")};
  std::stringstream stream;
  write_update(update, stream);
  const auto parsed = read_updates(stream);
  ASSERT_EQ(parsed.size(), 1u);
  EXPECT_TRUE(parsed[0].announced.empty());
  EXPECT_EQ(parsed[0].withdrawn.size(), 1u);
}

TEST(Bgp4mp, MultipleMessagesStream) {
  std::stringstream stream;
  for (std::uint32_t i = 1; i <= 5; ++i) {
    UpdateMessage update;
    update.timestamp = i;
    update.peer_as = Asn(i);
    update.local_as = Asn(100);
    update.announced = {Prefix::v4(i << 8, 24)};
    update.attrs.as_path = AsPath{i, i + 1};
    write_update(update, stream);
  }
  const auto parsed = read_updates(stream);
  ASSERT_EQ(parsed.size(), 5u);
  for (std::uint32_t i = 0; i < 5; ++i) EXPECT_EQ(parsed[i].timestamp, i + 1);
}

TEST(Bgp4mp, SkipsForeignRecordTypes) {
  // A TABLE_DUMP_V2 record interleaved in an updates stream is skipped.
  std::stringstream stream;
  RibDump dump;
  dump.peers.push_back(PeerEntry{1, 1, Asn(1)});
  write_table_dump_v2(dump, stream);
  UpdateMessage update;
  update.peer_as = Asn(1);
  update.local_as = Asn(2);
  update.announced = {*Prefix::parse("192.0.2.0/24")};
  update.attrs.as_path = AsPath{1};
  write_update(update, stream);
  const auto parsed = read_updates(stream);
  EXPECT_EQ(parsed.size(), 1u);
}

TEST(Bgp4mp, PrependedPathRoundTripsAndDedups) {
  // Prepending survives the codec untouched; dedup is the sanitizer's
  // explicit compress_prepending step, not a decode side effect.
  UpdateMessage update;
  update.peer_as = Asn(701);
  update.local_as = Asn(6447);
  update.announced = {*Prefix::parse("192.0.2.0/24")};
  update.attrs.as_path = AsPath{701, 701, 701, 174, 174, 13335};
  std::stringstream stream;
  write_update(update, stream);
  const auto parsed = read_updates(stream);
  ASSERT_EQ(parsed.size(), 1u);
  EXPECT_EQ(parsed[0].attrs.as_path, (AsPath{701, 701, 701, 174, 174, 13335}));
  EXPECT_TRUE(parsed[0].attrs.as_path.has_prepending());
  EXPECT_EQ(parsed[0].attrs.as_path.compress_prepending(), (AsPath{701, 174, 13335}));
}

// Hand-assemble one BGP4MP_MESSAGE_AS4 record whose UPDATE carries the given
// raw path-attribute bytes (write_update cannot produce AS_SET attributes).
void write_raw_update_record(std::ostream& os, std::span<const std::uint8_t> attrs,
                             const Prefix& announced) {
  ByteWriter msg;
  for (int i = 0; i < 16; ++i) msg.put_u8(0xff);  // BGP marker
  const std::size_t len_slot = msg.size();
  msg.put_u16(0);
  msg.put_u8(2);   // UPDATE
  msg.put_u16(0);  // no withdrawals
  msg.put_u16(static_cast<std::uint16_t>(attrs.size()));
  msg.put_bytes(attrs);
  msg.put_u8(announced.length());
  const auto addr = static_cast<std::uint32_t>(announced.bits());
  for (unsigned i = 0; i < (announced.length() + 7u) / 8u; ++i) {
    msg.put_u8(static_cast<std::uint8_t>(addr >> (24 - 8 * i)));
  }
  msg.patch_u16(len_slot, static_cast<std::uint16_t>(msg.size()));

  ByteWriter body;
  body.put_u32(64512);  // peer AS
  body.put_u32(6447);   // local AS
  body.put_u16(0);      // interface index
  body.put_u16(1);      // AFI IPv4
  body.put_u32(0x0a000001);
  body.put_u32(0x0a0000fe);
  body.put_bytes(msg.bytes());
  ByteWriter header;
  header.put_u32(1367193600);
  header.put_u16(16);  // BGP4MP
  header.put_u16(4);   // MESSAGE_AS4
  header.put_u32(static_cast<std::uint32_t>(body.size()));
  os.write(reinterpret_cast<const char*>(header.bytes().data()),
           static_cast<std::streamsize>(header.size()));
  os.write(reinterpret_cast<const char*>(body.bytes().data()),
           static_cast<std::streamsize>(body.size()));
}

TEST(Bgp4mp, AsSetUpdateDecodesFlaggedAndRefusesReencode) {
  ByteWriter path;
  path.put_u8(2);  // AS_SEQUENCE [65000]
  path.put_u8(1);
  path.put_u32(65000);
  path.put_u8(1);  // AS_SET {20, 10}
  path.put_u8(2);
  path.put_u32(20);
  path.put_u32(10);
  ByteWriter attrs;
  attrs.put_u8(0x40);  // transitive
  attrs.put_u8(2);     // AS_PATH
  attrs.put_u8(static_cast<std::uint8_t>(path.size()));
  attrs.put_bytes(path.bytes());

  std::stringstream stream;
  write_raw_update_record(stream, attrs.bytes(), *Prefix::parse("192.0.2.0/24"));
  const auto parsed = read_updates(stream);
  ASSERT_EQ(parsed.size(), 1u);
  EXPECT_TRUE(parsed[0].attrs.has_as_set);
  EXPECT_EQ(parsed[0].attrs.as_path, (AsPath{65000, 10, 20}));  // set sorted
  // Aggregated paths never re-enter a sanitized corpus: re-encoding rejects.
  std::stringstream reencoded;
  EXPECT_THROW(write_update(parsed[0], reencoded), std::invalid_argument);
}

// One record of every skippable kind around a single good UPDATE: nothing
// aborts the stream and every skip is attributed to a counter.
TEST(Bgp4mp, ReaderCountsSkippedRecords) {
  std::stringstream stream;
  const auto put_record = [&stream](std::uint16_t type, std::uint16_t subtype,
                                    std::span<const std::uint8_t> body) {
    ByteWriter header;
    header.put_u32(7);
    header.put_u16(type);
    header.put_u16(subtype);
    header.put_u32(static_cast<std::uint32_t>(body.size()));
    stream.write(reinterpret_cast<const char*>(header.bytes().data()),
                 static_cast<std::streamsize>(header.size()));
    stream.write(reinterpret_cast<const char*>(body.data()),
                 static_cast<std::streamsize>(body.size()));
  };

  const std::vector<std::uint8_t> junk = {1, 2, 3, 4};
  put_record(12, 0, junk);  // unknown MRT type (TABLE_DUMP v1 era)
  put_record(16, 1, junk);  // BGP4MP, unknown subtype (STATE_CHANGE)

  ByteWriter v6;  // BGP4MP_MESSAGE_AS4 on an IPv6 session
  v6.put_u32(1);
  v6.put_u32(2);
  v6.put_u16(0);
  v6.put_u16(2);  // AFI IPv6
  put_record(16, 4, v6.bytes());

  ByteWriter keepalive;  // valid session header, BGP KEEPALIVE message
  keepalive.put_u32(1);
  keepalive.put_u32(2);
  keepalive.put_u16(0);
  keepalive.put_u16(1);  // AFI IPv4
  keepalive.put_u32(0);
  keepalive.put_u32(0);
  for (int i = 0; i < 16; ++i) keepalive.put_u8(0xff);
  keepalive.put_u16(19);
  keepalive.put_u8(4);  // KEEPALIVE
  put_record(16, 4, keepalive.bytes());

  UpdateMessage update;
  update.peer_as = Asn(1);
  update.local_as = Asn(2);
  update.announced = {*Prefix::parse("192.0.2.0/24")};
  update.attrs.as_path = AsPath{1, 3};
  write_update(update, stream);

  UpdateReaderStats stats;
  auto parsed = try_read_updates(stream, &stats);
  ASSERT_TRUE(parsed.ok());
  ASSERT_EQ(parsed.value().size(), 1u);
  EXPECT_EQ(parsed.value()[0].attrs.as_path, (AsPath{1, 3}));
  EXPECT_EQ(stats.records, 5u);
  EXPECT_EQ(stats.updates, 1u);
  EXPECT_EQ(stats.unknown_type, 1u);
  EXPECT_EQ(stats.unknown_subtype, 1u);
  EXPECT_EQ(stats.non_ipv4, 1u);
  EXPECT_EQ(stats.non_update, 1u);
  EXPECT_EQ(stats.skipped(), 4u);
}

TEST(Bgp4mp, ReaderResumesAfterTruncationOnceBytesArrive) {
  // The tail-follow contract: a mid-record EOF is kTruncated, the stream may
  // be cleared and rewound to the record start, and the same reader picks up
  // once the writer finishes the record.
  UpdateMessage update;
  update.peer_as = Asn(3356);
  update.local_as = Asn(6447);
  update.announced = {*Prefix::parse("10.0.0.0/8")};
  update.attrs.as_path = AsPath{3356, 1299};
  std::stringstream full(std::ios::in | std::ios::out | std::ios::binary);
  write_update(update, full);
  const std::string bytes = full.str();

  std::stringstream feed(std::ios::in | std::ios::out | std::ios::binary);
  feed.str(bytes.substr(0, bytes.size() - 3));  // writer mid-record
  UpdateReader reader(feed);
  const std::streampos start = feed.tellg();
  auto first = reader.next();
  ASSERT_FALSE(first.ok());
  EXPECT_EQ(first.error().code, ErrorCode::kTruncated);

  feed.clear();
  feed.seekp(0, std::ios::end);
  feed.write(bytes.data() + (bytes.size() - 3), 3);  // writer catches up
  feed.seekg(start);
  auto second = reader.next();
  ASSERT_TRUE(second.ok());
  ASSERT_TRUE(second.value().has_value());
  EXPECT_EQ(*second.value(), update);
  EXPECT_EQ(reader.stats().updates, 1u);

  auto eof = reader.next();
  ASSERT_TRUE(eof.ok());
  EXPECT_FALSE(eof.value().has_value());
}

// ---------------------------------------------------------- text table ----

TEST(TextTable, ParseCiscoStyle) {
  std::stringstream text(
      "BGP table version is 1, local router ID is 192.0.2.1\n"
      "   Network          Next Hop            Metric LocPrf Weight Path\n"
      "*> 1.0.0.0/24       203.0.113.1              0 100 0 701 174 13335 i\n"
      "*  1.0.0.0/24       198.51.100.7             0 100 0 3356 13335 i\n");
  const auto routes = parse_show_ip_bgp(text);
  ASSERT_EQ(routes.size(), 2u);
  EXPECT_TRUE(routes[0].best);
  EXPECT_FALSE(routes[1].best);
  EXPECT_EQ(routes[0].path, (AsPath{701, 174, 13335}));
  EXPECT_EQ(routes[0].prefix.str(), "1.0.0.0/24");
}

TEST(TextTable, ContinuationLinesInheritNetwork) {
  std::stringstream text(
      "*> 1.0.0.0/24       203.0.113.1 0 100 0 701 i\n"
      "*  198.51.100.7 0 100 0 3356 i\n");
  const auto routes = parse_show_ip_bgp(text);
  ASSERT_EQ(routes.size(), 2u);
  EXPECT_EQ(routes[1].prefix.str(), "1.0.0.0/24");
  EXPECT_EQ(routes[1].path, (AsPath{3356}));
}

TEST(TextTable, ShowIpBgpRoundTrip) {
  std::vector<TextRoute> routes{
      {*Prefix::parse("1.0.0.0/24"), AsPath{701, 174}, true},
      {*Prefix::parse("2.0.0.0/16"), AsPath{3356}, false},
  };
  std::stringstream text;
  write_show_ip_bgp(routes, text);
  const auto parsed = parse_show_ip_bgp(text);
  EXPECT_EQ(parsed, routes);
}

TEST(TextTable, ParseRejectsMalformed) {
  std::stringstream no_origin("*> 1.0.0.0/24 203.0.113.1 0 100 0 701\n");
  EXPECT_THROW((void)parse_show_ip_bgp(no_origin), std::runtime_error);
  std::stringstream continuation_first("*  198.51.100.7 0 100 0 3356 i\n");
  EXPECT_THROW((void)parse_show_ip_bgp(continuation_first), std::runtime_error);
  std::stringstream bad_hop("*> 1.0.0.0/24 203.0.113.1 0 100 0 70x1 i\n");
  EXPECT_THROW((void)parse_show_ip_bgp(bad_hop), std::runtime_error);
}

TEST(TextTable, PipeTableRoundTrip) {
  std::vector<TextRoute> routes{
      {*Prefix::parse("1.0.0.0/24"), AsPath{701, 174}, true},
      {*Prefix::parse("2001:db8::/32"), AsPath{3356, 64500}, true},
  };
  std::stringstream text;
  write_pipe_table(routes, text);
  const auto parsed = parse_pipe_table(text);
  EXPECT_EQ(parsed, routes);
}

TEST(TextTable, PipeTableSkipsCommentsRejectsJunk) {
  std::stringstream ok("# comment\n1.0.0.0/24|701 174\n");
  EXPECT_EQ(parse_pipe_table(ok).size(), 1u);
  std::stringstream bad("1.0.0.0/24|701|extra\n");
  EXPECT_THROW((void)parse_pipe_table(bad), std::runtime_error);
}

}  // namespace
}  // namespace asrank::mrt
