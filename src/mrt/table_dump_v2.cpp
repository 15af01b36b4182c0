#include "mrt/table_dump_v2.h"

#include <istream>
#include <ostream>

namespace asrank::mrt {

namespace {

/// No legitimate MRT record approaches this size; a larger declared length
/// indicates corruption and would otherwise drive a huge allocation.
constexpr std::uint32_t kMaxRecordBytes = 16u << 20;

constexpr std::uint16_t kTypeTableDumpV2 = 13;
constexpr std::uint16_t kSubPeerIndexTable = 1;
constexpr std::uint16_t kSubRibIpv4Unicast = 2;

// Peer-type flag bits (RFC 6396 §4.3.1).
constexpr std::uint8_t kPeerFlagAs4 = 0x02;

void write_mrt_record(std::ostream& os, std::uint32_t timestamp, std::uint16_t type,
                      std::uint16_t subtype, const std::vector<std::uint8_t>& body) {
  ByteWriter header;
  header.put_u32(timestamp);
  header.put_u16(type);
  header.put_u16(subtype);
  header.put_u32(static_cast<std::uint32_t>(body.size()));
  os.write(reinterpret_cast<const char*>(header.bytes().data()),
           static_cast<std::streamsize>(header.size()));
  os.write(reinterpret_cast<const char*>(body.data()),
           static_cast<std::streamsize>(body.size()));
}

/// NLRI prefix encoding: length bit-count then ceil(len/8) leading bytes.
void put_ipv4_prefix(ByteWriter& w, const Prefix& prefix) {
  w.put_u8(prefix.length());
  const auto addr = static_cast<std::uint32_t>(prefix.bits());
  const unsigned bytes = (prefix.length() + 7) / 8;
  for (unsigned i = 0; i < bytes; ++i) {
    w.put_u8(static_cast<std::uint8_t>(addr >> (24 - 8 * i)));
  }
}

Prefix get_ipv4_prefix(ByteReader& r) {
  const std::uint8_t length = r.get_u8();
  if (length > 32) throw DecodeError("IPv4 prefix length > 32");
  const unsigned bytes = (length + 7) / 8;
  std::uint32_t addr = 0;
  for (unsigned i = 0; i < bytes; ++i) {
    addr |= static_cast<std::uint32_t>(r.get_u8()) << (24 - 8 * i);
  }
  return Prefix::v4(addr, length);
}

std::vector<std::uint8_t> encode_peer_index_table(const RibDump& dump) {
  ByteWriter w;
  w.put_u32(dump.collector_bgp_id);
  if (dump.view_name.size() > 0xffff) throw std::invalid_argument("view name too long");
  w.put_u16(static_cast<std::uint16_t>(dump.view_name.size()));
  w.put_string(dump.view_name);
  if (dump.peers.size() > 0xffff) throw std::invalid_argument("too many peers");
  w.put_u16(static_cast<std::uint16_t>(dump.peers.size()));
  for (const PeerEntry& peer : dump.peers) {
    w.put_u8(kPeerFlagAs4);  // IPv4 address, 4-byte AS
    w.put_u32(peer.bgp_id);
    w.put_u32(peer.ipv4);
    w.put_u32(peer.as.value());
  }
  return w.take();
}

std::vector<std::uint8_t> encode_rib_entry(const RibEntry& entry, std::uint32_t sequence) {
  ByteWriter w;
  w.put_u32(sequence);
  put_ipv4_prefix(w, entry.prefix);
  if (entry.routes.size() > 0xffff) throw std::invalid_argument("too many routes");
  w.put_u16(static_cast<std::uint16_t>(entry.routes.size()));
  for (const RibRoute& route : entry.routes) {
    w.put_u16(route.peer_index);
    w.put_u32(route.originated_time);
    const auto attrs = encode_attributes(route.attrs);
    if (attrs.size() > 0xffff) throw std::invalid_argument("attributes too long");
    w.put_u16(static_cast<std::uint16_t>(attrs.size()));
    w.put_bytes(attrs);
  }
  return w.take();
}

void decode_peer_index_table(ByteReader r, RibDump& dump) {
  dump.collector_bgp_id = r.get_u32();
  const std::uint16_t name_len = r.get_u16();
  dump.view_name = r.get_string(name_len);
  const std::uint16_t peer_count = r.get_u16();
  dump.peers.clear();
  dump.peers.reserve(peer_count);
  for (std::uint16_t i = 0; i < peer_count; ++i) {
    const std::uint8_t peer_type = r.get_u8();
    PeerEntry peer;
    peer.bgp_id = r.get_u32();
    if (peer_type & 0x01) {
      r.get_bytes(16);  // IPv6 peer address: representable, not retained
    } else {
      peer.ipv4 = r.get_u32();
    }
    peer.as = (peer_type & kPeerFlagAs4) ? Asn(r.get_u32()) : Asn(r.get_u16());
    dump.peers.push_back(peer);
  }
}

RibEntry decode_rib_entry(ByteReader r) {
  RibEntry entry;
  r.get_u32();  // sequence number: informational
  entry.prefix = get_ipv4_prefix(r);
  const std::uint16_t count = r.get_u16();
  entry.routes.reserve(count);
  for (std::uint16_t i = 0; i < count; ++i) {
    const std::uint16_t peer_index = r.get_u16();
    const std::uint32_t originated_time = r.get_u32();
    const std::uint16_t attr_len = r.get_u16();
    ByteReader attrs = r.sub(attr_len);
    // Built in its slot: the attributes are moved in once, not assigned
    // over a default route's.
    entry.routes.emplace_back(peer_index, originated_time, decode_attributes(attrs));
  }
  return entry;
}

}  // namespace

void write_table_dump_v2(const RibDump& dump, std::ostream& os) {
  write_mrt_record(os, dump.timestamp, kTypeTableDumpV2, kSubPeerIndexTable,
                   encode_peer_index_table(dump));
  std::uint32_t sequence = 0;
  for (const RibEntry& entry : dump.rib) {
    write_mrt_record(os, dump.timestamp, kTypeTableDumpV2, kSubRibIpv4Unicast,
                     encode_rib_entry(entry, sequence++));
  }
}

Result<RibDump> try_read_table_dump_v2(std::istream& is) {
  // Record-level framing and the per-record decoders share the DecodeError
  // rail internally; this top-level entry point converts each failure to an
  // Error whose context is the complete historical "mrt: ..." message.
  try {
    RibDump dump;
    bool saw_peer_table = false;
    std::vector<std::uint8_t> header_buf(12);
    std::vector<std::uint8_t> body;  // reused: one allocation per dump, not per record
    while (is.read(reinterpret_cast<char*>(header_buf.data()), 12)) {
      ByteReader header(header_buf);
      const std::uint32_t timestamp = header.get_u32();
      const std::uint16_t type = header.get_u16();
      const std::uint16_t subtype = header.get_u16();
      const std::uint32_t length = header.get_u32();
      if (length > kMaxRecordBytes) {
        throw DecodeError("MRT record length " + std::to_string(length) +
                          " exceeds sanity cap");
      }
      body.resize(length);
      if (!is.read(reinterpret_cast<char*>(body.data()), static_cast<std::streamsize>(length))) {
        throw DecodeError("truncated MRT record body");
      }
      if (type != kTypeTableDumpV2) continue;  // tolerate interleaved other types
      if (subtype == kSubPeerIndexTable) {
        decode_peer_index_table(ByteReader(body), dump);
        dump.timestamp = timestamp;
        saw_peer_table = true;
      } else if (subtype == kSubRibIpv4Unicast) {
        if (!saw_peer_table) throw DecodeError("RIB record before PEER_INDEX_TABLE");
        dump.rib.push_back(decode_rib_entry(ByteReader(body)));
      } else {
        throw DecodeError("unsupported TABLE_DUMP_V2 subtype " + std::to_string(subtype));
      }
    }
    if (!saw_peer_table) throw DecodeError("no PEER_INDEX_TABLE record found");
    return dump;
  } catch (const DecodeError& error) {
    const std::string what = error.what();
    const auto code = what.find("truncated") != std::string::npos
                          ? ErrorCode::kTruncated
                          : ErrorCode::kCorrupt;
    return make_error(code, what);
  }
}

RibDump read_table_dump_v2(std::istream& is) {
  auto parsed = try_read_table_dump_v2(is);
  if (!parsed.ok()) {
    throw DecodeError(DecodeError::Passthrough{}, parsed.error().context);
  }
  return std::move(parsed).value();
}

}  // namespace asrank::mrt
