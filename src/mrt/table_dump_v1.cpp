#include "mrt/table_dump_v1.h"

#include <istream>
#include <ostream>
#include <stdexcept>

namespace asrank::mrt {

namespace {

/// No legitimate MRT record approaches this size; a larger declared length
/// indicates corruption and would otherwise drive a huge allocation.
constexpr std::uint32_t kMaxRecordBytes = 16u << 20;

constexpr std::uint16_t kTypeTableDump = 12;
constexpr std::uint16_t kSubAfiIpv4 = 1;

/// v1 carries 2-byte ASNs; encode AS_PATH with 2-byte segments.
std::vector<std::uint8_t> encode_attrs_as2(const BgpAttributes& attrs) {
  if (attrs.has_as_set) {
    throw std::invalid_argument("table_dump_v1: AS_SET re-encoding unsupported");
  }
  ByteWriter w;
  // ORIGIN
  w.put_u8(0x40);
  w.put_u8(1);
  w.put_u8(1);
  w.put_u8(static_cast<std::uint8_t>(attrs.origin));
  // AS_PATH (AS_SEQUENCE, 2-byte hops)
  {
    ByteWriter body;
    const auto hops = attrs.as_path.hops();
    std::size_t i = 0;
    while (i < hops.size()) {
      const std::size_t chunk = std::min<std::size_t>(hops.size() - i, 255);
      body.put_u8(2);  // AS_SEQUENCE
      body.put_u8(static_cast<std::uint8_t>(chunk));
      for (std::size_t j = 0; j < chunk; ++j) {
        if (hops[i + j].value() > 0xffff) {
          throw std::invalid_argument("table_dump_v1: ASN exceeds 16 bits");
        }
        body.put_u16(static_cast<std::uint16_t>(hops[i + j].value()));
      }
      i += chunk;
    }
    w.put_u8(0x40);
    w.put_u8(2);
    if (body.size() > 0xff) {
      throw std::invalid_argument("table_dump_v1: AS_PATH too long");
    }
    w.put_u8(static_cast<std::uint8_t>(body.size()));
    w.put_bytes(body.bytes());
  }
  if (attrs.next_hop) {
    w.put_u8(0x40);
    w.put_u8(3);
    w.put_u8(4);
    w.put_u32(*attrs.next_hop);
  }
  return w.take();
}

BgpAttributes decode_attrs_as2(ByteReader& reader) {
  BgpAttributes attrs;
  bool saw_path = false;
  while (!reader.done()) {
    const std::uint8_t flags = reader.get_u8();
    const std::uint8_t type = reader.get_u8();
    const std::size_t length = (flags & 0x10) ? reader.get_u16() : reader.get_u8();
    ByteReader body = reader.sub(length);
    switch (type) {
      case 1: {
        if (length != 1) throw DecodeError("v1 ORIGIN length != 1");
        attrs.origin = static_cast<Origin>(body.get_u8());
        break;
      }
      case 2: {
        saw_path = true;
        AsPath& path = attrs.as_path;
        path = AsPath();  // a repeated AS_PATH replaces the earlier one
        while (!body.done()) {
          const std::uint8_t seg_type = body.get_u8();
          const std::uint8_t seg_len = body.get_u8();
          path.reserve(path.size() + seg_len);
          for (std::uint8_t i = 0; i < seg_len; ++i) path.push_back(Asn(body.get_u16()));
          if (seg_type == 1) attrs.has_as_set = true;
        }
        break;
      }
      case 3: {
        if (length != 4) throw DecodeError("v1 NEXT_HOP length != 4");
        attrs.next_hop = body.get_u32();
        break;
      }
      default: {
        OpaqueAttr opaque;
        opaque.flags = flags & static_cast<std::uint8_t>(~0x10);
        opaque.type = type;
        const auto payload = body.get_bytes(body.remaining());
        opaque.payload.assign(payload.begin(), payload.end());
        attrs.opaque.push_back(std::move(opaque));
        break;
      }
    }
  }
  if (!saw_path) throw DecodeError("v1 record missing AS_PATH");
  return attrs;
}

}  // namespace

void write_table_dump_v1(const TableDumpV1Entry& entry, std::ostream& os,
                         std::uint16_t view, std::uint16_t sequence) {
  if (entry.peer_as.value() > 0xffff) {
    throw std::invalid_argument("table_dump_v1: peer AS exceeds 16 bits");
  }
  if (entry.prefix.family() != Prefix::Family::kIpv4) {
    throw std::invalid_argument("table_dump_v1: only AFI_IPv4 is supported");
  }
  const auto attrs = encode_attrs_as2(entry.attrs);

  ByteWriter body;
  body.put_u16(view);
  body.put_u16(sequence);
  body.put_u32(static_cast<std::uint32_t>(entry.prefix.bits()));
  body.put_u8(entry.prefix.length());
  body.put_u8(1);  // status (always 1 in practice)
  body.put_u32(entry.originated_time);
  body.put_u32(entry.peer_ip);
  body.put_u16(static_cast<std::uint16_t>(entry.peer_as.value()));
  body.put_u16(static_cast<std::uint16_t>(attrs.size()));
  body.put_bytes(attrs);

  ByteWriter header;
  header.put_u32(entry.timestamp);
  header.put_u16(kTypeTableDump);
  header.put_u16(kSubAfiIpv4);
  header.put_u32(static_cast<std::uint32_t>(body.size()));
  os.write(reinterpret_cast<const char*>(header.bytes().data()),
           static_cast<std::streamsize>(header.size()));
  os.write(reinterpret_cast<const char*>(body.bytes().data()),
           static_cast<std::streamsize>(body.size()));
}

std::vector<TableDumpV1Entry> read_table_dump_v1(std::istream& is) {
  std::vector<TableDumpV1Entry> out;
  std::vector<std::uint8_t> header_buf(12);
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
    std::vector<std::uint8_t> body(length);
    if (!is.read(reinterpret_cast<char*>(body.data()), static_cast<std::streamsize>(length))) {
      throw DecodeError("truncated MRT record body");
    }
    if (type != kTypeTableDump || subtype != kSubAfiIpv4) continue;

    ByteReader r(body);
    TableDumpV1Entry entry;
    entry.timestamp = timestamp;
    r.get_u16();  // view
    r.get_u16();  // sequence
    const std::uint32_t addr = r.get_u32();
    const std::uint8_t mask = r.get_u8();
    if (mask > 32) throw DecodeError("v1 prefix length > 32");
    entry.prefix = Prefix::v4(addr, mask);
    r.get_u8();  // status
    entry.originated_time = r.get_u32();
    entry.peer_ip = r.get_u32();
    entry.peer_as = Asn(r.get_u16());
    const std::uint16_t attr_len = r.get_u16();
    ByteReader attrs = r.sub(attr_len);
    entry.attrs = decode_attrs_as2(attrs);
    out.push_back(std::move(entry));
  }
  return out;
}

}  // namespace asrank::mrt
