#include "mrt/bgp_attrs.h"

#include <algorithm>
#include <array>
#include <stdexcept>

namespace asrank::mrt {

namespace {

// Attribute type codes (RFC 4271 / RFC 1997).
constexpr std::uint8_t kOrigin = 1;
constexpr std::uint8_t kAsPath = 2;
constexpr std::uint8_t kNextHop = 3;
constexpr std::uint8_t kCommunities = 8;

// Attribute flag bits.
constexpr std::uint8_t kFlagOptional = 0x80;
constexpr std::uint8_t kFlagTransitive = 0x40;
constexpr std::uint8_t kFlagExtendedLength = 0x10;

// AS_PATH segment types.
constexpr std::uint8_t kSegAsSet = 1;
constexpr std::uint8_t kSegAsSequence = 2;

void put_attr_header(ByteWriter& w, std::uint8_t flags, std::uint8_t type,
                     std::size_t length) {
  if (length > 0xffff) throw std::invalid_argument("attribute too long");
  if (length > 0xff) flags |= kFlagExtendedLength;
  w.put_u8(flags);
  w.put_u8(type);
  if (flags & kFlagExtendedLength) {
    w.put_u16(static_cast<std::uint16_t>(length));
  } else {
    w.put_u8(static_cast<std::uint8_t>(length));
  }
}

}  // namespace

std::vector<std::uint8_t> encode_attributes(const BgpAttributes& attrs) {
  if (attrs.has_as_set) {
    throw std::invalid_argument("encode_attributes: AS_SET re-encoding unsupported");
  }
  ByteWriter w;

  put_attr_header(w, kFlagTransitive, kOrigin, 1);
  w.put_u8(static_cast<std::uint8_t>(attrs.origin));

  {
    // AS_PATH: one AS_SEQUENCE segment per <=255 hops (4-byte ASNs).
    ByteWriter body;
    const auto hops = attrs.as_path.hops();
    std::size_t i = 0;
    while (i < hops.size()) {
      const std::size_t chunk = std::min<std::size_t>(hops.size() - i, 255);
      body.put_u8(kSegAsSequence);
      body.put_u8(static_cast<std::uint8_t>(chunk));
      for (std::size_t j = 0; j < chunk; ++j) body.put_u32(hops[i + j].value());
      i += chunk;
    }
    put_attr_header(w, kFlagTransitive, kAsPath, body.size());
    w.put_bytes(body.bytes());
  }

  if (attrs.next_hop) {
    put_attr_header(w, kFlagTransitive, kNextHop, 4);
    w.put_u32(*attrs.next_hop);
  }

  if (!attrs.communities.empty()) {
    put_attr_header(w, kFlagOptional | kFlagTransitive, kCommunities,
                    attrs.communities.size() * 4);
    for (const Community c : attrs.communities) w.put_u32(c.raw());
  }

  for (const OpaqueAttr& attr : attrs.opaque) {
    put_attr_header(w, attr.flags, attr.type, attr.payload.size());
    w.put_bytes(attr.payload);
  }

  return w.take();
}

BgpAttributes decode_attributes(ByteReader& reader) {
  BgpAttributes attrs;
  bool saw_as_path = false;
  while (!reader.done()) {
    const std::uint8_t flags = reader.get_u8();
    const std::uint8_t type = reader.get_u8();
    const std::size_t length =
        (flags & kFlagExtendedLength) ? reader.get_u16() : reader.get_u8();
    ByteReader body = reader.sub(length);
    switch (type) {
      case kOrigin: {
        if (length != 1) throw DecodeError("ORIGIN length != 1");
        const std::uint8_t v = body.get_u8();
        if (v > 2) throw DecodeError("ORIGIN value out of range");
        attrs.origin = static_cast<Origin>(v);
        break;
      }
      case kAsPath: {
        // Segment words go straight into the path.  Every segment's words
        // are read before its type is checked, so a short body is reported
        // as truncated even when the segment type is also bad.
        saw_as_path = true;
        AsPath& path = attrs.as_path;
        path = AsPath();  // a repeated AS_PATH replaces the earlier one
        while (!body.done()) {
          const std::uint8_t seg_type = body.get_u8();
          const std::uint8_t seg_len = body.get_u8();
          if (seg_type == kSegAsSequence) {
            // The hops the body holds whole are read after one range check;
            // if the segment runs out, reading its next hop throws the same
            // error a word-by-word read would.
            const std::size_t whole = std::min<std::size_t>(seg_len, body.remaining() / 4);
            const std::uint8_t* word = body.get_bytes(4 * whole).data();
            path.reserve(path.size() + whole);
            for (std::size_t i = 0; i < whole; ++i, word += 4) path.push_back(Asn(load_u32(word)));
            if (whole < seg_len) (void)body.get_u32();
            continue;
          }
          std::array<Asn, 255> segment;
          for (std::uint8_t i = 0; i < seg_len; ++i) segment[i] = Asn(body.get_u32());
          if (seg_type != kSegAsSet) throw DecodeError("unknown AS_PATH segment type");
          attrs.has_as_set = true;
          std::sort(segment.begin(), segment.begin() + seg_len);
          path.reserve(path.size() + seg_len);
          for (std::uint8_t i = 0; i < seg_len; ++i) path.push_back(segment[i]);
        }
        break;
      }
      case kNextHop: {
        if (length != 4) throw DecodeError("NEXT_HOP length != 4");
        attrs.next_hop = body.get_u32();
        break;
      }
      case kCommunities: {
        if (length % 4 != 0) throw DecodeError("COMMUNITIES length not multiple of 4");
        while (!body.done()) attrs.communities.push_back(Community::from_raw(body.get_u32()));
        break;
      }
      default: {
        OpaqueAttr opaque;
        opaque.flags = flags & static_cast<std::uint8_t>(~kFlagExtendedLength);
        opaque.type = type;
        const auto payload = body.get_bytes(body.remaining());
        opaque.payload.assign(payload.begin(), payload.end());
        attrs.opaque.push_back(std::move(opaque));
        break;
      }
    }
  }
  if (!saw_as_path) throw DecodeError("missing mandatory AS_PATH attribute");
  return attrs;
}

}  // namespace asrank::mrt
