// BGP path-attribute encode/decode (RFC 4271 §4.3, RFC 6793 four-octet AS).
//
// We implement the attributes the relationship-inference pipeline consumes:
// ORIGIN, AS_PATH (AS_SEQUENCE and AS_SET segments, 4-byte ASNs), NEXT_HOP,
// and COMMUNITIES (RFC 1997).  Unknown optional attributes round-trip as
// opaque blobs so dumps from richer speakers are not rejected.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "asn/as_path.h"
#include "mrt/bytes.h"

namespace asrank::mrt {

enum class Origin : std::uint8_t { kIgp = 0, kEgp = 1, kIncomplete = 2 };

/// RFC 1997 community value, conventionally rendered "asn:value".
struct Community {
  std::uint16_t high = 0;  ///< usually the tagging AS
  std::uint16_t low = 0;   ///< operator-defined meaning

  [[nodiscard]] std::uint32_t raw() const noexcept {
    return (static_cast<std::uint32_t>(high) << 16) | low;
  }
  [[nodiscard]] static Community from_raw(std::uint32_t raw) noexcept {
    return {static_cast<std::uint16_t>(raw >> 16), static_cast<std::uint16_t>(raw)};
  }
  friend bool operator==(Community, Community) = default;
};

/// An opaque attribute preserved on round-trip.
struct OpaqueAttr {
  std::uint8_t flags = 0;
  std::uint8_t type = 0;
  std::vector<std::uint8_t> payload;
  friend bool operator==(const OpaqueAttr&, const OpaqueAttr&) = default;
};

/// Fields are ordered widest alignment first, so the two one-byte fields
/// share the word after `next_hop`: 96 bytes.  Wire order (origin first)
/// would pad to 104.
struct BgpAttributes {
  AsPath as_path;                       ///< AS_SEQUENCE hops in order
  std::vector<Community> communities;
  std::vector<OpaqueAttr> opaque;
  std::optional<std::uint32_t> next_hop;  ///< IPv4 next hop
  Origin origin = Origin::kIgp;
  bool has_as_set = false;              ///< true if any AS_SET segment present

  friend bool operator==(const BgpAttributes&, const BgpAttributes&) = default;
};

/// Encode to the BGP path-attributes wire form (4-byte AS encoding).
/// AS_SET contents are not re-encoded (sanitized corpora never carry them);
/// attempting to encode attributes with has_as_set set throws
/// std::invalid_argument.
[[nodiscard]] std::vector<std::uint8_t> encode_attributes(const BgpAttributes& attrs);

/// Decode path attributes.  AS_SET segments set `has_as_set` and contribute
/// their members to the path in ascending order (the sanitizer later drops
/// such paths).  Throws DecodeError on malformed input.
[[nodiscard]] BgpAttributes decode_attributes(ByteReader& reader);

}  // namespace asrank::mrt
