// IP prefix type covering IPv4 and IPv6, stored canonically (host bits
// zeroed) as a 128-bit value.  Prefixes identify destinations in the BGP
// simulator's RIBs and key the MRT RIB entries.
//
// Layout: the 128 bits are four u32 words, most significant first, so a
// Prefix is 20 bytes with 4-byte alignment.  An `unsigned __int128` member
// would make it 32 bytes with 16-byte alignment, and every route record
// that holds a Prefix (paths::PathRecord, bgpsim::ObservedRoute) would pay
// that padding.
#pragma once

#include <array>
#include <compare>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>

namespace asrank {

/// An IPv4 or IPv6 prefix in canonical form.  IPv4 addresses occupy the low
/// 32 bits of the 128-bit value.  Construction canonicalizes by masking
/// host bits; `parse` rejects malformed textual input.
class Prefix {
 public:
  enum class Family : std::uint8_t { kIpv4, kIpv6 };

  constexpr Prefix() noexcept = default;

  /// Build a canonical prefix from raw bits; length is clamped to the family
  /// maximum (32 or 128).
  Prefix(Family family, unsigned __int128 bits, std::uint8_t length) noexcept;

  /// Convenience constructor for IPv4, e.g. Prefix::v4(0x0A000000, 8) == 10.0.0.0/8.
  [[nodiscard]] static Prefix v4(std::uint32_t addr, std::uint8_t length) noexcept {
    return Prefix(Family::kIpv4, addr, length);
  }

  [[nodiscard]] Family family() const noexcept { return family_; }
  [[nodiscard]] std::uint8_t length() const noexcept { return length_; }
  [[nodiscard]] unsigned __int128 bits() const noexcept {
    unsigned __int128 bits = 0;
    for (const std::uint32_t word : words_) bits = (bits << 32) | word;
    return bits;
  }
  [[nodiscard]] std::uint8_t max_length() const noexcept {
    return family_ == Family::kIpv4 ? 32 : 128;
  }

  /// True if `other` is equal to or more specific than (contained in) *this.
  [[nodiscard]] bool contains(const Prefix& other) const noexcept;

  /// Dotted-quad/colon-hex "addr/len" rendering.
  [[nodiscard]] std::string str() const;

  /// Parse "10.0.0.0/8" or "2001:db8::/32".  Nonzero host bits are
  /// canonicalized away (masked), matching router behaviour.
  [[nodiscard]] static std::optional<Prefix> parse(std::string_view text) noexcept;

  friend bool operator==(const Prefix& a, const Prefix& b) noexcept = default;
  friend std::strong_ordering operator<=>(const Prefix& a, const Prefix& b) noexcept {
    if (a.family_ != b.family_) return a.family_ <=> b.family_;
    // Word-wise, most significant first: the order of the 128-bit values.
    if (const auto order = a.words_ <=> b.words_; order != 0) return order;
    return a.length_ <=> b.length_;
  }

 private:
  std::array<std::uint32_t, 4> words_{};  ///< bits(), most significant word first
  std::uint8_t length_ = 0;
  Family family_ = Family::kIpv4;
};

static_assert(sizeof(Prefix) == 20 && alignof(Prefix) == 4,
              "Prefix is four u32 words, a length and a family");

}  // namespace asrank

template <>
struct std::hash<asrank::Prefix> {
  std::size_t operator()(const asrank::Prefix& p) const noexcept {
    const auto bits = p.bits();
    const auto low = static_cast<std::uint64_t>(bits);
    const auto high = static_cast<std::uint64_t>(bits >> 64);
    std::uint64_t h = low * 0x9e3779b97f4a7c15ULL;
    h ^= high + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
    h ^= (static_cast<std::uint64_t>(p.length()) << 8) |
         static_cast<std::uint64_t>(p.family());
    return static_cast<std::size_t>(h);
  }
};
