#include "asn/prefix.h"

#include <algorithm>
#include <array>
#include <sstream>

#include "util/strings.h"

namespace asrank {

namespace {

/// Mask that keeps the top `length` bits of a `width`-bit value stored in the
/// low bits of a 128-bit integer.
unsigned __int128 top_mask(std::uint8_t length, std::uint8_t width) noexcept {
  if (length == 0) return 0;
  const unsigned __int128 ones = ~static_cast<unsigned __int128>(0);
  const unsigned __int128 field = width == 128 ? ones : ((static_cast<unsigned __int128>(1) << width) - 1);
  return field & ~(length >= width ? static_cast<unsigned __int128>(0)
                                   : (static_cast<unsigned __int128>(1) << (width - length)) - 1);
}

std::optional<unsigned __int128> parse_ipv4_bits(std::string_view text) noexcept {
  const auto parts = asrank::util::split(text, '.', /*keep_empty=*/true);
  if (parts.size() != 4) return std::nullopt;
  std::uint32_t addr = 0;
  for (const auto part : parts) {
    const auto octet = asrank::util::parse_unsigned<std::uint8_t>(part);
    if (!octet) return std::nullopt;
    addr = (addr << 8) | *octet;
  }
  return addr;
}

std::optional<unsigned __int128> parse_ipv6_bits(std::string_view text) noexcept {
  // Supports the standard form with one optional "::" elision; no embedded
  // IPv4 tail (not needed for our datasets).
  std::array<std::uint16_t, 8> groups{};
  std::size_t count = 0;
  int elide_at = -1;

  const auto gap = text.find("::");
  std::string_view head = text, tail;
  if (gap != std::string_view::npos) {
    head = text.substr(0, gap);
    tail = text.substr(gap + 2);
    if (tail.find("::") != std::string_view::npos) return std::nullopt;
  }
  auto parse_groups = [&](std::string_view part) -> std::optional<std::size_t> {
    if (part.empty()) return 0;
    std::size_t n = 0;
    for (const auto g : asrank::util::split(part, ':', /*keep_empty=*/true)) {
      if (g.empty() || g.size() > 4 || count >= 8) return std::nullopt;
      std::uint16_t value = 0;
      for (char c : g) {
        int digit;
        if (c >= '0' && c <= '9') digit = c - '0';
        else if (c >= 'a' && c <= 'f') digit = c - 'a' + 10;
        else if (c >= 'A' && c <= 'F') digit = c - 'A' + 10;
        else return std::nullopt;
        value = static_cast<std::uint16_t>(value << 4 | digit);
      }
      groups[count++] = value;
      ++n;
    }
    return n;
  };
  const auto head_n = parse_groups(head);
  if (!head_n) return std::nullopt;
  if (gap != std::string_view::npos) {
    elide_at = static_cast<int>(*head_n);
    const auto tail_n = parse_groups(tail);
    if (!tail_n) return std::nullopt;
    if (count > 7) return std::nullopt;  // "::" must cover at least one group
  } else if (count != 8) {
    return std::nullopt;
  }

  std::array<std::uint16_t, 8> full{};
  if (elide_at < 0) {
    full = groups;
  } else {
    const std::size_t head_count = static_cast<std::size_t>(elide_at);
    const std::size_t tail_count = count - head_count;
    for (std::size_t i = 0; i < head_count; ++i) full[i] = groups[i];
    for (std::size_t i = 0; i < tail_count; ++i) {
      full[8 - tail_count + i] = groups[head_count + i];
    }
  }
  unsigned __int128 bits = 0;
  for (const auto group : full) bits = (bits << 16) | group;
  return bits;
}

}  // namespace

Prefix::Prefix(Family family, unsigned __int128 bits, std::uint8_t length) noexcept
    : family_(family) {
  const std::uint8_t width = family == Family::kIpv4 ? 32 : 128;
  length_ = std::min(length, width);
  bits &= top_mask(length_, width);
  for (std::size_t i = words_.size(); i-- > 0; bits >>= 32) {
    words_[i] = static_cast<std::uint32_t>(bits);
  }
}

bool Prefix::contains(const Prefix& other) const noexcept {
  if (family_ != other.family_ || other.length_ < length_) return false;
  const std::uint8_t width = max_length();
  const auto mask = top_mask(length_, width);
  return (bits() & mask) == (other.bits() & mask);
}

std::string Prefix::str() const {
  std::ostringstream oss;
  if (family_ == Family::kIpv4) {
    const std::uint32_t addr = words_[3];
    oss << ((addr >> 24) & 0xff) << '.' << ((addr >> 16) & 0xff) << '.'
        << ((addr >> 8) & 0xff) << '.' << (addr & 0xff);
  } else {
    // Uncompressed colon-hex; adequate for logs and round-trip parsing.
    oss << std::hex;
    for (std::size_t g = 0; g < 8; ++g) {
      if (g != 0) oss << ':';
      oss << static_cast<std::uint16_t>(words_[g / 2] >> (g % 2 == 0 ? 16 : 0));
    }
  }
  oss << std::dec << '/' << static_cast<unsigned>(length_);
  return oss.str();
}

std::optional<Prefix> Prefix::parse(std::string_view text) noexcept {
  text = util::trim(text);
  const auto slash = text.rfind('/');
  if (slash == std::string_view::npos) return std::nullopt;
  const auto length = util::parse_unsigned<std::uint8_t>(text.substr(slash + 1));
  if (!length) return std::nullopt;
  const auto addr_text = text.substr(0, slash);
  if (addr_text.find(':') != std::string_view::npos) {
    const auto bits = parse_ipv6_bits(addr_text);
    if (!bits || *length > 128) return std::nullopt;
    return Prefix(Family::kIpv6, *bits, *length);
  }
  const auto bits = parse_ipv4_bits(addr_text);
  if (!bits || *length > 32) return std::nullopt;
  return Prefix(Family::kIpv4, *bits, *length);
}

}  // namespace asrank
