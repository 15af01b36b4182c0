// AS path representation.  A path is the sequence of ASNs a route
// announcement traversed, nearest-AS (the vantage point side) first — the
// same orientation as RouteViews table dumps.  Prepending (an AS repeating
// itself for traffic engineering) is preserved on ingestion and removed by
// the sanitization pipeline, so the type distinguishes raw from compressed
// forms explicitly.
//
// Layout: a path of up to kInlineHops hops lives inline, in the 24 bytes
// that otherwise hold the heap pointer; only longer paths allocate.  A u32
// size and a u32 capacity follow, so an AsPath is 32 bytes.  Collector paths
// are short (a mean of about 4.5 hops, and about 98% have at most six), so
// decoding a RIB and copying its routes into a corpus allocates nothing per
// route.  The price is a rule that std::vector does not impose: a span
// returned by hops() points into the AsPath itself for an inline path, so it
// does not survive a move of that AsPath, nor a reallocation of a container
// holding it.  Take the span after the path has settled.
#pragma once

#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "asn/asn.h"

namespace asrank {

/// True if an ASN heads two different runs of `hops` (adjacent repeats are
/// prepending, not loops).  Allocates nothing for paths of up to 16 runs;
/// longer ones are sorted.
[[nodiscard]] bool has_loop(std::span<const Asn> hops);

class AsPath {
 public:
  /// Hops stored without a heap allocation.
  static constexpr std::uint32_t kInlineHops = 6;

  AsPath() noexcept {}
  explicit AsPath(std::span<const Asn> hops);
  explicit AsPath(const std::vector<Asn>& hops) : AsPath(std::span<const Asn>(hops)) {}
  AsPath(std::initializer_list<std::uint32_t> raw);

  AsPath(const AsPath& other) : AsPath(other.hops()) {}
  AsPath(AsPath&& other) noexcept { take(other); }
  AsPath& operator=(const AsPath& other);
  AsPath& operator=(AsPath&& other) noexcept {
    if (this != &other) {
      if (on_heap()) release();
      take(other);
    }
    return *this;
  }
  ~AsPath() {
    if (on_heap()) release();
  }

  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }
  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] Asn at(std::size_t i) const;
  [[nodiscard]] std::span<const Asn> hops() const noexcept { return {data(), size_}; }

  /// Nearest AS (the collector peer / vantage point side).
  [[nodiscard]] Asn first() const { return at(0); }
  /// Origin AS (announced the prefix).
  [[nodiscard]] Asn last() const { return at(size() - 1); }

  void push_back(Asn a) {
    if (size_ == capacity_) grow(std::size_t{2} * capacity_);
    data()[size_++] = a;
  }

  /// Make room for `hops` hops in total; no-op for short paths.
  void reserve(std::size_t hops) {
    if (hops > capacity_) grow(hops);
  }

  /// True if any AS appears at two non-adjacent positions (adjacent repeats
  /// are prepending, not loops).  Looped paths signal poisoning or
  /// measurement error and are discarded by the sanitizer (paper §4 step 1).
  [[nodiscard]] bool has_loop() const { return asrank::has_loop(hops()); }

  /// True if any hop is an IANA-reserved ASN.
  [[nodiscard]] bool has_reserved_asn() const noexcept;

  /// True if adjacent duplicate hops exist.
  [[nodiscard]] bool has_prepending() const noexcept;

  [[nodiscard]] bool contains(Asn a) const noexcept;

  /// Position of the first occurrence of `a`, if present.
  [[nodiscard]] std::optional<std::size_t> index_of(Asn a) const noexcept;

  /// Copy with adjacent duplicates collapsed ("701 701 174" -> "701 174").
  [[nodiscard]] AsPath compress_prepending() const;

  /// Space-separated rendering, e.g. "701 174 3356".
  [[nodiscard]] std::string str() const;

  /// Parse a space-separated path.  Returns nullopt if any token is not a
  /// valid ASN.  Tokens in braces (AS_SET remnants, "{1,2}") are rejected:
  /// the sanitizer drops AS_SET paths before they reach this representation.
  [[nodiscard]] static std::optional<AsPath> parse(std::string_view text);

  friend bool operator==(const AsPath& a, const AsPath& b) noexcept;

 private:
  [[nodiscard]] bool on_heap() const noexcept { return capacity_ > kInlineHops; }
  [[nodiscard]] const Asn* data() const noexcept { return on_heap() ? heap_ : inline_; }
  [[nodiscard]] Asn* data() noexcept { return on_heap() ? heap_ : inline_; }

  /// Move to a heap buffer of `capacity` (> size()) hops, keeping the hops.
  void grow(std::size_t capacity);
  /// Steal `other`'s hops (this holds none, inline); leaves `other` empty
  /// and inline.  Copies only the size() live hops of an inline path.
  void take(AsPath& other) noexcept {
    if (other.on_heap()) {
      heap_ = other.heap_;
    } else {
      for (std::uint32_t i = 0; i < other.size_; ++i) inline_[i] = other.inline_[i];
    }
    size_ = other.size_;
    capacity_ = other.capacity_;
    other.size_ = 0;
    other.capacity_ = kInlineHops;
  }
  /// Free the heap buffer, if any; leaves this empty and inline.
  void release() noexcept;

  union {
    Asn inline_[kInlineHops];
    Asn* heap_;
  };
  std::uint32_t size_ = 0;
  std::uint32_t capacity_ = kInlineHops;
};

static_assert(sizeof(AsPath) == 32, "six inline hops, a u32 size and a u32 capacity");

}  // namespace asrank
