// Blocked bitsets over dense node ids, plus the word-span kernels the hot
// paths are built from.  One bit per NodeId, 64 ids per machine word, so
// set algebra over id sets (cone unions in core/cones.cpp, cone
// intersection in the serving layer's core::ConeBitset) runs as
// word-wise OR/AND loops with popcount/countr_zero extraction —
// cache-linear, branch-light, and extraction order is ascending id, which
// is ascending ASN everywhere the snapshot id space is in play.  That
// ordering is what lets bitset kernels reproduce the sorted-array kernels
// byte for byte (locked down by tests/test_differential.cpp).
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace asrank::topology {

/// Fixed-width bitset over node ids.
class DenseBitset {
 public:
  DenseBitset() = default;
  explicit DenseBitset(std::size_t bits) : words_((bits + 63) / 64, 0) {}

  void set(std::size_t i) noexcept { words_[i >> 6] |= (1ULL << (i & 63)); }
  /// Word-wise OR of an equally-sized bitset.
  void merge(const DenseBitset& other) noexcept {
    for (std::size_t w = 0; w < words_.size(); ++w) words_[w] |= other.words_[w];
  }

  [[nodiscard]] std::size_t count() const noexcept {
    std::size_t total = 0;
    for (const std::uint64_t word : words_) total += static_cast<std::size_t>(std::popcount(word));
    return total;
  }
  [[nodiscard]] std::span<const std::uint64_t> words() const noexcept { return words_; }
  [[nodiscard]] std::size_t word_count() const noexcept { return words_.size(); }

 private:
  std::vector<std::uint64_t> words_;
};

/// Number of set bits in a & b (over the shorter common prefix).
[[nodiscard]] inline std::size_t popcount_and(
    std::span<const std::uint64_t> a, std::span<const std::uint64_t> b) noexcept {
  const std::size_t n = std::min(a.size(), b.size());
  std::size_t total = 0;
  for (std::size_t w = 0; w < n; ++w) {
    total += static_cast<std::size_t>(std::popcount(a[w] & b[w]));
  }
  return total;
}

/// Invoke fn(bit_index) for every set bit of `words`, in ascending order.
template <typename Fn>
inline void for_each_bit(std::span<const std::uint64_t> words, Fn&& fn) {
  for (std::size_t w = 0; w < words.size(); ++w) {
    std::uint64_t word = words[w];
    while (word != 0) {
      fn((w << 6) + static_cast<std::size_t>(std::countr_zero(word)));
      word &= word - 1;
    }
  }
}

/// fn(bit_index) for every bit set in both a and b, ascending.
template <typename Fn>
inline void for_each_and(std::span<const std::uint64_t> a,
                         std::span<const std::uint64_t> b, Fn&& fn) {
  const std::size_t n = std::min(a.size(), b.size());
  for (std::size_t w = 0; w < n; ++w) {
    std::uint64_t word = a[w] & b[w];
    while (word != 0) {
      fn((w << 6) + static_cast<std::size_t>(std::countr_zero(word)));
      word &= word - 1;
    }
  }
}

}  // namespace asrank::topology
