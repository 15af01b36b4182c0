#include "core/cone_bitset.h"

#include <algorithm>

#include "topology/bitset.h"

namespace asrank::core {

namespace {

/// Dense id of `as` in the sorted AS table, or nullopt.
std::uint32_t id_or_norow(std::span<const Asn> asns, Asn as) noexcept {
  const auto it = std::lower_bound(asns.begin(), asns.end(), as);
  if (it == asns.end() || *it != as) return 0xffffffffu;
  return static_cast<std::uint32_t>(it - asns.begin());
}

}  // namespace

ConeBitset::ConeBitset(std::span<const Asn> asns,
                       std::span<const std::uint64_t> cone_off,
                       std::span<const Asn> cone_mem, ConeBitsetConfig config) {
  const std::size_t n = asns.size();
  row_of_.assign(n, kNoRow);
  words_per_row_ = (n + 63) / 64;
  if (n == 0 || cone_off.size() != n + 1) return;

  for (std::size_t id = 0; id < n; ++id) {
    const std::uint64_t size = cone_off[id + 1] - cone_off[id];
    if (size >= config.min_cone_size) {
      row_of_[id] = static_cast<std::uint32_t>(rows_++);
    }
  }
  words_.assign(rows_ * words_per_row_, 0);

  for (std::size_t id = 0; id < n; ++id) {
    if (row_of_[id] == kNoRow) continue;
    std::uint64_t* words = words_.data() + row_of_[id] * words_per_row_;
    for (std::uint64_t i = cone_off[id]; i < cone_off[id + 1]; ++i) {
      const std::uint32_t member = id_or_norow(asns, cone_mem[i]);
      if (member < n) words[member >> 6] |= 1ULL << (member & 63);
    }
  }
}

std::span<const std::uint64_t> ConeBitset::row(std::uint32_t id) const noexcept {
  if (row_of_[id] == kNoRow) return {};
  return std::span<const std::uint64_t>(words_).subspan(
      static_cast<std::size_t>(row_of_[id]) * words_per_row_, words_per_row_);
}

bool ConeBitset::contains(std::uint32_t id, std::uint32_t member) const noexcept {
  const std::uint64_t* words = words_.data() +
                               static_cast<std::size_t>(row_of_[id]) * words_per_row_;
  return (words[member >> 6] >> (member & 63)) & 1ULL;
}

std::vector<std::uint32_t> ConeBitset::intersect_ids(std::uint32_t a,
                                                     std::uint32_t b) const {
  const auto row_a = row(a);
  const auto row_b = row(b);
  std::vector<std::uint32_t> out;
  out.reserve(topology::popcount_and(row_a, row_b));
  topology::for_each_and(row_a, row_b, [&out](std::size_t id) {
    out.push_back(static_cast<std::uint32_t>(id));
  });
  return out;
}

}  // namespace asrank::core
