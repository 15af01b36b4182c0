// Blocked-bitset customer cones for the serving hot path (paper §5).
//
// The snapshot keeps cones as sorted flattened arrays — compact, mmap-able,
// and O(|a|+|b|) to intersect.  At query rates that linear merge is the
// bottleneck, so ConeBitset re-expresses selected cones as dense bit rows
// over the snapshot's node-id space: one bit per AS, one row per covered
// cone.  Intersection becomes a word-wise AND, or one shift-and-mask per
// member when only one side has a row — and because id order equals ASN
// order, extracting set bits in ascending id order reproduces the
// sorted-array results exactly (verified pairwise by
// tests/test_differential.cpp).  Cone difference and membership are not
// served from here: their operands are sorted ASN arrays already, and
// translating members into ids costs a search of the AS table each.
//
// Rows are materialized only for cones of at least `min_cone_size` members:
// big cones are where the linear merge hurts and where bit rows amortize;
// tiny cones stay on the sorted kernels via the caller's fallback.  Memory
// is rows * ceil(n/64) * 8 bytes, so the threshold bounds the footprint.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "asn/asn.h"

namespace asrank::core {

struct ConeBitsetConfig {
  /// Cones with at least this many members get a dense bit row; smaller
  /// cones are left to the caller's sorted-array fallback.  0 gives every
  /// AS a row (exhaustive, O(n²/8) worst-case bytes — tests and small
  /// snapshots); max() disables the bitset entirely.
  std::size_t min_cone_size = 256;

  [[nodiscard]] static constexpr ConeBitsetConfig disabled() noexcept {
    return {std::numeric_limits<std::size_t>::max()};
  }
};

class ConeBitset {
 public:
  /// Build rows from a snapshot's flat cone sections.  `asns` is the sorted
  /// AS table (index = dense id), `cone_off` the n+1 offset table and
  /// `cone_mem` the flattened sorted member array, exactly as served by
  /// SnapshotIndex.  Members that do not resolve to an id are skipped (they
  /// cannot appear in any sorted-kernel answer either).
  ConeBitset(std::span<const Asn> asns, std::span<const std::uint64_t> cone_off,
             std::span<const Asn> cone_mem, ConeBitsetConfig config = {});

  [[nodiscard]] std::size_t node_count() const noexcept { return row_of_.size(); }
  [[nodiscard]] std::size_t row_count() const noexcept { return rows_; }
  [[nodiscard]] std::size_t words_per_row() const noexcept { return words_per_row_; }
  [[nodiscard]] std::size_t memory_bytes() const noexcept {
    return words_.size() * sizeof(std::uint64_t) +
           row_of_.size() * sizeof(std::uint32_t);
  }

  /// Whether `id` (< node_count()) has a materialized row.
  [[nodiscard]] bool has_row(std::uint32_t id) const noexcept {
    return row_of_[id] != kNoRow;
  }

  /// The bit row of `id`; empty span when has_row(id) is false.
  [[nodiscard]] std::span<const std::uint64_t> row(std::uint32_t id) const noexcept;

  /// O(1) membership: is `member` in the cone of `id`?  Requires has_row(id).
  [[nodiscard]] bool contains(std::uint32_t id, std::uint32_t member) const noexcept;

  /// Ascending ids (≡ ascending ASNs) present in both cones.  Requires rows
  /// for both ids.
  [[nodiscard]] std::vector<std::uint32_t> intersect_ids(std::uint32_t a,
                                                         std::uint32_t b) const;

 private:
  static constexpr std::uint32_t kNoRow = 0xffffffffu;

  std::vector<std::uint32_t> row_of_;   ///< id -> row index, kNoRow if none
  std::vector<std::uint64_t> words_;    ///< rows_ * words_per_row_
  std::size_t words_per_row_ = 0;
  std::size_t rows_ = 0;
};

}  // namespace asrank::core
