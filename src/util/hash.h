// Header-only non-cryptographic hashing: splitmix64 for integer keys (ASN
// -> shard slot, packed link keys), hash_words for sequences of 32-bit words
// (AS paths), FNV-1a for byte strings (endpoint labels), a two-input mixer
// for rendezvous (highest random weight) ranking of (slot, endpoint) pairs
// and for arena record keys, and HashIndex, the fixed-size open-addressing
// table the path arena and the inference link table deduplicate through.
//
// hash_words is the one path hash: paths::PathArena hashes every record's
// raw hops with it and reuses that value for a sanitized path the stages
// left unchanged, so the raw and sanitized tables share it.  The arena sizes
// each HashIndex from a count it already holds (the records, the distinct
// raw paths, the records whose dedup bucket another record shares), so no
// table grows, and prefetches the slot a later probe will read.
//
// The hashes are stable across platforms and process restarts by
// construction — every ClusterClient must route a given ASN to the same slot
// and rank the same replica list, so std::hash (which may be salted /
// implementation defined) is not usable here.
#pragma once

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <iterator>
#include <string_view>
#include <vector>

namespace asrank::util {

/// splitmix64 finalizer (Steele, Lea, Flood / Vigna).  Bijective on u64;
/// good avalanche for sequential keys like ASNs.
[[nodiscard]] constexpr std::uint64_t splitmix64(std::uint64_t x) noexcept {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Hash of a sequence of 32-bit words (`word` projects each element): one
/// multiply-xorshift step per word, then one splitmix64 finalizer.  Seeded
/// with the length and order-dependent, so "1 2" and "2 1" differ.
template <typename Range, typename Word = std::identity>
[[nodiscard]] constexpr std::uint64_t hash_words(const Range& words, Word word = {}) noexcept {
  std::uint64_t h = std::size(words);
  for (const auto& w : words) {
    h = (h ^ (h >> 32) ^ static_cast<std::uint32_t>(word(w))) * 0x9e3779b97f4a7c15ULL;
  }
  return splitmix64(h ^ (h >> 32));
}

/// FNV-1a over bytes; stable string hash for endpoint labels.
[[nodiscard]] constexpr std::uint64_t fnv1a_64(std::string_view bytes) noexcept {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

/// Mix two 64-bit values into one; used for rendezvous weights
/// weight(slot, endpoint) = mix64(splitmix64(slot), fnv1a_64(endpoint)).
[[nodiscard]] constexpr std::uint64_t mix64(std::uint64_t a,
                                            std::uint64_t b) noexcept {
  return splitmix64(a ^ (b + 0x9e3779b97f4a7c15ULL + (a << 6) + (a >> 2)));
}

/// Open-addressing index from a well-mixed 64-bit hash to caller-owned entry
/// ids; the caller decides equality, so entries are never copied into the
/// table.  Sized once for at most `max_entries` entries (load <= 2/3);
/// inserting more is a caller bug (the probe loop would never end), caught
/// by an assert in builds without NDEBUG.
class HashIndex {
 public:
  explicit HashIndex(std::size_t max_entries)
      : slots_(std::bit_ceil(std::max<std::size_t>(16, max_entries + max_entries / 2 + 1))),
        mask_(slots_.size() - 1) {
#ifndef NDEBUG
    max_entries_ = max_entries;
#endif
  }

  /// Start loading the first slot `hash` probes, ahead of find_or_insert.
  void prefetch(std::uint64_t hash) const noexcept {
    __builtin_prefetch(&slots_[hash & mask_]);
  }

  /// The id of a stored entry `equal` accepts, or else `fresh`, now stored.
  template <typename Equal>
  std::uint32_t find_or_insert(std::uint64_t hash, std::uint32_t fresh, const Equal& equal) {
    const auto tag = static_cast<std::uint32_t>(hash >> 32);
    for (std::size_t i = hash & mask_;; i = (i + 1) & mask_) {
      Slot& slot = slots_[i];
      if (slot.id == kEmpty) {
#ifndef NDEBUG
        ++entries_;
        assert(entries_ <= max_entries_ && "HashIndex sized below its entry count");
#endif
        slot = {tag, fresh};
        return fresh;
      }
      if (slot.tag == tag && equal(slot.id)) return slot.id;
    }
  }

 private:
  static constexpr std::uint32_t kEmpty = 0xffffffffu;
  struct Slot {
    std::uint32_t tag = 0;
    std::uint32_t id = kEmpty;
  };
  std::vector<Slot> slots_;
  std::size_t mask_;
#ifndef NDEBUG
  std::size_t entries_ = 0;
  std::size_t max_entries_ = 0;
#endif
};

}  // namespace asrank::util
