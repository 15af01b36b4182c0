// Drivers shared by the text-reader fuzz suites (PpdcFuzz and AsRelFuzz in
// test_topology.cpp, RpslFuzz and IrrFuzz in test_irr.cpp): a digest that
// folds each parse outcome, and the loops that feed a reader every prefix,
// and one seeded flip of every byte, of three seeded texts.  The suites pin
// one digest per seed, so these loops must keep their order of Rng draws.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <string_view>

#include "util/rng.h"
#include "util/hash.h"

namespace asrank::text_fuzz {

/// One digest over a reader's outcomes.
class Digest {
 public:
  void add(std::uint64_t v) noexcept { h_ = util::mix64(h_, v); }
  void add(std::string_view text) noexcept { add(util::fnv1a_64(text)); }
  [[nodiscard]] std::uint64_t value() const noexcept { return h_; }

 private:
  std::uint64_t h_ = 0;
};

/// Per-seed digests (seeds 1..4), each over three texts' outcomes.
using PinnedDigests = std::array<std::uint64_t, 4>;

/// Digest of the outcomes of every prefix of three seeded texts.
template <typename TextFn, typename FoldFn>
std::uint64_t prefix_digest(std::uint64_t seed, const TextFn& make_text, const FoldFn& fold) {
  util::Rng rng(seed);
  Digest digest;
  for (int text_no = 0; text_no < 3; ++text_no) {
    const std::string text = make_text(rng);
    for (std::size_t length = 0; length <= text.size(); ++length) {
      fold(digest, text.substr(0, length));
    }
  }
  return digest.value();
}

/// Digest of the outcomes of one seeded flip of each byte of three seeded
/// texts.
template <typename TextFn, typename FoldFn>
std::uint64_t flip_digest(std::uint64_t seed, const TextFn& make_text, const FoldFn& fold) {
  util::Rng rng(seed + 1000);
  Digest digest;
  for (int text_no = 0; text_no < 3; ++text_no) {
    const std::string text = make_text(rng);
    for (std::size_t at = 0; at < text.size(); ++at) {
      std::string flipped = text;
      flipped[at] ^= static_cast<char>(1 + rng.uniform(255));
      fold(digest, flipped);
    }
  }
  return digest.value();
}

}  // namespace asrank::text_fuzz
