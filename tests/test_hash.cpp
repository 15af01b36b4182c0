// util/hash.h: the path hash and the arena's fixed-size HashIndex.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "util/hash.h"
#include "util/rng.h"

namespace asrank::util {
namespace {

TEST(SplitMix64, SteppingFormMatchesTheFinalizer) {
  // rng.h's stepping splitmix64_next and hash.h's finalizer live side by
  // side: one step outputs the finalizer of the state before it.
  std::uint64_t state = 42;
  for (int i = 0; i < 4; ++i) {
    const std::uint64_t before = state;
    EXPECT_EQ(splitmix64_next(state), splitmix64(before));
    EXPECT_EQ(state, before + 0x9e3779b97f4a7c15ULL);
  }
}

TEST(HashWords, OrderLengthAndProjection) {
  using Words = std::vector<std::uint32_t>;
  const Words ab{1, 2};
  EXPECT_NE(hash_words(ab), hash_words(Words{2, 1}));
  EXPECT_NE(hash_words(Words{}), hash_words(Words{0}));
  EXPECT_NE(hash_words(Words{0}), hash_words(Words{0, 0}));
  struct Wrapped {
    std::uint32_t v;
  };
  const std::vector<Wrapped> wrapped{{1}, {2}};
  EXPECT_EQ(hash_words(wrapped, [](Wrapped w) { return w.v; }), hash_words(ab));
}

TEST(HashIndex, TableSizedForNAcceptsNDistinctInserts) {
  for (const std::size_t n : {0u, 1u, 10u, 16u, 17u, 100u, 1000u, 4096u}) {
    HashIndex index(n);
    const auto never_equal = [](std::uint32_t) { return false; };
    for (std::uint32_t i = 0; i < n; ++i) {
      ASSERT_EQ(index.find_or_insert(splitmix64(i), i, never_equal), i) << n;
    }
    // Every entry is found again under its own hash.
    for (std::uint32_t i = 0; i < n; ++i) {
      const std::uint64_t h = splitmix64(i);
      const auto same_key = [&](std::uint32_t id) { return splitmix64(id) == h; };
      EXPECT_EQ(index.find_or_insert(h, n, same_key), i) << n;
    }
  }
}

}  // namespace
}  // namespace asrank::util
