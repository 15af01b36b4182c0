// Deterministic random number generation for reproducible experiments.
//
// All randomness in the library flows through util::Rng so that a fixed seed
// yields byte-identical topologies, path corpora, and benchmark tables across
// runs and platforms.  The generator is xoshiro256** seeded via splitmix64,
// which is fast, has a 256-bit state, and is well studied.
#pragma once

#include <cstdint>
#include <limits>
#include <span>
#include <stdexcept>
#include <vector>

namespace asrank::util {

/// Advances `state` by one splitmix64 step and returns the step's output;
/// used for seeding.  The output equals util::splitmix64(state) (util/hash.h)
/// of the state before the step.
[[nodiscard]] constexpr std::uint64_t splitmix64_next(std::uint64_t& state) noexcept {
  state += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// xoshiro256** PRNG with distribution helpers.  Not thread-safe; create one
/// per thread or per deterministic pipeline stage.
class Rng {
 public:
  using result_type = std::uint64_t;

  explicit Rng(std::uint64_t seed = 0x5eed5eed5eed5eedULL) noexcept { reseed(seed); }

  void reseed(std::uint64_t seed) noexcept {
    std::uint64_t sm = seed;
    for (auto& word : state_) word = splitmix64_next(sm);
  }

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept {
    return std::numeric_limits<result_type>::max();
  }

  result_type operator()() noexcept {
    const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

  /// Uniform integer in [0, bound).  Uses Lemire's multiply-shift rejection
  /// method to avoid modulo bias.  Throws std::invalid_argument if bound == 0.
  [[nodiscard]] std::uint64_t uniform(std::uint64_t bound);

  /// Uniform integer in [lo, hi] inclusive.
  [[nodiscard]] std::int64_t uniform_range(std::int64_t lo, std::int64_t hi);

  /// Uniform double in [0, 1).
  [[nodiscard]] double uniform01() noexcept {
    return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
  }

  /// Bernoulli trial with success probability p (clamped to [0,1]).
  [[nodiscard]] bool bernoulli(double p) noexcept { return uniform01() < p; }

  /// Discrete power-law (Zipf-like) sample in [1, n] with exponent s > 0,
  /// via inverse-transform on the continuous bounded Pareto approximation.
  /// Used to produce heavy-tailed degree targets in the topology generator.
  [[nodiscard]] std::uint64_t zipf(std::uint64_t n, double s);

  /// Geometric sample: number of failures before first success, p in (0,1].
  [[nodiscard]] std::uint64_t geometric(double p);

  /// Pick one index according to non-negative weights; throws if all zero.
  [[nodiscard]] std::size_t weighted_pick(std::span<const double> weights);

  /// Fisher-Yates shuffle.
  template <typename T>
  void shuffle(std::vector<T>& items) {
    for (std::size_t i = items.size(); i > 1; --i) {
      using std::swap;
      swap(items[i - 1], items[uniform(i)]);
    }
  }

  /// Choose k distinct indices from [0, n) (Floyd's algorithm); k <= n.
  [[nodiscard]] std::vector<std::size_t> sample_indices(std::size_t n, std::size_t k);

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
    return (x << k) | (x >> (64 - k));
  }

  std::uint64_t state_[4]{};
};

}  // namespace asrank::util
