// The benchmark's query mix: Zipf-skewed keys over a snapshot's ASes,
// rendered as binary-rail frames or text-rail lines.  Requests are made by
// the benchmark from its seed; the server only ever sees the bytes.
#pragma once

#include <array>
#include <cstdint>
#include <random>
#include <string>
#include <string_view>
#include <vector>

#include "snapshot/snapshot.h"

namespace perfbench {

enum class MixOp : std::uint8_t {
  // point lookups
  kConeSize,
  kRank,
  kRelationship,
  kProviders,
  // heavy queries
  kConeIntersect,
  kPathToClique,
  kCone,
  kInCone,
  kTop,
  kConeDiff,
};
inline constexpr std::size_t kMixOpCount = 10;
inline constexpr std::size_t kPointOpCount = 4;

[[nodiscard]] std::string_view op_name(MixOp op) noexcept;

struct MixRequest {
  MixOp op = MixOp::kConeSize;
  std::uint32_t a = 0;
  std::uint32_t b = 0;       ///< second AS (relationship/intersect/in_cone)
  std::uint32_t n = 0;       ///< top-N
  bool scoped = false;       ///< carries WITH_EPOCH / @epoch
};

struct MixParams {
  double heavy_share = 0.5;   ///< 0 = point lookups only
  double scoped_share = 0.2;  ///< share of requests scoped to `scope_epoch`
  std::string scope_epoch;    ///< epoch named by scoped requests ("" = none)
  std::string diff_from;      ///< CONEDIFF epochs ("" = no CONEDIFF)
  std::string diff_to;
};

class Mix {
 public:
  /// Keys are the ASes of `index` present in every epoch the mix names
  /// (`keys`), ordered most popular first by `index`'s rank.
  Mix(const asrank::snapshot::SnapshotIndex& index, std::vector<std::uint32_t> keys,
      MixParams params, std::uint64_t seed);

  [[nodiscard]] MixRequest next();

  /// Binary request payload (opcode + operands, WITH_EPOCH-wrapped when
  /// scoped).
  [[nodiscard]] std::vector<std::uint8_t> payload(const MixRequest& request) const;
  /// Full binary frame: marker + u32 LE length + payload.
  [[nodiscard]] std::vector<std::uint8_t> frame(const MixRequest& request) const;
  /// Text command, no trailing newline.
  [[nodiscard]] std::string text(const MixRequest& request) const;

  [[nodiscard]] const MixParams& params() const noexcept { return params_; }

 private:
  /// Zipf draw over keys_ (index 0 is the most popular).
  [[nodiscard]] std::size_t key_index();

  MixParams params_;
  std::vector<std::uint32_t> keys_;
  std::vector<double> cdf_;
  std::vector<std::array<std::uint32_t, 4>> neighbor_;  ///< per key, for REL
  std::vector<MixOp> heavy_ops_;
  std::mt19937_64 rng_;
};

}  // namespace perfbench
