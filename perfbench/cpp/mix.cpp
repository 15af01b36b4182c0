#include "mix.h"

#include <algorithm>
#include <cmath>

#include "serve/protocol.h"
#include "serve/wire_ops.h"

namespace perfbench {

namespace serve = asrank::serve;

namespace {
/// Skew of key popularity: the key of rank r is drawn with weight r^-0.9.
/// Like every share of the mix, an assumption, not measured query traffic
/// (README.md, "Assumed traffic").
constexpr double kZipfExponent = 0.9;
}  // namespace

std::string_view op_name(MixOp op) noexcept {
  switch (op) {
    case MixOp::kConeSize: return "cone_size";
    case MixOp::kRank: return "rank";
    case MixOp::kRelationship: return "relationship";
    case MixOp::kProviders: return "providers";
    case MixOp::kConeIntersect: return "cone_intersect";
    case MixOp::kPathToClique: return "path_to_clique";
    case MixOp::kCone: return "cone";
    case MixOp::kInCone: return "in_cone";
    case MixOp::kTop: return "top";
    case MixOp::kConeDiff: return "cone_diff";
  }
  return "?";
}

Mix::Mix(const asrank::snapshot::SnapshotIndex& index, std::vector<std::uint32_t> keys,
         MixParams params, std::uint64_t seed)
    : params_(std::move(params)), keys_(std::move(keys)), rng_(seed) {
  // Most popular first: by rank in `index` (unranked last, then by ASN).
  std::sort(keys_.begin(), keys_.end(), [&index](std::uint32_t x, std::uint32_t y) {
    const auto rx = index.rank(asrank::Asn(x)).value_or(UINT32_MAX);
    const auto ry = index.rank(asrank::Asn(y)).value_or(UINT32_MAX);
    return rx != ry ? rx < ry : x < y;
  });
  double total = 0.0;
  cdf_.reserve(keys_.size());
  for (std::size_t i = 0; i < keys_.size(); ++i) {
    total += 1.0 / std::pow(static_cast<double>(i + 1), kZipfExponent);
    cdf_.push_back(total);
  }
  for (double& c : cdf_) c /= total;

  // REL asks about a real link most of the time: pick from the key's first
  // neighbours (falling back to the key itself, which answers "none").
  neighbor_.reserve(keys_.size());
  for (const std::uint32_t k : keys_) {
    const auto nbrs = index.neighbors(asrank::Asn(k));
    std::array<std::uint32_t, 4> row{k, k, k, k};
    for (std::size_t i = 0; i < row.size() && i < nbrs.size(); ++i) row[i] = nbrs[i].value();
    neighbor_.push_back(row);
  }

  heavy_ops_ = {MixOp::kConeIntersect, MixOp::kPathToClique, MixOp::kCone,
                MixOp::kInCone, MixOp::kTop};
  if (!params_.diff_from.empty()) heavy_ops_.push_back(MixOp::kConeDiff);
}

std::size_t Mix::key_index() {
  const double u = std::uniform_real_distribution<double>(0.0, 1.0)(rng_);
  const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
  return std::min<std::size_t>(static_cast<std::size_t>(it - cdf_.begin()),
                               keys_.size() - 1);
}

MixRequest Mix::next() {
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  MixRequest request;
  if (unit(rng_) < params_.heavy_share) {
    request.op = heavy_ops_[rng_() % heavy_ops_.size()];
  } else {
    request.op = static_cast<MixOp>(rng_() % kPointOpCount);
  }
  const std::size_t ka = key_index();
  request.a = keys_[ka];
  switch (request.op) {
    case MixOp::kRelationship:
      request.b = neighbor_[ka][rng_() % 4];
      break;
    case MixOp::kConeIntersect:
    case MixOp::kInCone:
      request.b = keys_[key_index()];
      break;
    case MixOp::kTop: {
      static constexpr std::uint32_t kSizes[] = {10, 50, 100};
      request.n = kSizes[rng_() % 3];
      break;
    }
    default:
      break;
  }
  request.scoped = request.op != MixOp::kConeDiff && !params_.scope_epoch.empty() &&
                   unit(rng_) < params_.scoped_share;
  return request;
}

std::vector<std::uint8_t> Mix::payload(const MixRequest& request) const {
  using serve::Op;
  const auto one = [&request](Op op) {
    auto w = serve::wire::request(op);
    w.u32(request.a);
    return w;
  };
  const auto two = [&request](Op op) {
    auto w = serve::wire::request(op);
    w.u32(request.a);
    w.u32(request.b);
    return w;
  };
  serve::WireWriter w;
  switch (request.op) {
    case MixOp::kConeSize: w = one(Op::kConeSize); break;
    case MixOp::kRank: w = one(Op::kRank); break;
    case MixOp::kRelationship: w = two(Op::kRelationship); break;
    case MixOp::kProviders: w = one(Op::kProviders); break;
    case MixOp::kConeIntersect: w = two(Op::kConeIntersect); break;
    case MixOp::kPathToClique: w = one(Op::kPathToClique); break;
    case MixOp::kCone: w = one(Op::kCone); break;
    case MixOp::kInCone: w = two(Op::kInCone); break;
    case MixOp::kTop:
      w = serve::wire::request(Op::kTop);
      w.u32(request.n);
      break;
    case MixOp::kConeDiff:
      w = one(Op::kConeDiff);
      w.str16(params_.diff_from);
      w.str16(params_.diff_to);
      break;
  }
  auto inner = w.take();
  if (!request.scoped) return inner;
  return serve::wire::apply_epoch(params_.scope_epoch, std::move(inner));
}

std::vector<std::uint8_t> Mix::frame(const MixRequest& request) const {
  const auto body = payload(request);
  std::vector<std::uint8_t> out;
  out.reserve(body.size() + 5);
  out.push_back(serve::kBinaryMarker);
  const auto len = static_cast<std::uint32_t>(body.size());
  for (int shift = 0; shift < 32; shift += 8) {
    out.push_back(static_cast<std::uint8_t>((len >> shift) & 0xFF));
  }
  out.insert(out.end(), body.begin(), body.end());
  return out;
}

std::string Mix::text(const MixRequest& request) const {
  const std::string a = std::to_string(request.a);
  const std::string b = std::to_string(request.b);
  std::string line = request.scoped ? "@" + params_.scope_epoch + " " : "";
  switch (request.op) {
    case MixOp::kConeSize: line += "CONESIZE " + a; break;
    case MixOp::kRank: line += "RANK " + a; break;
    case MixOp::kRelationship: line += "REL " + a + " " + b; break;
    case MixOp::kProviders: line += "PROVIDERS " + a; break;
    case MixOp::kConeIntersect: line += "INTERSECT " + a + " " + b; break;
    case MixOp::kPathToClique: line += "CLIQUEPATH " + a; break;
    case MixOp::kCone: line += "CONE " + a; break;
    case MixOp::kInCone: line += "INCONE " + a + " " + b; break;
    case MixOp::kTop: line += "TOP " + std::to_string(request.n); break;
    case MixOp::kConeDiff:
      line += "CONEDIFF " + a + " " + params_.diff_from + " " + params_.diff_to;
      break;
  }
  return line;
}

}  // namespace perfbench
