#include "core/degrees.h"

#include <algorithm>
#include <utility>

#include "util/thread_pool.h"

namespace asrank::core {

namespace {

using topology::kNoNode;
using topology::NodeId;

/// Calls fn(ids) for every distinct arena path with prepending runs
/// collapsed (a sanitized or compress-only arena has none to collapse).
template <typename Fn>
void for_each_compressed(const paths::PathArena& arena, Fn&& fn) {
  std::vector<NodeId> ids;
  for (std::size_t p = 0; p < arena.path_count(); ++p) {
    ids.clear();
    for (const NodeId id : arena.path(p)) {
      if (ids.empty() || ids.back() != id) ids.push_back(id);
    }
    fn(std::span<const NodeId>(ids));
  }
}

}  // namespace

bool ObservedAdjacency::adjacent(NodeId a, NodeId b) const noexcept {
  const auto row = neighbors(a);
  return std::binary_search(row.begin(), row.end(), b);
}

Degrees Degrees::compute(const paths::PathCorpus& corpus, std::size_t threads) {
  paths::SanitizerConfig compress_only;
  compress_only.strip_ixp_asns = false;
  compress_only.discard_loops = false;
  compress_only.discard_reserved = false;
  compress_only.dedup = false;
  return compute(paths::PathArena::build(corpus, compress_only), threads);
}

Degrees Degrees::compute(const paths::PathArena& arena, std::size_t threads) {
  Degrees degrees;
  const std::size_t n = arena.interner().size();

  // Bucket every observed pair, both directions, by node (counting sort).
  std::vector<std::uint64_t> start(n + 1, 0);
  for_each_compressed(arena, [&](std::span<const NodeId> ids) {
    for (std::size_t i = 1; i < ids.size(); ++i) {
      if (ids[i - 1] == kNoNode || ids[i] == kNoNode) continue;
      ++start[ids[i - 1] + 1];
      ++start[ids[i] + 1];
    }
  });
  for (std::size_t x = 0; x < n; ++x) start[x + 1] += start[x];
  std::vector<NodeId> pairs(start[n]);
  {
    std::vector<std::uint64_t> fill(start.begin(), start.end() - 1);
    for_each_compressed(arena, [&](std::span<const NodeId> ids) {
      for (std::size_t i = 1; i < ids.size(); ++i) {
        const NodeId a = ids[i - 1], b = ids[i];
        if (a == kNoNode || b == kNoNode) continue;
        pairs[fill[a]++] = b;
        pairs[fill[b]++] = a;
      }
    });
  }

  // Per row: drop repeats against a chunk-local stamp array, then sort the
  // survivors in place.  Rows are independent, so any chunking gives the
  // same rows.
  std::vector<std::uint32_t> row_size(n, 0);
  util::ThreadPool pool(threads);
  pool.for_chunks(n, [&](std::size_t, std::size_t begin, std::size_t end) {
    std::vector<NodeId> stamp(n, kNoNode);
    for (std::size_t x = begin; x < end; ++x) {
      std::uint64_t out = start[x];
      for (std::uint64_t k = start[x]; k < start[x + 1]; ++k) {
        const NodeId y = pairs[k];
        if (stamp[y] == x) continue;
        stamp[y] = static_cast<NodeId>(x);
        pairs[out++] = y;
      }
      std::sort(pairs.begin() + static_cast<std::ptrdiff_t>(start[x]),
                pairs.begin() + static_cast<std::ptrdiff_t>(out));
      row_size[x] = static_cast<std::uint32_t>(out - start[x]);
    }
  });

  std::vector<std::uint64_t> offsets(n + 1, 0);
  for (std::size_t x = 0; x < n; ++x) {
    std::copy_n(pairs.begin() + static_cast<std::ptrdiff_t>(start[x]), row_size[x],
                pairs.begin() + static_cast<std::ptrdiff_t>(offsets[x]));
    offsets[x + 1] = offsets[x] + row_size[x];
  }
  pairs.resize(offsets[n]);
  pairs.shrink_to_fit();

  // Transit: flag each row entry seen beside its node at an interior hop.
  std::vector<std::uint8_t> transit(pairs.size(), 0);
  const auto flag = [&](NodeId x, NodeId y) {
    if (y == kNoNode) return;
    const auto row = pairs.begin() + static_cast<std::ptrdiff_t>(offsets[x]);
    const auto row_end = pairs.begin() + static_cast<std::ptrdiff_t>(offsets[x + 1]);
    transit[static_cast<std::size_t>(std::lower_bound(row, row_end, y) - pairs.begin())] = 1;
  };
  for_each_compressed(arena, [&](std::span<const NodeId> ids) {
    for (std::size_t i = 1; i + 1 < ids.size(); ++i) {
      if (ids[i] == kNoNode) continue;
      flag(ids[i], ids[i - 1]);
      flag(ids[i], ids[i + 1]);
    }
  });
  degrees.transit_deg_.assign(n, 0);
  for (std::size_t x = 0; x < n; ++x) {
    for (std::uint64_t k = offsets[x]; k < offsets[x + 1]; ++k) degrees.transit_deg_[x] += transit[k];
  }
  degrees.node_deg_ = std::move(row_size);
  degrees.adjacency_ = ObservedAdjacency(std::move(offsets), std::move(pairs));

  // Rank every AS observed next to another (node degree > 0); ids ascend in
  // ASN order, so the id tie-break below *is* the lower-ASN tie-break.
  std::vector<NodeId> order;
  for (NodeId id = 0; id < n; ++id) {
    if (degrees.node_deg_[id] > 0) order.push_back(id);
  }
  std::sort(order.begin(), order.end(), [&](NodeId a, NodeId b) {
    if (degrees.transit_deg_[a] != degrees.transit_deg_[b]) {
      return degrees.transit_deg_[a] > degrees.transit_deg_[b];
    }
    if (degrees.node_deg_[a] != degrees.node_deg_[b]) {
      return degrees.node_deg_[a] > degrees.node_deg_[b];
    }
    return a < b;
  });

  degrees.interner_ = arena.interner();
  degrees.rank_.assign(n, order.size());
  degrees.ranked_.reserve(order.size());
  for (std::size_t i = 0; i < order.size(); ++i) {
    degrees.rank_[order[i]] = i;
    degrees.ranked_.push_back(degrees.interner_.asn_of(order[i]));
  }
  return degrees;
}

std::size_t Degrees::transit_degree(Asn as) const noexcept {
  const NodeId id = interner_.id_of(as);
  return id == kNoNode ? 0 : transit_deg_[id];
}

std::size_t Degrees::node_degree(Asn as) const noexcept {
  const NodeId id = interner_.id_of(as);
  return id == kNoNode ? 0 : node_deg_[id];
}

std::size_t Degrees::rank_of(Asn as) const noexcept {
  const NodeId id = interner_.id_of(as);
  return id == kNoNode ? ranked_.size() : rank_[id];
}

}  // namespace asrank::core
