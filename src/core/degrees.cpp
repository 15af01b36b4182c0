#include "core/degrees.h"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <type_traits>
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

void detail::require_tally_id_space(std::size_t ids) {
  if (ids > kMaxTallyIds) {
    throw std::length_error("Degrees::compute: " + std::to_string(ids) +
                            " ASes; the tally holds at most 2^31 - 1");
  }
}

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
  const std::size_t n = arena.interner().size();
  detail::require_tally_id_space(n);
  Degrees degrees;

  // Bucket every observed pair, both directions, by node (counting sort).
  // Entry = neighbour << 1 | interior, interior set when the row's node sits
  // between two hops at that occurrence.
  std::vector<std::uint64_t> start(n + 1, 0);
  for_each_compressed(arena, [&](std::span<const NodeId> ids) {
    for (std::size_t i = 1; i < ids.size(); ++i) {
      if (ids[i - 1] == kNoNode || ids[i] == kNoNode) continue;
      ++start[ids[i - 1] + 1];
      ++start[ids[i] + 1];
    }
  });
  for (std::size_t x = 0; x < n; ++x) start[x + 1] += start[x];
  static_assert(std::is_same_v<NodeId, std::uint32_t>, "entries share the NodeId buffer");
  std::vector<std::uint32_t> entries(start[n]);
  {
    std::vector<std::uint64_t> fill(start.begin(), start.end() - 1);
    for_each_compressed(arena, [&](std::span<const NodeId> ids) {
      for (std::size_t i = 1; i < ids.size(); ++i) {
        const NodeId a = ids[i - 1], b = ids[i];
        if (a == kNoNode || b == kNoNode) continue;
        entries[fill[a]++] = b << 1 | static_cast<std::uint32_t>(i >= 2);
        entries[fill[b]++] = a << 1 | static_cast<std::uint32_t>(i + 1 < ids.size());
      }
    });
  }

  // Per row: keep the first entry of each neighbour, OR-ing the interior
  // flags of its repeats into it (slot[] is a sparse set: slot[y] is valid
  // only if the row entry it points at is y's), then sort the survivors in
  // place.  A row's set flags are its node's transit degree.  Rows are
  // independent, so any chunking gives the same rows.
  std::vector<std::uint32_t> row_size(n, 0);
  degrees.transit_deg_.assign(n, 0);
  util::ThreadPool pool(threads);
  pool.for_chunks(n, [&](std::size_t, std::size_t begin, std::size_t end) {
    std::vector<std::uint32_t> slot(n, 0);
    for (std::size_t x = begin; x < end; ++x) {
      const auto row = entries.begin() + static_cast<std::ptrdiff_t>(start[x]);
      const std::uint64_t length = start[x + 1] - start[x];
      std::uint32_t kept = 0;
      for (std::uint64_t k = 0; k < length; ++k) {
        const std::uint32_t entry = row[k];
        const std::uint32_t at = slot[entry >> 1];
        if (at < kept && (row[at] >> 1) == (entry >> 1)) {
          row[at] |= entry & 1;
        } else {
          slot[entry >> 1] = kept;
          row[kept++] = entry;
        }
      }
      std::sort(row, row + kept);
      row_size[x] = kept;
      degrees.transit_deg_[x] = static_cast<std::uint32_t>(
          std::count_if(row, row + kept, [](std::uint32_t e) { return (e & 1) != 0; }));
    }
  });

  // Compact the rows to the front, entries becoming plain neighbour ids.
  std::vector<std::uint64_t> offsets(n + 1, 0);
  for (std::size_t x = 0; x < n; ++x) {
    for (std::uint32_t k = 0; k < row_size[x]; ++k) {
      entries[offsets[x] + k] = entries[start[x] + k] >> 1;
    }
    offsets[x + 1] = offsets[x] + row_size[x];
  }
  entries.resize(offsets[n]);
  entries.shrink_to_fit();
  degrees.node_deg_ = std::move(row_size);
  degrees.adjacency_ = ObservedAdjacency(std::move(offsets), std::move(entries));

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
