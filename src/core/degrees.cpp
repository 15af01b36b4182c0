#include "core/degrees.h"

#include <algorithm>
#include <memory>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <utility>

#include "util/thread_pool.h"

namespace asrank::core {

namespace {

using topology::kNoNode;
using topology::NodeId;

/// Calls pair(a, b, a_interior, b_interior) for every adjacent pair of
/// `hops` with prepending runs collapsed, ids taken through `id_of`.  A hop
/// is interior when it sits between two runs: the flags are the ones the
/// collapsed path gives.  Pairs with a kNoNode side are skipped.
template <typename Hop, typename IdOf, typename Pair>
void for_each_pair(std::span<const Hop> hops, const IdOf& id_of, const Pair& pair) {
  NodeId prev = kNoNode;
  for (std::size_t i = 0, run = 0; i < hops.size(); ++run) {
    std::size_t next = i + 1;
    while (next < hops.size() && hops[next] == hops[i]) ++next;
    const NodeId cur = id_of(hops[i]);
    if (run > 0 && prev != kNoNode && cur != kNoNode) {
      pair(prev, cur, run >= 2, next < hops.size());
    }
    prev = cur;
    i = next;
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

template <typename Walk>
Degrees Degrees::tally(topology::AsnInterner interner, std::size_t units, util::ThreadPool& pool,
                       const Walk& walk) {
  const std::size_t n = interner.size();
  detail::require_tally_id_space(n);
  const std::size_t chunks = pool.worker_count();

  // Bucket every observed pair, both directions, by node (counting sort).
  // Entry = neighbour << 1 | interior.  Chunk c counts into cursor[c * n +
  // x]; the prefix below turns the counts into chunk c's first slot in row
  // x, so rows fill in unit order whatever the chunking.
  std::vector<std::uint64_t> cursor(chunks * n, 0);
  pool.for_chunks(units, [&](std::size_t c, std::size_t begin, std::size_t end) {
    std::uint64_t* count = cursor.data() + c * n;
    for (std::size_t u = begin; u < end; ++u) {
      walk(u, [&](NodeId a, NodeId b, bool, bool) {
        ++count[a];
        ++count[b];
      });
    }
  });
  std::vector<std::uint64_t> start(n + 1, 0);
  for (std::size_t x = 0; x < n; ++x) {
    std::uint64_t at = start[x];
    for (std::size_t c = 0; c < chunks; ++c) {
      const std::uint64_t count = cursor[c * n + x];
      cursor[c * n + x] = at;
      at += count;
    }
    start[x + 1] = at;
  }
  // Every entry is written exactly once by the fill, so the buffer is not
  // zeroed first (and its pages are first touched on the workers).
  static_assert(std::is_same_v<NodeId, std::uint32_t>, "entries share the NodeId buffer");
  auto entries = std::make_unique_for_overwrite<std::uint32_t[]>(start[n]);
  pool.for_chunks(units, [&](std::size_t c, std::size_t begin, std::size_t end) {
    std::uint64_t* fill = cursor.data() + c * n;
    for (std::size_t u = begin; u < end; ++u) {
      walk(u, [&](NodeId a, NodeId b, bool a_interior, bool b_interior) {
        entries[fill[a]++] = b << 1 | static_cast<std::uint32_t>(a_interior);
        entries[fill[b]++] = a << 1 | static_cast<std::uint32_t>(b_interior);
      });
    }
  });
  cursor = {};

  // Per row: keep the first entry of each neighbour, OR-ing the interior
  // flags of its repeats into it (a chunk's slot[] is a sparse set: slot[y]
  // is valid only if the row entry it points at is y's), then sort the
  // survivors in place.  A row's set flags are its node's transit degree.
  // Rows are independent, so any split gives the same rows; chunk c takes
  // the rows from first[c], splitting the entries about evenly.
  std::vector<std::size_t> first(chunks + 1, n);
  for (std::size_t c = 0; c < chunks; ++c) {
    const std::uint64_t at = start[n] * c / chunks;
    first[c] = static_cast<std::size_t>(
        std::lower_bound(start.begin(), start.end() - 1, at) - start.begin());
  }
  std::vector<std::uint32_t> slots(chunks * n);
  std::vector<std::uint32_t> row_size(n, 0);
  std::vector<std::uint32_t> transit(n, 0);
  pool.for_chunks(chunks, [&](std::size_t c, std::size_t begin, std::size_t end) {
    std::uint32_t* slot = slots.data() + c * n;
    for (std::size_t x = first[begin]; x < first[end]; ++x) {
      std::uint32_t* const row = entries.get() + start[x];
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
      transit[x] = static_cast<std::uint32_t>(
          std::count_if(row, row + kept, [](std::uint32_t e) { return (e & 1) != 0; }));
    }
  });
  slots = {};

  // Copy the rows into the CSR, entries becoming plain neighbour ids.
  std::vector<std::uint64_t> offsets(n + 1, 0);
  for (std::size_t x = 0; x < n; ++x) offsets[x + 1] = offsets[x] + row_size[x];
  std::vector<NodeId> neighbors(offsets[n]);
  pool.for_chunks(n, [&](std::size_t, std::size_t begin, std::size_t end) {
    for (std::size_t x = begin; x < end; ++x) {
      for (std::uint32_t k = 0; k < row_size[x]; ++k) {
        neighbors[offsets[x] + k] = entries[start[x] + k] >> 1;
      }
    }
  });
  entries.reset();

  Degrees degrees;
  degrees.interner_ = std::move(interner);
  degrees.adjacency_ = ObservedAdjacency(std::move(offsets), std::move(neighbors));
  degrees.transit_deg_ = std::move(transit);
  degrees.node_deg_ = std::move(row_size);
  degrees.rank(pool);
  return degrees;
}

Degrees Degrees::compute(const paths::PathCorpus& corpus, std::size_t threads) {
  util::ThreadPool pool(threads);
  const auto records = corpus.records();
  topology::FirstSeenIds seen;
  for (const paths::PathRecord& record : records) {
    for (const Asn hop : record.path.hops()) (void)seen.id(hop);
  }
  auto interner = topology::AsnInterner::from_asns(seen.asns());
  (void)seen.renumber(interner);
  const auto id_of = [&](Asn hop) { return seen.find(hop); };
  return tally(std::move(interner), records.size(), pool, [&](std::size_t r, const auto& pair) {
    for_each_pair(records[r].path.hops(), id_of, pair);
  });
}

Degrees Degrees::compute(const paths::PathArena& arena, std::size_t threads) {
  util::ThreadPool pool(threads);
  return compute(arena, pool);
}

Degrees Degrees::compute(const paths::PathArena& arena, util::ThreadPool& pool) {
  const auto id_of = [](NodeId id) { return id; };
  return tally(arena.interner(), arena.path_count(), pool, [&](std::size_t p, const auto& pair) {
    for_each_pair(arena.path(p), id_of, pair);
  });
}

void Degrees::rank(util::ThreadPool& pool) {
  // Rank every AS observed next to another (node degree > 0); ids ascend in
  // ASN order, so the id tie-break below *is* the lower-ASN tie-break.  The
  // order is total, so sorting each chunk and merging the chunks gives the
  // one sorted order.
  const std::size_t n = interner_.size();
  std::vector<NodeId> order;
  for (NodeId id = 0; id < n; ++id) {
    if (node_deg_[id] > 0) order.push_back(id);
  }
  const auto before = [&](NodeId a, NodeId b) {
    if (transit_deg_[a] != transit_deg_[b]) return transit_deg_[a] > transit_deg_[b];
    if (node_deg_[a] != node_deg_[b]) return node_deg_[a] > node_deg_[b];
    return a < b;
  };
  pool.for_chunks(order.size(), [&](std::size_t, std::size_t begin, std::size_t end) {
    std::sort(order.begin() + static_cast<std::ptrdiff_t>(begin),
              order.begin() + static_cast<std::ptrdiff_t>(end), before);
  });
  const std::vector<std::size_t> bounds = pool.chunk_bounds(order.size());
  for (std::size_t c = 2; c < bounds.size(); ++c) {
    const auto at = [&](std::size_t i) {
      return order.begin() + static_cast<std::ptrdiff_t>(bounds[i]);
    };
    std::inplace_merge(at(0), at(c - 1), at(c), before);
  }
  rank_.assign(n, order.size());
  ranked_.reserve(order.size());
  for (std::size_t i = 0; i < order.size(); ++i) {
    rank_[order[i]] = i;
    ranked_.push_back(interner_.asn_of(order[i]));
  }
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
