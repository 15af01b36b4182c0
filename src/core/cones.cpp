#include "core/cones.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "obs/timer.h"
#include "topology/bitset.h"
#include "util/thread_pool.h"

namespace asrank::core {

namespace {

using topology::AsnInterner;
using topology::kNoNode;
using topology::NodeId;
using topology::TopologyView;

/// Reverse-topological levels of the ASes that have customers (the childless
/// level 0 is left out): every AS sits strictly above all of its customers,
/// so within a level no AS depends on another, which is what makes the
/// level-parallel closure race-free.  Throws on cycles (assumption A3).
template <typename CustomersFn>
std::vector<std::vector<NodeId>> provider_levels(std::size_t n, const CustomersFn& customers) {
  // Each AS's providers in the relation, as CSR rows (ascending).
  std::vector<std::size_t> pending(n, 0);
  std::vector<std::uint64_t> parent_off(n + 1, 0);
  std::vector<NodeId> frontier;
  for (NodeId i = 0; i < n; ++i) {
    const auto row = customers(i);
    pending[i] = row.size();
    if (row.empty()) frontier.push_back(i);
    for (const NodeId c : row) ++parent_off[c + 1];
  }
  for (std::size_t i = 0; i < n; ++i) parent_off[i + 1] += parent_off[i];
  std::vector<NodeId> parents(parent_off[n]);
  std::vector<std::uint64_t> fill(parent_off.begin(), parent_off.end() - 1);
  for (NodeId i = 0; i < n; ++i) {
    for (const NodeId c : customers(i)) parents[fill[c]++] = i;
  }

  std::vector<std::vector<NodeId>> levels;
  std::size_t finalized = 0;
  while (!frontier.empty()) {
    finalized += frontier.size();
    std::vector<NodeId> next;
    for (const NodeId node : frontier) {
      for (std::uint64_t k = parent_off[node]; k < parent_off[node + 1]; ++k) {
        if (--pending[parents[k]] == 0) next.push_back(parents[k]);
      }
    }
    std::sort(next.begin(), next.end());
    levels.push_back(std::move(frontier));
    frontier = std::move(next);
  }
  if (finalized != n) {
    throw std::invalid_argument("customer cones: provider graph has a cycle");
  }
  if (!levels.empty()) levels.erase(levels.begin());  // level 0: the childless ASes
  return levels;
}

/// Closure over an arbitrary p2c sub-relation given as a per-node
/// customer-row accessor (NodeId -> span<const NodeId>).  Only ASes with
/// customers get a bitset row (a childless customer is one bit; a childless
/// AS's cone is itself), built level by level from rows of strictly lower
/// levels, so the output is identical at any worker count.  Row sizes are
/// popcounts, offsets their prefix sum, and members are filled in place.
template <typename CustomersFn>
ConeMap closure(const AsnInterner& interner, const CustomersFn& customers,
                util::ThreadPool& pool) {
  obs::StageTimer stage_timer("cone_closure");
  const std::size_t n = interner.size();
  std::vector<topology::DenseBitset> rows(n);  // no words for an AS without customers
  for (const std::vector<NodeId>& level : provider_levels(n, customers)) {
    // Allocated here, not in the workers, so that rows share one malloc arena.
    for (const NodeId node : level) rows[node] = topology::DenseBitset(n);
    pool.for_each_index(level.size(), [&](std::size_t k) {
      topology::DenseBitset& row = rows[level[k]];
      row.set(level[k]);
      for (const NodeId c : customers(level[k])) {
        if (rows[c].word_count() == 0) {
          row.set(c);
        } else {
          row.merge(rows[c]);
        }
      }
    });
  }

  std::vector<std::uint64_t> offsets(n + 1, 0);
  for (NodeId i = 0; i < n; ++i) {
    offsets[i + 1] = offsets[i] + (rows[i].word_count() == 0 ? 1 : rows[i].count());
  }
  std::vector<Asn> members(offsets[n]);
  pool.for_each_index(n, [&](std::size_t i) {
    Asn* out = members.data() + offsets[i];
    if (rows[i].word_count() == 0) *out = interner.asn_of(static_cast<NodeId>(i));
    topology::for_each_bit(rows[i].words(), [&](std::size_t id) {
      *out++ = interner.asn_of(static_cast<NodeId>(id));
    });
  });
  return ConeMap({interner.asns().begin(), interner.asns().end()}, std::move(offsets),
                 std::move(members));
}

/// Is the link a -> b a known p2c (b is a's customer)?  kNoNode-safe.
bool is_p2c(const TopologyView& view, NodeId a, NodeId b) {
  if (a == kNoNode || b == kNoNode) return false;
  const auto rel = view.relationship(a, b);
  return rel && *rel == RelView::kCustomer;
}

/// Graphs smaller than this get recursive_cone's closure inline.
constexpr std::size_t kInlineClosureAses = 16384;

constexpr std::uint64_t pack(NodeId a, NodeId b) noexcept { return std::uint64_t{a} << 32 | b; }

/// `init` plus every pair `emit(ids, out)` pushes per distinct arena path
/// that some record carries (ids: its hops as view ids, kNoNode for AS0 and
/// for ASes the view lacks), sorted and deduplicated, so the result is the
/// same at any worker count.
template <typename EmitFn>
std::vector<std::uint64_t> collect_pairs(util::ThreadPool& pool, const TopologyView& view,
                                         const paths::PathArena& arena,
                                         std::vector<std::uint64_t> init, const EmitFn& emit) {
  using PairList = std::vector<std::uint64_t>;
  const std::vector<NodeId> to_view = arena.interner().ids_in(view.interner());
  PairList pairs = pool.map_reduce<PairList>(
      arena.path_count(), std::move(init),
      [&](std::size_t begin, std::size_t end) {
        PairList local;
        std::vector<NodeId> ids;
        for (std::size_t p = begin; p < end; ++p) {
          const auto hops = arena.path(p);
          if (arena.multiplicity(p) == 0 || hops.size() < 2) continue;
          ids.clear();
          for (const NodeId hop : hops) ids.push_back(hop == kNoNode ? kNoNode : to_view[hop]);
          emit(std::span<const NodeId>(ids), local);
        }
        return local;
      },
      [](PairList& acc, PairList&& part) { acc.insert(acc.end(), part.begin(), part.end()); });
  std::sort(pairs.begin(), pairs.end());
  pairs.erase(std::unique(pairs.begin(), pairs.end()), pairs.end());
  return pairs;
}

/// CSR offsets (n + 1 entries) of sorted pairs grouped by their first id,
/// which is below n.
std::vector<std::uint64_t> row_offsets(std::size_t n, std::span<const std::uint64_t> pairs) {
  std::vector<std::uint64_t> offsets(n + 1, 0);
  for (const std::uint64_t pair : pairs) ++offsets[(pair >> 32) + 1];
  for (std::size_t i = 0; i < n; ++i) offsets[i + 1] += offsets[i];
  return offsets;
}

}  // namespace

ConeMap recursive_cone(const TopologyView& view, std::size_t threads) {
  // Below kInlineClosureAses the whole closure costs less than starting the
  // workers (2k ASes: about 0.3 ms inline, 0.5 ms on 4 workers); the result
  // is the same either way.
  util::ThreadPool pool(view.node_count() < kInlineClosureAses ? 1 : threads);
  return closure(view.interner(), [&](NodeId node) { return view.customers(node); }, pool);
}

ConeMap recursive_cone(const AsGraph& graph, std::size_t threads) {
  return recursive_cone(graph.freeze(), threads);
}

ConeMap bgp_observed_cone(const TopologyView& view, const paths::PathArena& arena,
                          std::size_t threads) {
  // Observed paths may cross ASes the annotated graph has never seen.  They
  // have no view id, head no p2c descent and sit in none, so they get no
  // row: every key is a graph AS, as read_ppdc requires.  Only p2c
  // classification uses the view.
  const AsnInterner& interner = view.interner();
  util::ThreadPool pool(threads);
  std::vector<std::uint64_t> init;
  for (NodeId id = 0; id < interner.size(); ++id) init.push_back(pack(id, id));
  const auto descents = [&](std::span<const NodeId> ids, auto& out) {
    // Right to left: `end` is the last index of the contiguous p2c descent
    // starting at i.
    std::size_t end = ids.size() - 1;
    for (std::size_t i = ids.size() - 1; i-- > 0;) {
      if (!is_p2c(view, ids[i], ids[i + 1])) end = i;
      for (std::size_t j = i + 1; j <= end; ++j) out.push_back(pack(ids[i], ids[j]));
    }
  };
  const auto pairs = collect_pairs(pool, view, arena, std::move(init), descents);

  std::vector<Asn> members(pairs.size());
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    members[i] = interner.asn_of(static_cast<NodeId>(pairs[i]));
  }
  return ConeMap({interner.asns().begin(), interner.asns().end()},
                 row_offsets(interner.size(), pairs), std::move(members));
}

ConeMap provider_peer_observed_cone(const TopologyView& view, const paths::PathArena& arena,
                                    std::size_t threads) {
  // Collect p2c links observed while descending from above: the provider
  // hop was itself preceded by one of its providers or peers.
  util::ThreadPool pool(threads);
  const auto pairs =
      collect_pairs(pool, view, arena, {}, [&](std::span<const NodeId> ids, auto& out) {
        for (std::size_t i = 1; i + 1 < ids.size(); ++i) {
          if (ids[i] == kNoNode || ids[i - 1] == kNoNode) continue;
          const auto preceding = view.relationship(ids[i], ids[i - 1]);
          const bool from_above = preceding && (*preceding == RelView::kProvider ||
                                                *preceding == RelView::kPeer);
          if (!from_above) continue;
          // Every contiguous p2c link after i is proven to carry traffic
          // downward.
          for (std::size_t j = i; j + 1 < ids.size(); ++j) {
            if (!is_p2c(view, ids[j], ids[j + 1])) break;
            out.push_back(pack(ids[j], ids[j + 1]));
          }
        }
      });

  // CSR over the filtered sub-relation: pairs are sorted by (provider,
  // customer), so each row comes out sorted.
  const std::vector<std::uint64_t> offsets = row_offsets(view.interner().size(), pairs);
  std::vector<NodeId> customers(pairs.size());
  for (std::size_t i = 0; i < pairs.size(); ++i) customers[i] = static_cast<NodeId>(pairs[i]);
  return closure(
      view.interner(),
      [&](NodeId node) {
        return std::span<const NodeId>(customers).subspan(offsets[node],
                                                          offsets[node + 1] - offsets[node]);
      },
      pool);
}

ProviderComponents provider_components(const TopologyView& view) {
  const std::size_t n = view.node_count();
  ProviderComponents out;
  out.component.assign(n, 0);
  std::vector<std::uint32_t> low(n, 0), disc(n, 0);  // disc 0 = not visited yet
  std::vector<std::uint8_t> on_stack(n, 0);
  std::vector<NodeId> stack;
  std::uint32_t timer = 1;

  // Iterative, to avoid deep recursion on large graphs.
  struct Frame {
    NodeId node;
    std::size_t child_index;
  };
  std::vector<Frame> frames;
  for (NodeId root = 0; root < n; ++root) {
    if (disc[root] != 0) continue;
    frames.push_back({root, 0});
    while (!frames.empty()) {
      const NodeId node = frames.back().node;
      if (frames.back().child_index == 0) {
        disc[node] = low[node] = timer++;
        stack.push_back(node);
        on_stack[node] = 1;
      }
      const auto customers = view.customers(node);
      if (frames.back().child_index < customers.size()) {
        const NodeId next = customers[frames.back().child_index++];
        if (disc[next] == 0) {
          frames.push_back({next, 0});
        } else if (on_stack[next]) {
          low[node] = std::min(low[node], disc[next]);
        }
        continue;
      }
      if (low[node] == disc[node]) {
        NodeId top = kNoNode;
        do {
          top = stack.back();
          stack.pop_back();
          on_stack[top] = 0;
          out.component[top] = static_cast<std::uint32_t>(out.count);
        } while (top != node);
        ++out.count;
      }
      frames.pop_back();
      if (!frames.empty()) {
        low[frames.back().node] = std::min(low[frames.back().node], low[node]);
      }
    }
  }
  return out;
}

std::size_t break_provider_cycles(TopologyView& view, const Degrees& degrees) {
  const ProviderComponents components = provider_components(view);
  if (components.acyclic()) return 0;

  // Relabel in key order, then rebuild the view from the same link table.
  std::vector<std::uint64_t> keys;
  std::vector<RelView> lo_views;
  keys.reserve(view.link_count());
  lo_views.reserve(view.link_count());
  std::size_t reoriented = 0;
  view.for_each_link([&](NodeId lo, NodeId hi, RelView rel) {
    keys.push_back(pack(lo, hi));
    const bool p2c = rel == RelView::kCustomer || rel == RelView::kProvider;
    if (p2c && components.component[lo] == components.component[hi]) {
      // Intra-SCC edge: orient toward the ranking.  Ids ascend with ASN, so
      // on a rank tie lo, the lower ASN, provides.
      const std::size_t lo_rank = degrees.rank_of(view.interner().asn_of(lo));
      const std::size_t hi_rank = degrees.rank_of(view.interner().asn_of(hi));
      const RelView ranked = lo_rank <= hi_rank ? RelView::kCustomer : RelView::kProvider;
      if (rel != ranked) {
        rel = ranked;
        ++reoriented;
      }
    }
    lo_views.push_back(rel);
  });
  view = TopologyView::from_sorted_links(view.interner(), keys, lo_views);
  return reoriented;
}

}  // namespace asrank::core
