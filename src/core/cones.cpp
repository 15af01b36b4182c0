#include "core/cones.h"

#include <algorithm>
#include <bit>
#include <stdexcept>
#include <unordered_map>
#include <unordered_set>
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

/// Fixed-width bitset over node ids for fast cone unions (the shared
/// blocked-bitset utility also backing core::ConeBitset in the serving
/// layer).
using Bits = topology::DenseBitset;

/// Set-bit extraction in id order (== ascending ASN), skipping zero words.
std::vector<Asn> members_of(const Bits& bits, const AsnInterner& interner) {
  std::vector<Asn> members;
  topology::for_each_bit(bits.words(), [&](std::size_t id) {
    members.push_back(interner.asn_of(static_cast<NodeId>(id)));
  });
  return members;
}

/// Reverse-topological levels of the customer DAG: level 0 holds childless
/// nodes, and every node sits strictly above all of its customers.  Within a
/// level no node depends on another, which is what makes the level-parallel
/// closure race-free.  Throws on cycles (assumption A3), like the DFS path.
template <typename CustomersFn>
std::vector<std::vector<NodeId>> reverse_topo_levels(std::size_t n,
                                                     const CustomersFn& customers) {
  std::vector<std::size_t> pending(n, 0);
  std::vector<std::vector<NodeId>> parents(n);
  for (NodeId i = 0; i < n; ++i) {
    const auto row = customers(i);
    pending[i] = row.size();
    for (const NodeId c : row) parents[c].push_back(i);
  }

  std::vector<std::vector<NodeId>> levels;
  std::vector<NodeId> frontier;
  for (NodeId i = 0; i < n; ++i) {
    if (pending[i] == 0) frontier.push_back(i);
  }
  std::size_t finalized = 0;
  while (!frontier.empty()) {
    finalized += frontier.size();
    std::vector<NodeId> next;
    for (const NodeId node : frontier) {
      for (const NodeId p : parents[node]) {
        if (--pending[p] == 0) next.push_back(p);
      }
    }
    std::sort(next.begin(), next.end());
    levels.push_back(std::move(frontier));
    frontier = std::move(next);
  }
  if (finalized != n) {
    throw std::invalid_argument("customer cones: provider graph has a cycle");
  }
  return levels;
}

/// Memoized post-order closure over an arbitrary p2c sub-relation given as a
/// per-node customer-row accessor (NodeId -> span<const NodeId>).  The loop
/// body is pure array traversal plus bitset unions — no hashing anywhere.
/// threads == 1 runs the legacy sequential DFS; more workers merge each
/// reverse-topological level in parallel — every node writes only its own
/// cone and reads only cones from strictly lower levels, so the bitsets (and
/// therefore the output) are identical at any worker count.
template <typename CustomersFn>
ConeMap closure(const AsnInterner& interner, const CustomersFn& customers,
                std::size_t threads) {
  obs::StageTimer stage_timer("cone_closure");
  const std::size_t n = interner.size();
  util::ThreadPool pool(threads);
  std::vector<Bits> cones(n, Bits(n));

  if (pool.worker_count() <= 1) {
    std::vector<std::uint8_t> state(n, 0);  // 0 = new, 1 = visiting, 2 = done
    for (NodeId root = 0; root < n; ++root) {
      if (state[root] == 2) continue;
      // Iterative DFS post-order.
      std::vector<std::pair<NodeId, std::size_t>> frames{{root, 0}};
      while (!frames.empty()) {
        const NodeId node = frames.back().first;
        std::size_t& child = frames.back().second;
        const auto row = customers(node);
        if (child == 0) {
          if (state[node] == 2) {
            frames.pop_back();
            continue;
          }
          state[node] = 1;
          cones[node].set(node);
        }
        if (child < row.size()) {
          const NodeId next = row[child];
          ++child;
          if (state[next] == 1) {
            throw std::invalid_argument("customer cones: provider graph has a cycle");
          }
          if (state[next] != 2) frames.push_back({next, 0});
          continue;
        }
        for (const NodeId c : row) cones[node].merge(cones[c]);
        state[node] = 2;
        frames.pop_back();
      }
    }
  } else {
    for (const std::vector<NodeId>& level : reverse_topo_levels(n, customers)) {
      pool.for_each_index(level.size(), [&](std::size_t k) {
        const NodeId node = level[k];
        cones[node].set(node);
        for (const NodeId c : customers(node)) cones[node].merge(cones[c]);
      });
    }
  }

  std::vector<std::vector<Asn>> members(n);
  pool.for_each_index(n, [&](std::size_t i) { members[i] = members_of(cones[i], interner); });
  ConeMap out;
  for (NodeId i = 0; i < n; ++i) out.emplace(interner.asn_of(i), std::move(members[i]));
  return out;
}

/// Is the link a -> b a known p2c (b is a's customer)?  kNoNode-safe.
bool is_p2c(const TopologyView& view, NodeId a, NodeId b) {
  if (a == kNoNode || b == kNoNode) return false;
  const auto rel = view.relationship(a, b);
  return rel && *rel == RelView::kCustomer;
}

}  // namespace

ConeMap recursive_cone(const TopologyView& view, std::size_t threads) {
  return closure(view.interner(), [&](NodeId node) { return view.customers(node); },
                 threads);
}

ConeMap recursive_cone(const AsGraph& graph, std::size_t threads) {
  return recursive_cone(graph.freeze(), threads);
}

ConeMap bgp_observed_cone(const TopologyView& view, const paths::PathCorpus& corpus,
                          std::size_t threads) {
  using SetMap = std::unordered_map<Asn, std::unordered_set<Asn>>;
  util::ThreadPool pool(threads);
  const auto records = corpus.records();
  const AsnInterner& interner = view.interner();

  // Cone keys/members stay ASN-typed: observed paths may cross ASes the
  // annotated graph has never seen, which have no NodeId.  Only the p2c
  // classification runs on the dense view.  Per-chunk membership sets merge
  // by set union — commutative, so the ordered reduction yields the
  // sequential result at any worker count.
  SetMap cones = pool.map_reduce<SetMap>(
      records.size(), SetMap{},
      [&](std::size_t begin, std::size_t end) {
        SetMap local;
        std::vector<NodeId> ids;
        for (std::size_t r = begin; r < end; ++r) {
          const auto hops = records[r].path.hops();
          if (hops.size() < 2) continue;
          interner.translate(hops, ids);
          // reach_end[i]: last index of the contiguous p2c descent starting
          // at i.  Computed right-to-left in one pass.
          std::vector<std::size_t> reach_end(hops.size());
          reach_end[hops.size() - 1] = hops.size() - 1;
          for (std::size_t i = hops.size() - 1; i-- > 0;) {
            reach_end[i] = is_p2c(view, ids[i], ids[i + 1]) ? reach_end[i + 1] : i;
          }
          for (std::size_t i = 0; i + 1 < hops.size(); ++i) {
            auto& cone = local[hops[i]];
            for (std::size_t j = i + 1; j <= reach_end[i]; ++j) cone.insert(hops[j]);
          }
        }
        return local;
      },
      [](SetMap& acc, SetMap&& part) {
        for (auto& [as, members] : part) {
          acc[as].insert(members.begin(), members.end());
        }
      });
  for (const Asn as : interner.asns()) cones[as].insert(as);

  ConeMap out;
  for (auto& [as, members] : cones) {
    std::vector<Asn> sorted(members.begin(), members.end());
    std::sort(sorted.begin(), sorted.end());
    out.emplace(as, std::move(sorted));
  }
  return out;
}

ConeMap bgp_observed_cone(const AsGraph& graph, const paths::PathCorpus& corpus,
                          std::size_t threads) {
  return bgp_observed_cone(graph.freeze(), corpus, threads);
}

ConeMap provider_peer_observed_cone(const TopologyView& view,
                                    const paths::PathCorpus& corpus, std::size_t threads) {
  // Collect p2c links observed while descending from above: the provider
  // hop was itself preceded by one of its providers or peers.  Each chunk
  // emits packed (provider, customer) id pairs; the final sort+unique makes
  // the result independent of chunk order, so concatenation merging is safe.
  const AsnInterner& interner = view.interner();
  util::ThreadPool pool(threads);
  const auto records = corpus.records();

  using PairList = std::vector<std::uint64_t>;
  PairList pairs = pool.map_reduce<PairList>(
      records.size(), PairList{},
      [&](std::size_t begin, std::size_t end) {
        PairList local;
        std::vector<NodeId> ids;
        for (std::size_t r = begin; r < end; ++r) {
          const auto hops = records[r].path.hops();
          interner.translate(hops, ids);
          for (std::size_t i = 1; i + 1 < hops.size(); ++i) {
            if (ids[i] == kNoNode || ids[i - 1] == kNoNode) continue;
            const auto preceding = view.relationship(ids[i], ids[i - 1]);
            const bool from_above = preceding && (*preceding == RelView::kProvider ||
                                                  *preceding == RelView::kPeer);
            if (!from_above) continue;
            // Every contiguous p2c link after i is proven to carry traffic
            // downward.
            for (std::size_t j = i; j + 1 < hops.size(); ++j) {
              if (!is_p2c(view, ids[j], ids[j + 1])) break;
              local.push_back(static_cast<std::uint64_t>(ids[j]) << 32 | ids[j + 1]);
            }
          }
        }
        return local;
      },
      [](PairList& acc, PairList&& part) {
        acc.insert(acc.end(), part.begin(), part.end());
      });
  std::sort(pairs.begin(), pairs.end());
  pairs.erase(std::unique(pairs.begin(), pairs.end()), pairs.end());

  // CSR over the filtered sub-relation: pairs are sorted by (provider,
  // customer), so each row comes out sorted.
  const std::size_t n = interner.size();
  std::vector<std::uint64_t> offsets(n + 1, 0);
  std::vector<NodeId> customers(pairs.size());
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    ++offsets[(pairs[i] >> 32) + 1];
    customers[i] = static_cast<NodeId>(pairs[i]);
  }
  for (std::size_t i = 0; i < n; ++i) offsets[i + 1] += offsets[i];

  return closure(
      interner,
      [&](NodeId node) {
        return std::span<const NodeId>(customers).subspan(
            offsets[node], offsets[node + 1] - offsets[node]);
      },
      threads);
}

ConeMap provider_peer_observed_cone(const AsGraph& graph, const paths::PathCorpus& corpus,
                                    std::size_t threads) {
  return provider_peer_observed_cone(graph.freeze(), corpus, threads);
}

ConeMap compute_cone(ConeMethod method, const TopologyView& view,
                     const paths::PathCorpus& corpus, std::size_t threads) {
  switch (method) {
    case ConeMethod::kRecursive: return recursive_cone(view, threads);
    case ConeMethod::kBgpObserved: return bgp_observed_cone(view, corpus, threads);
    case ConeMethod::kProviderPeerObserved:
      return provider_peer_observed_cone(view, corpus, threads);
  }
  throw std::invalid_argument("compute_cone: unknown method");
}

ConeMap compute_cone(ConeMethod method, const AsGraph& graph,
                     const paths::PathCorpus& corpus, std::size_t threads) {
  return compute_cone(method, graph.freeze(), corpus, threads);
}

std::size_t break_provider_cycles(AsGraph& graph, const Degrees& degrees) {
  if (graph.p2c_acyclic()) return 0;
  // Tarjan SCC over the provider->customer digraph of a frozen CSR view;
  // inside each non-trivial SCC, re-orient c2p edges so the higher-ranked
  // endpoint provides, which imposes a strict total order and breaks all
  // cycles without discarding transit evidence.
  const TopologyView view = graph.freeze();
  const std::size_t n = view.node_count();

  std::vector<std::size_t> low(n, 0), disc(n, 0), scc_id(n, 0);
  std::vector<bool> on_stack(n, false);
  std::vector<std::size_t> stack;
  std::size_t timer = 1, scc_count = 0;

  // Iterative Tarjan to avoid deep recursion on large graphs.
  struct Frame {
    std::size_t node;
    std::size_t child_index;
  };
  for (std::size_t root = 0; root < n; ++root) {
    if (disc[root] != 0) continue;
    std::vector<Frame> frames{{root, 0}};
    while (!frames.empty()) {
      const std::size_t node = frames.back().node;
      if (frames.back().child_index == 0) {
        disc[node] = low[node] = timer++;
        stack.push_back(node);
        on_stack[node] = true;
      }
      const auto customers = view.customers(static_cast<NodeId>(node));
      if (frames.back().child_index < customers.size()) {
        const std::size_t next = customers[frames.back().child_index];
        ++frames.back().child_index;
        if (disc[next] == 0) {
          frames.push_back({next, 0});  // frames.back() invalidated; loop re-reads
        } else if (on_stack[next]) {
          low[node] = std::min(low[node], disc[next]);
        }
        continue;
      }
      if (low[node] == disc[node]) {
        ++scc_count;
        while (true) {
          const std::size_t top = stack.back();
          stack.pop_back();
          on_stack[top] = false;
          scc_id[top] = scc_count;
          if (top == node) break;
        }
      }
      frames.pop_back();
      if (!frames.empty()) {
        low[frames.back().node] = std::min(low[frames.back().node], low[node]);
      }
    }
  }

  const AsnInterner& graph_ids = view.interner();
  std::size_t reoriented = 0;
  for (const Link& link : graph.links()) {
    if (link.type != LinkType::kP2C) continue;
    const NodeId ia = graph_ids.id_of(link.a), ib = graph_ids.id_of(link.b);
    if (scc_id[ia] != scc_id[ib]) continue;
    // Intra-SCC edge: orient toward the ranking.
    const bool a_higher = degrees.rank_of(link.a) < degrees.rank_of(link.b) ||
                          (degrees.rank_of(link.a) == degrees.rank_of(link.b) &&
                           link.a < link.b);
    if (!a_higher) {
      graph.add_p2c(link.b, link.a);
      ++reoriented;
    }
  }
  return reoriented;
}

}  // namespace asrank::core
