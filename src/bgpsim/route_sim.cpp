#include "bgpsim/route_sim.h"

#include <algorithm>
#include <limits>
#include <queue>
#include <stdexcept>

#include "util/rng.h"

namespace asrank::bgpsim {

namespace {

constexpr std::uint32_t kInf = std::numeric_limits<std::uint32_t>::max();
constexpr std::size_t kNoParent = std::numeric_limits<std::size_t>::max();

}  // namespace

SelectedRoute RouteTable::route(Asn as) const noexcept {
  const auto it = routes_.find(as);
  return it == routes_.end() ? SelectedRoute{} : it->second;
}

AsPath RouteTable::path_from(Asn as) const {
  AsPath path;
  Asn current = as;
  // A strict Gao–Rexford table cannot loop (lengths strictly decrease), but
  // a route-leak table can chain a leaked customer-class route into a peer
  // route that descends back through the leaker.  Real BGP's loop
  // prevention discards exactly those paths, so a non-terminating chain
  // reports unreachable rather than throwing.
  const std::size_t limit = routes_.size() + 2;
  while (path.size() < limit) {
    const auto it = routes_.find(current);
    if (it == routes_.end()) return AsPath{};  // unreachable
    path.push_back(current);
    if (current == destination_) return path;
    current = it->second.next_hop;
    if (!current.valid()) return AsPath{};
  }
  return AsPath{};  // leak-induced next-hop cycle: BGP would drop the path
}

RouteSimulator::RouteSimulator(const AsGraph& graph,
                               const std::unordered_set<Asn>& leakers)
    : graph_(graph) {
  // Snapshot the topology into index-based adjacency lists: routes_to runs
  // once per destination, so per-call rebuilding would dominate runtime.
  sorted_ases_ = graph.ases();
  const std::size_t n = sorted_ases_.size();
  index_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) index_.emplace(sorted_ases_[i], i);

  auto to_indices = [&](std::span<const Asn> list) {
    std::vector<std::size_t> out;
    out.reserve(list.size());
    for (const Asn other : list) out.push_back(index_.at(other));
    std::sort(out.begin(), out.end());
    return out;
  };
  providers_.resize(n);
  customers_.resize(n);
  peers_.resize(n);
  siblings_.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    const Asn as = sorted_ases_[i];
    providers_[i] = to_indices(graph.providers(as));
    customers_[i] = to_indices(graph.customers(as));
    peers_[i] = to_indices(graph.peers(as));
    siblings_[i] = to_indices(graph.siblings(as));
    if (leakers.contains(as)) leaker_idx_.push_back(i);
  }
}

namespace {

/// Deterministic tie-break among equal-preference routes: real routers break
/// ties with IGP distance, MED, and router-id — effectively uncorrelated
/// with ASN order across destinations.  Selecting the lowest-ASN neighbour
/// everywhere would instead send *every* tied destination through the same
/// provider, collapsing path diversity and hiding many links from every
/// vantage point.  A per-(node, destination, neighbour) hash spreads ties
/// the way real tie-breaking does while staying fully reproducible.
std::uint64_t tie_hash(Asn dest, Asn node, Asn neighbor) noexcept {
  std::uint64_t state = (static_cast<std::uint64_t>(dest.value()) << 32) ^
                        (static_cast<std::uint64_t>(node.value()) << 16) ^
                        neighbor.value();
  return asrank::util::splitmix64_next(state);
}

}  // namespace

RouteTable RouteSimulator::routes_to(Asn destination) const {
  const auto dest_it = index_.find(destination);
  if (dest_it == index_.end()) {
    throw std::invalid_argument("RouteSimulator: unknown destination AS");
  }
  const std::size_t dest_idx = dest_it->second;
  const std::size_t n = sorted_ases_.size();

  std::vector<std::uint32_t> cust_dist(n, kInf), peer_dist(n, kInf), prov_dist(n, kInf);
  std::vector<std::size_t> cust_parent(n, kNoParent), peer_parent(n, kNoParent),
      prov_parent(n, kNoParent);

  // ---- Phase 1: customer-class routes climb provider and sibling edges ----
  auto climb_customers = [&](std::queue<std::size_t>& queue) {
    while (!queue.empty()) {
      const std::size_t x = queue.front();
      queue.pop();
      auto relax = [&](std::size_t y) {
        const std::uint32_t cand = cust_dist[x] + 1;
        if (cand < cust_dist[y]) {
          cust_dist[y] = cand;
          cust_parent[y] = x;
          queue.push(y);
        } else if (cand == cust_dist[y] && cust_parent[y] != kNoParent &&
                   tie_hash(destination, sorted_ases_[y], sorted_ases_[x]) <
                       tie_hash(destination, sorted_ases_[y], sorted_ases_[cust_parent[y]])) {
          cust_parent[y] = x;  // same length, preferred tie-break; no re-queue
        }
      };
      for (const std::size_t y : providers_[x]) relax(y);
      for (const std::size_t y : siblings_[x]) relax(y);
    }
  };
  {
    std::queue<std::size_t> queue;
    cust_dist[dest_idx] = 0;
    queue.push(dest_idx);
    climb_customers(queue);
  }

  // ---- Phase 2: one peer hop from every AS holding a customer-class route --
  auto spread_peers = [&] {
    for (std::size_t x = 0; x < n; ++x) {
      if (cust_dist[x] == kInf) continue;
      for (const std::size_t y : peers_[x]) {
        const std::uint32_t cand = cust_dist[x] + 1;
        if (cand < peer_dist[y]) {
          peer_dist[y] = cand;
          peer_parent[y] = x;
        } else if (cand == peer_dist[y] && peer_parent[y] != kNoParent &&
                   tie_hash(destination, sorted_ases_[y], sorted_ases_[x]) <
                       tie_hash(destination, sorted_ases_[y], sorted_ases_[peer_parent[y]])) {
          peer_parent[y] = x;
        }
      }
    }
  };
  spread_peers();

  // ---- Phase 3: provider-class routes descend customer and sibling edges --
  auto descend_providers = [&] {
    // Multi-source Dijkstra; a node expands with the length of its SELECTED
    // route (class preference first, length second — local-pref beats path
    // length in BGP), because what an AS exports to customers is its
    // selected best route, even when an unselected route would be shorter.
    using Item = std::pair<std::uint32_t, std::size_t>;  // (distance, node)
    std::priority_queue<Item, std::vector<Item>, std::greater<>> heap;
    auto selected_len = [&](std::size_t x) {
      if (cust_dist[x] != kInf) return cust_dist[x];
      if (peer_dist[x] != kInf) return peer_dist[x];
      return prov_dist[x];
    };
    for (std::size_t x = 0; x < n; ++x) {
      if (selected_len(x) != kInf) heap.emplace(selected_len(x), x);
    }
    while (!heap.empty()) {
      const auto [dist, x] = heap.top();
      heap.pop();
      if (dist != selected_len(x)) continue;  // stale entry
      auto relax = [&](std::size_t y) {
        // A provider-class route matters only where no customer/peer route
        // exists: any such route wins selection regardless of length.
        if (cust_dist[y] != kInf || peer_dist[y] != kInf) return;
        const std::uint32_t cand = dist + 1;
        if (cand < prov_dist[y]) {
          prov_dist[y] = cand;
          prov_parent[y] = x;
          heap.emplace(cand, y);
        } else if (cand == prov_dist[y] && prov_parent[y] != kNoParent &&
                   tie_hash(destination, sorted_ases_[y], sorted_ases_[x]) <
                       tie_hash(destination, sorted_ases_[y], sorted_ases_[prov_parent[y]])) {
          prov_parent[y] = x;
        }
      };
      for (const std::size_t y : customers_[x]) relax(y);
      for (const std::size_t y : siblings_[x]) relax(y);
    }
  };
  descend_providers();

  // ---- Route leaks --------------------------------------------------------
  // One leak round: each leaker whose SELECTED route is peer- or
  // provider-learned re-exports it to its providers, who accept it as a
  // customer-class route (local pref beats the shorter legitimate path —
  // exactly why real leaks spread).  The leaked routes then climb normally
  // and the peer/provider classes are rebuilt on top of them.
  if (!leaker_idx_.empty()) {
    std::queue<std::size_t> queue;
    for (const std::size_t x : leaker_idx_) {
      if (cust_dist[x] != kInf) continue;  // customer routes export normally
      const std::uint32_t len = peer_dist[x] != kInf ? peer_dist[x] : prov_dist[x];
      if (len == kInf) continue;  // leaker cannot reach the destination
      for (const std::size_t y : providers_[x]) {
        if (cust_dist[y] == kInf) {
          cust_dist[y] = len + 1;
          cust_parent[y] = x;
          queue.push(y);
        }
      }
    }
    if (!queue.empty()) {
      // The leaked route climbs like a customer route but only fills gaps:
      // an AS holding a legitimate customer route keeps it (that route is
      // loop-free by construction; letting the leak displace it could form
      // next-hop cycles, which real BGP's loop prevention would reject).
      while (!queue.empty()) {
        const std::size_t x = queue.front();
        queue.pop();
        auto relax = [&](std::size_t y) {
          if (cust_dist[y] != kInf) return;
          cust_dist[y] = cust_dist[x] + 1;
          cust_parent[y] = x;
          queue.push(y);
        };
        for (const std::size_t y : providers_[x]) relax(y);
        for (const std::size_t y : siblings_[x]) relax(y);
      }
      std::fill(peer_dist.begin(), peer_dist.end(), kInf);
      std::fill(peer_parent.begin(), peer_parent.end(), kNoParent);
      std::fill(prov_dist.begin(), prov_dist.end(), kInf);
      std::fill(prov_parent.begin(), prov_parent.end(), kNoParent);
      spread_peers();
      descend_providers();
    }
  }

  // ---- Selection ----------------------------------------------------------
  std::unordered_map<Asn, SelectedRoute> routes;
  routes.reserve(n);
  for (std::size_t x = 0; x < n; ++x) {
    SelectedRoute selected;
    if (cust_dist[x] != kInf) {
      selected.route_class = RouteClass::kCustomer;
      selected.length = cust_dist[x];
      if (cust_parent[x] != kNoParent) selected.next_hop = sorted_ases_[cust_parent[x]];
    } else if (peer_dist[x] != kInf) {
      selected.route_class = RouteClass::kPeer;
      selected.length = peer_dist[x];
      selected.next_hop = sorted_ases_[peer_parent[x]];
    } else if (prov_dist[x] != kInf) {
      selected.route_class = RouteClass::kProvider;
      selected.length = prov_dist[x];
      selected.next_hop = sorted_ases_[prov_parent[x]];
    } else {
      continue;  // unreachable
    }
    routes.emplace(sorted_ases_[x], selected);
  }
  return RouteTable(destination, std::move(routes));
}

}  // namespace asrank::bgpsim
