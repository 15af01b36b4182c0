#include "topology/topology_view.h"

#include <algorithm>

namespace asrank::topology {

TopologyView TopologyView::freeze(const AsGraph& graph, std::span<const Asn> clique) {
  // Each AS's higher neighbours, sorted, in ascending AS order: the packed
  // id pairs come out strictly ascending without a global sort (the
  // interner preserves ASN order).
  AsnInterner interner = AsnInterner::from_sorted_unique(graph.ases());
  std::vector<std::uint64_t> keys;
  std::vector<RelView> lo_views;
  keys.reserve(graph.link_count());
  lo_views.reserve(graph.link_count());
  std::vector<std::pair<NodeId, RelView>> row;
  for (NodeId node = 0; node < interner.size(); ++node) {
    const Asn as = interner.asn_of(node);
    row.clear();
    const auto add = [&](std::span<const Asn> neighbors, RelView view) {
      for (const Asn neighbor : neighbors) {
        if (as < neighbor) row.emplace_back(interner.id_of(neighbor), view);
      }
    };
    add(graph.providers(as), RelView::kProvider);
    add(graph.customers(as), RelView::kCustomer);
    add(graph.peers(as), RelView::kPeer);
    add(graph.siblings(as), RelView::kSibling);
    std::sort(row.begin(), row.end());
    for (const auto& [id, view] : row) {
      keys.push_back(std::uint64_t{node} << 32 | id);
      lo_views.push_back(view);
    }
  }
  TopologyView view = from_sorted_links(std::move(interner), keys, lo_views);

  for (const Asn member : clique) {
    const NodeId id = view.interner_.id_of(member);
    if (id == kNoNode) continue;
    if (!view.in_clique(id)) view.clique_.push_back(id);
    view.clique_bits_[id >> 6] |= 1ULL << (id & 63);
  }
  std::sort(view.clique_.begin(), view.clique_.end());
  return view;
}

TopologyView TopologyView::from_sorted_links(AsnInterner interner,
                                             std::span<const std::uint64_t> keys,
                                             std::span<const RelView> lo_views) {
  TopologyView view;
  view.interner_ = std::move(interner);
  const std::size_t n = view.interner_.size();
  view.adj_off_.assign(n + 1, 0);
  view.prov_off_.assign(n + 1, 0);
  view.cust_off_.assign(n + 1, 0);
  view.clique_bits_.assign((n + 63) / 64, 0);

  const auto lo_of = [&](std::size_t k) { return static_cast<NodeId>(keys[k] >> 32); };
  const auto hi_of = [&](std::size_t k) { return static_cast<NodeId>(keys[k]); };
  // The provider and customer of link k, kNoNode for p2p and s2s.
  const auto p2c = [&](std::size_t k) -> std::pair<NodeId, NodeId> {
    switch (lo_views[k]) {
      case RelView::kCustomer: return {lo_of(k), hi_of(k)};
      case RelView::kProvider: return {hi_of(k), lo_of(k)};
      default: return {kNoNode, kNoNode};
    }
  };

  // Row sizes, then offsets.
  for (std::size_t k = 0; k < keys.size(); ++k) {
    ++view.adj_off_[lo_of(k) + 1];
    ++view.adj_off_[hi_of(k) + 1];
    const auto [provider, customer] = p2c(k);
    if (provider == kNoNode) continue;
    ++view.cust_off_[provider + 1];
    ++view.prov_off_[customer + 1];
  }
  for (std::size_t i = 0; i < n; ++i) {
    view.adj_off_[i + 1] += view.adj_off_[i];
    view.prov_off_[i + 1] += view.prov_off_[i];
    view.cust_off_[i + 1] += view.cust_off_[i];
  }

  // One fill pass in key order.  Row x receives its lower neighbours (keys
  // (y, x), ascending y) before its higher ones (keys (x, z), ascending z),
  // so every row and sub-row comes out ascending with no sort.
  view.adj_nbr_.resize(view.adj_off_[n]);
  view.adj_rel_.resize(view.adj_off_[n]);
  view.prov_nbr_.resize(view.prov_off_[n]);
  view.cust_nbr_.resize(view.cust_off_[n]);
  std::vector<std::uint64_t> adj_at(view.adj_off_.begin(), view.adj_off_.end() - 1);
  std::vector<std::uint64_t> prov_at(view.prov_off_.begin(), view.prov_off_.end() - 1);
  std::vector<std::uint64_t> cust_at(view.cust_off_.begin(), view.cust_off_.end() - 1);
  for (std::size_t k = 0; k < keys.size(); ++k) {
    const NodeId lo = lo_of(k), hi = hi_of(k);
    view.adj_nbr_[adj_at[lo]] = hi;
    view.adj_rel_[adj_at[lo]++] = static_cast<std::uint8_t>(lo_views[k]);
    view.adj_nbr_[adj_at[hi]] = lo;
    view.adj_rel_[adj_at[hi]++] = static_cast<std::uint8_t>(inverse(lo_views[k]));
    const auto [provider, customer] = p2c(k);
    if (provider == kNoNode) continue;
    view.cust_nbr_[cust_at[provider]++] = customer;
    view.prov_nbr_[prov_at[customer]++] = provider;
  }
  return view;
}

TopologyView TopologyView::from_link_table(const AsnInterner& ids,
                                           std::vector<std::uint64_t> keys,
                                           std::span<const RelView> lo_views) {
  std::vector<NodeId> compact(ids.size(), kNoNode);
  for (const std::uint64_t key : keys) {
    compact[key >> 32] = compact[static_cast<NodeId>(key)] = 0;
  }
  std::vector<Asn> asns;
  for (NodeId id = 0; id < compact.size(); ++id) {
    if (compact[id] == kNoNode) continue;
    compact[id] = static_cast<NodeId>(asns.size());
    asns.push_back(ids.asn_of(id));
  }
  for (std::uint64_t& key : keys) {
    key = std::uint64_t{compact[key >> 32]} << 32 | compact[static_cast<NodeId>(key)];
  }
  return from_sorted_links(AsnInterner::from_sorted_unique(std::move(asns)), keys, lo_views);
}

AsGraph TopologyView::to_graph() const {
  AsGraph graph;
  for (NodeId node = 0; node < node_count(); ++node) {
    if (degree(node) == 0) graph.add_as(interner_.asn_of(node));
  }
  for (const Link& link : links()) graph.set_relationship(link.a, link.b, link.type);
  return graph;
}

std::vector<Link> TopologyView::links() const {
  std::vector<Link> out;
  out.reserve(link_count());
  for_each_link([&](NodeId lo, NodeId hi, RelView view) {
    const Asn a = interner_.asn_of(lo), b = interner_.asn_of(hi);
    switch (view) {
      case RelView::kCustomer: out.push_back({a, b, LinkType::kP2C}); break;
      case RelView::kProvider: out.push_back({b, a, LinkType::kP2C}); break;
      case RelView::kPeer: out.push_back({a, b, LinkType::kP2P}); break;
      case RelView::kSibling: out.push_back({a, b, LinkType::kS2S}); break;
    }
  });
  return out;
}

AsGraph::LinkCounts TopologyView::link_counts() const noexcept {
  AsGraph::LinkCounts counts;
  counts.p2c = cust_nbr_.size();
  for (const std::uint8_t code : adj_rel_) {
    counts.p2p += static_cast<RelView>(code) == RelView::kPeer;
    counts.s2s += static_cast<RelView>(code) == RelView::kSibling;
  }
  counts.p2p /= 2;  // each link sits in two rows
  counts.s2s /= 2;
  return counts;
}

std::vector<Asn> TopologyView::provider_free_ases() const {
  std::vector<Asn> out;
  for (NodeId node = 0; node < node_count(); ++node) {
    if (providers(node).empty() && !customers(node).empty()) out.push_back(interner_.asn_of(node));
  }
  return out;
}

std::optional<RelView> TopologyView::relationship(NodeId node, NodeId neighbor) const {
  const auto nbrs = neighbors(node);
  const auto it = std::lower_bound(nbrs.begin(), nbrs.end(), neighbor);
  if (it == nbrs.end() || *it != neighbor) return std::nullopt;
  return static_cast<RelView>(
      adj_rel_[adj_off_[node] + static_cast<std::size_t>(it - nbrs.begin())]);
}

std::optional<RelView> TopologyView::relationship(Asn as, Asn neighbor) const {
  const NodeId node = interner_.id_of(as);
  const NodeId other = interner_.id_of(neighbor);
  if (node == kNoNode || other == kNoNode) return std::nullopt;
  return relationship(node, other);
}

}  // namespace asrank::topology
