// Immutable CSR view of a relationship-annotated AS graph.
//
// AsGraph is the right *construction* API — incremental, re-annotatable,
// keyed by raw ASN — but its hash-map-of-vectors layout is wrong for the
// read-dominated phases that follow construction: cone closure, valley-free
// sweeps, BFS, snapshot serialization.  TopologyView is the frozen
// counterpart: one AsnInterner defining a dense NodeId space plus flat
// compressed-sparse-row arrays.  Every view is built by one routine,
// from_sorted_links: count each row, take a prefix sum, and fill the rows
// in one pass over links sorted by (lower id, higher id), an order that
// leaves every row and sub-row ascending.  AsGraph::freeze() feeds it each
// AS's higher neighbours row by row; every inference algorithm feeds it its
// labelled link table through from_link_table, so an inference result is a
// view from the start and to_graph() is only for callers that need
// AsGraph's mutable, ASN-keyed API.
//
//   * Full adjacency: offsets[n+1] into neighbor/rel arrays, each row sorted
//     by neighbor id (== ascending ASN, since the interner is
//     order-preserving).  A relationship lookup is a binary search within
//     one contiguous row; a neighbor sweep is a linear scan.
//   * Directed sub-CSRs for the p2c digraph: providers(node) and
//     customers(node) as sorted spans, the substrate of cone closure
//     (descend customers) and path-to-clique BFS (ascend providers).
//   * Clique bitmap: O(1) membership tests without hashing.
//
// The row order and encoding deliberately coincide with the ASRK1 snapshot
// layout (sorted AS table, neighbor-sorted rows, RelView codes), so
// snapshot::build_snapshot can emit its sections from these arrays with a
// single id->ASN translation pass and no re-hashing or re-sorting.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "topology/as_graph.h"
#include "topology/interner.h"
#include "topology/relationship.h"

namespace asrank::topology {

class TopologyView {
 public:
  TopologyView() = default;

  /// Freeze `graph` (and optionally a clique member list) into CSR form.
  /// Clique members absent from the graph are ignored.
  [[nodiscard]] static TopologyView freeze(const AsGraph& graph,
                                           std::span<const Asn> clique = {});

  /// The view over `interner`'s ASes with one link per key: `keys[k]` packs
  /// the ids lo < hi as lo << 32 | hi, strictly ascending, and `lo_views[k]`
  /// is hi's relationship seen from lo (kCustomer: lo provides).  No clique.
  [[nodiscard]] static TopologyView from_sorted_links(AsnInterner interner,
                                                      std::span<const std::uint64_t> keys,
                                                      std::span<const RelView> lo_views);

  /// from_sorted_links over only the ASes of `ids` that end some link in
  /// `keys` (ids in `ids`' space): the others are dropped and the rest
  /// renumbered in order, which keeps the keys ascending.  So the AS table
  /// is exactly the link endpoints, as an AsGraph built link by link has.
  /// The inference algorithms finish through it.
  [[nodiscard]] static TopologyView from_link_table(const AsnInterner& ids,
                                                    std::vector<std::uint64_t> keys,
                                                    std::span<const RelView> lo_views);

  /// The same graph as a mutable AsGraph: links added in key order, so two
  /// equal views give AsGraphs built by the same calls.
  [[nodiscard]] AsGraph to_graph() const;

  /// Calls f(lo, hi, view) once per link in key order (lo < hi, ascending):
  /// `view` is hi's relationship seen from lo, as from_sorted_links takes it.
  template <typename F>
  void for_each_link(F&& f) const {
    for (NodeId node = 0; node < node_count(); ++node) {
      const auto nbrs = neighbors(node);
      const auto codes = rels(node);
      // Rows ascend, so the higher neighbours are the row's tail.
      for (auto i = static_cast<std::size_t>(
               std::upper_bound(nbrs.begin(), nbrs.end(), node) - nbrs.begin());
           i < nbrs.size(); ++i) {
        f(node, nbrs[i], static_cast<RelView>(codes[i]));
      }
    }
  }

  /// Every link by ASN, in key order: the order and orientation
  /// AsGraph::links() gives for the same graph.
  [[nodiscard]] std::vector<Link> links() const;

  /// Links per type, as AsGraph::link_counts() counts them.
  [[nodiscard]] AsGraph::LinkCounts link_counts() const noexcept;

  /// ASes with no providers and at least one customer, ascending.
  [[nodiscard]] std::vector<Asn> provider_free_ases() const;

  [[nodiscard]] const AsnInterner& interner() const noexcept { return interner_; }
  /// Every AS ascending; the index is the NodeId.
  [[nodiscard]] std::span<const Asn> ases() const noexcept { return interner_.asns(); }
  [[nodiscard]] std::size_t node_count() const noexcept { return interner_.size(); }
  [[nodiscard]] std::size_t link_count() const noexcept { return adj_nbr_.size() / 2; }

  // ----------------------------------------------------------- adjacency --

  /// Neighbors of `node`, ascending by id.
  [[nodiscard]] std::span<const NodeId> neighbors(NodeId node) const noexcept {
    return row(adj_off_, adj_nbr_, node);
  }

  /// RelView codes parallel to neighbors(node).
  [[nodiscard]] std::span<const std::uint8_t> rels(NodeId node) const noexcept {
    return row(adj_off_, adj_rel_, node);
  }

  [[nodiscard]] std::size_t degree(NodeId node) const noexcept {
    return adj_off_[node + 1] - adj_off_[node];
  }

  /// Relationship of `neighbor` from `node`'s perspective (O(log degree)).
  [[nodiscard]] std::optional<RelView> relationship(NodeId node, NodeId neighbor) const;
  /// Same by ASN: nullopt unless both are nodes and linked.
  [[nodiscard]] std::optional<RelView> relationship(Asn as, Asn neighbor) const;

  // ------------------------------------------------------------ p2c CSRs --

  [[nodiscard]] std::span<const NodeId> providers(NodeId node) const noexcept {
    return row(prov_off_, prov_nbr_, node);
  }
  [[nodiscard]] std::span<const NodeId> customers(NodeId node) const noexcept {
    return row(cust_off_, cust_nbr_, node);
  }

  // --------------------------------------------------------------- clique --

  [[nodiscard]] bool in_clique(NodeId node) const noexcept {
    return (clique_bits_[node >> 6] >> (node & 63)) & 1ULL;
  }
  /// Clique members ascending by id.
  [[nodiscard]] std::span<const NodeId> clique() const noexcept { return clique_; }

  // ----------------------------------------------- raw arrays (snapshot) --

  [[nodiscard]] std::span<const std::uint64_t> adjacency_offsets() const noexcept {
    return adj_off_;
  }
  [[nodiscard]] std::span<const NodeId> adjacency_neighbors() const noexcept {
    return adj_nbr_;
  }
  [[nodiscard]] std::span<const std::uint8_t> adjacency_rels() const noexcept {
    return adj_rel_;
  }

 private:
  template <typename T>
  [[nodiscard]] std::span<const T> row(const std::vector<std::uint64_t>& offsets,
                                       const std::vector<T>& flat,
                                       NodeId node) const noexcept {
    return std::span<const T>(flat).subspan(offsets[node],
                                            offsets[node + 1] - offsets[node]);
  }

  AsnInterner interner_;

  std::vector<std::uint64_t> adj_off_;   ///< n+1
  std::vector<NodeId> adj_nbr_;          ///< ascending per row
  std::vector<std::uint8_t> adj_rel_;    ///< RelView codes, parallel to adj_nbr_

  std::vector<std::uint64_t> prov_off_;  ///< n+1
  std::vector<NodeId> prov_nbr_;         ///< ascending per row
  std::vector<std::uint64_t> cust_off_;  ///< n+1
  std::vector<NodeId> cust_nbr_;         ///< ascending per row

  std::vector<std::uint64_t> clique_bits_;  ///< ceil(n/64) words
  std::vector<NodeId> clique_;              ///< ascending
};

}  // namespace asrank::topology
