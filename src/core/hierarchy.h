// Hierarchy analysis over an inferred relationship graph: tier
// classification, transit path-length statistics, and "flattening" metrics.
// These support the paper's discussion sections (the shrinking transit
// hierarchy, the growing role of peering) and give downstream users the
// derived views CAIDA publishes alongside the as-rel files.
#pragma once

#include <cstddef>
#include <span>
#include <unordered_map>
#include <vector>

#include "asn/asn.h"
#include "topology/as_graph.h"
#include "topology/serialization.h"

namespace asrank::core {

/// Position of an AS in the inferred hierarchy.
enum class HierarchyTier : std::uint8_t {
  kClique,        ///< member of the inferred tier-1 clique
  kTransit,       ///< has customers and providers (resells transit)
  kLeafProvider,  ///< has customers but no providers (regional root outside clique)
  kStub,          ///< no customers
};

[[nodiscard]] constexpr std::string_view to_string(HierarchyTier tier) noexcept {
  switch (tier) {
    case HierarchyTier::kClique: return "clique";
    case HierarchyTier::kTransit: return "transit";
    case HierarchyTier::kLeafProvider: return "leaf-provider";
    case HierarchyTier::kStub: return "stub";
  }
  return "?";
}

struct HierarchySummary {
  std::unordered_map<Asn, HierarchyTier> tiers;
  std::size_t clique = 0;
  std::size_t transit = 0;
  std::size_t leaf_providers = 0;
  std::size_t stubs = 0;

  /// Average provider count over ASes that have any provider (multihoming).
  double mean_providers = 0.0;
  /// Fraction of all links that are p2p ("flatness" of the visible graph).
  double p2p_share = 0.0;
};

/// Classify every AS of `graph` given the inferred clique.
[[nodiscard]] HierarchySummary analyze_hierarchy(const AsGraph& graph,
                                                 const std::vector<Asn>& clique);

/// Depth of each AS: shortest provider-chain distance to a provider-free AS
/// (clique members and leaf providers are depth 0).  The maximum depth is
/// the height of the transit hierarchy.
[[nodiscard]] std::unordered_map<Asn, std::size_t> hierarchy_depths(const AsGraph& graph);

/// Jaccard similarity between two customer cones (used by rank-stability
/// analyses).  Inputs must be strictly ascending, as every ConeMap row is.
[[nodiscard]] double cone_jaccard(std::span<const Asn> a, std::span<const Asn> b);

/// Rank stability between two ranked AS lists (e.g. consecutive snapshots):
/// for each AS in both lists, the absolute rank change; summarized as the
/// mean over the top `top_n` ASes of `before`.
[[nodiscard]] double mean_rank_change(const std::vector<Asn>& before,
                                      const std::vector<Asn>& after, std::size_t top_n);

}  // namespace asrank::core
