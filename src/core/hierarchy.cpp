#include "core/hierarchy.h"

#include <algorithm>
#include <cmath>
#include <iterator>
#include <queue>

namespace asrank::core {

HierarchySummary analyze_hierarchy(const AsGraph& graph, const std::vector<Asn>& clique) {
  HierarchySummary summary;
  std::size_t provider_sum = 0;
  std::size_t multihomed_bases = 0;
  for (const Asn as : graph.ases()) {
    HierarchyTier tier;
    const bool has_customers = !graph.customers(as).empty();
    const bool has_providers = !graph.providers(as).empty();
    if (std::binary_search(clique.begin(), clique.end(), as)) {
      tier = HierarchyTier::kClique;
      ++summary.clique;
    } else if (!has_customers) {
      tier = HierarchyTier::kStub;
      ++summary.stubs;
    } else if (has_providers) {
      tier = HierarchyTier::kTransit;
      ++summary.transit;
    } else {
      tier = HierarchyTier::kLeafProvider;
      ++summary.leaf_providers;
    }
    summary.tiers.emplace(as, tier);
    if (has_providers) {
      provider_sum += graph.providers(as).size();
      ++multihomed_bases;
    }
  }
  if (multihomed_bases > 0) {
    summary.mean_providers =
        static_cast<double>(provider_sum) / static_cast<double>(multihomed_bases);
  }
  const auto counts = graph.link_counts();
  const std::size_t classified = counts.p2c + counts.p2p;
  if (classified > 0) {
    summary.p2p_share = static_cast<double>(counts.p2p) / static_cast<double>(classified);
  }
  return summary;
}

std::unordered_map<Asn, std::size_t> hierarchy_depths(const AsGraph& graph) {
  // Multi-source BFS down customer links from every provider-free AS.
  std::unordered_map<Asn, std::size_t> depth;
  std::queue<Asn> queue;
  for (const Asn as : graph.ases()) {
    if (graph.providers(as).empty()) {
      depth.emplace(as, 0);
      queue.push(as);
    }
  }
  while (!queue.empty()) {
    const Asn as = queue.front();
    queue.pop();
    for (const Asn customer : graph.customers(as)) {
      if (depth.emplace(customer, depth.at(as) + 1).second) queue.push(customer);
    }
  }
  return depth;
}

double cone_jaccard(std::span<const Asn> a, std::span<const Asn> b) {
  if (a.empty() && b.empty()) return 1.0;
  std::vector<Asn> common;
  std::set_intersection(a.begin(), a.end(), b.begin(), b.end(), std::back_inserter(common));
  return static_cast<double>(common.size()) /
         static_cast<double>(a.size() + b.size() - common.size());
}

double mean_rank_change(const std::vector<Asn>& before, const std::vector<Asn>& after,
                        std::size_t top_n) {
  std::unordered_map<Asn, std::size_t> after_rank;
  for (std::size_t i = 0; i < after.size(); ++i) after_rank.emplace(after[i], i);
  double total = 0.0;
  std::size_t counted = 0;
  const std::size_t limit = std::min(top_n, before.size());
  for (std::size_t i = 0; i < limit; ++i) {
    const auto it = after_rank.find(before[i]);
    if (it == after_rank.end()) continue;
    total += std::abs(static_cast<double>(it->second) - static_cast<double>(i));
    ++counted;
  }
  return counted == 0 ? 0.0 : total / static_cast<double>(counted);
}

}  // namespace asrank::core
