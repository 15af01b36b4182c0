#include "baselines/tor_local_search.h"

#include <algorithm>
#include <optional>
#include <span>
#include <unordered_set>
#include <vector>

#include "baselines/degree_heuristic.h"
#include "topology/interner.h"

namespace asrank::baselines {

namespace {

using paths::PathCorpus;
using paths::PathRecord;
using topology::AsnInterner;
using topology::kNoNode;
using topology::NodeId;

constexpr std::uint32_t kNoLink = 0xffffffffu;

constexpr std::uint64_t pack(NodeId a, NodeId b) noexcept {
  const NodeId lo = std::min(a, b);
  const NodeId hi = std::max(a, b);
  return static_cast<std::uint64_t>(lo) << 32 | hi;
}

/// Is the hop sequence valley-free under the labelling in `view`?
/// Grammar: c2p* p2p? p2c* (sibling links are transparent).
bool valley_free(const topology::TopologyView& view, std::span<const Asn> hops) {
  // States: 0 = ascending, 1 = peaked/descending.
  int state = 0;
  for (std::size_t i = 1; i < hops.size(); ++i) {
    const auto rel = view.relationship(hops[i - 1], hops[i]);
    if (!rel) return false;  // unlabelled link cannot satisfy the path
    switch (*rel) {
      case RelView::kProvider:  // moving up
        if (state != 0) return false;
        break;
      case RelView::kPeer:
        if (state != 0) return false;
        state = 1;
        break;
      case RelView::kCustomer:
        state = 1;
        break;
      case RelView::kSibling:
        break;
    }
  }
  return true;
}

}  // namespace

std::size_t TorLocalSearch::violations(const topology::TopologyView& view,
                                       const PathCorpus& corpus) {
  std::size_t count = 0;
  for (const PathRecord& record : corpus.records()) {
    if (!valley_free(view, record.path.hops())) ++count;
  }
  return count;
}

topology::TopologyView TorLocalSearch::infer(const PathCorpus& corpus) const {
  // The search state is dense: hop sequences are translated to NodeIds once,
  // each path stores the link-table index of every hop pair, and the
  // objective evaluation walks flat arrays against a per-link label byte
  // (hi's relationship seen from lo) — re-labelling a link during the climb
  // is a single store.
  std::vector<Asn> asns;
  for (const PathRecord& record : corpus.records()) {
    const auto hops = record.path.hops();
    asns.insert(asns.end(), hops.begin(), hops.end());
  }
  const AsnInterner interner = AsnInterner::from_asns(std::move(asns));

  // Deduplicate paths (identical rows add identical objective terms).
  std::vector<NodeId> path_flat;
  std::vector<std::size_t> path_off{0};
  {
    std::unordered_set<std::string> seen;
    std::vector<NodeId> ids;
    for (const PathRecord& record : corpus.records()) {
      if (!seen.insert(record.path.str()).second) continue;
      interner.translate(record.path.hops(), ids);
      path_flat.insert(path_flat.end(), ids.begin(), ids.end());
      path_off.push_back(path_flat.size());
    }
  }
  const std::size_t path_count = path_off.size() - 1;
  const auto hops_of = [&](std::size_t p) {
    return std::span<const NodeId>(path_flat).subspan(path_off[p],
                                                      path_off[p + 1] - path_off[p]);
  };

  // Link table over all distinct adjacent pairs (the links of the degree
  // tally's observed adjacency), sorted packed ids.  A pair with an AS0 hop
  // is no link.
  const auto is_link = [](NodeId a, NodeId b) { return a != b && a != kNoNode && b != kNoNode; };
  std::vector<std::uint64_t> link_keys;
  for (std::size_t p = 0; p < path_count; ++p) {
    const auto hops = hops_of(p);
    for (std::size_t i = 1; i < hops.size(); ++i) {
      if (is_link(hops[i - 1], hops[i])) link_keys.push_back(pack(hops[i - 1], hops[i]));
    }
  }
  std::sort(link_keys.begin(), link_keys.end());
  link_keys.erase(std::unique(link_keys.begin(), link_keys.end()), link_keys.end());
  const auto link_index = [&](NodeId a, NodeId b) -> std::uint32_t {
    const std::uint64_t key = pack(a, b);
    const auto it = std::lower_bound(link_keys.begin(), link_keys.end(), key);
    return static_cast<std::uint32_t>(it - link_keys.begin());
  };

  // Initial labelling: the degree-ratio rule, node degree being the number
  // of links an AS ends.
  std::vector<std::size_t> degree(interner.size(), 0);
  for (const std::uint64_t key : link_keys) {
    ++degree[key >> 32];
    ++degree[static_cast<NodeId>(key)];
  }
  std::vector<RelView> labels(link_keys.size());
  for (std::size_t i = 0; i < link_keys.size(); ++i) {
    labels[i] = degree_ratio_view(degree[link_keys[i] >> 32],
                                  degree[static_cast<NodeId>(link_keys[i])],
                                  config_.initial_provider_ratio);
  }

  // Per-hop link indices (kNoLink for a prepending repeat or an AS0 hop,
  // which no labelling can satisfy) and the link -> covering-paths index.
  std::vector<std::uint32_t> link_of_hop(path_flat.size(), kNoLink);
  std::vector<std::uint64_t> cover_pairs;  // (link, path) packed
  for (std::size_t p = 0; p < path_count; ++p) {
    const auto hops = hops_of(p);
    for (std::size_t i = 1; i < hops.size(); ++i) {
      if (!is_link(hops[i - 1], hops[i])) continue;
      const std::uint32_t link = link_index(hops[i - 1], hops[i]);
      link_of_hop[path_off[p] + i] = link;
      cover_pairs.push_back(static_cast<std::uint64_t>(link) << 32 | p);
    }
  }
  std::sort(cover_pairs.begin(), cover_pairs.end());
  cover_pairs.erase(std::unique(cover_pairs.begin(), cover_pairs.end()),
                    cover_pairs.end());
  std::vector<std::uint64_t> cover_off(link_keys.size() + 1, 0);
  for (const std::uint64_t pair : cover_pairs) ++cover_off[(pair >> 32) + 1];
  for (std::size_t i = 0; i < link_keys.size(); ++i) cover_off[i + 1] += cover_off[i];

  const auto path_valley_free = [&](std::size_t p) {
    const auto hops = hops_of(p);
    int state = 0;  // 0 = ascending, 1 = peaked/descending
    for (std::size_t i = 1; i < hops.size(); ++i) {
      const std::uint32_t link = link_of_hop[path_off[p] + i];
      if (link == kNoLink) return false;
      const RelView label = labels[link];
      if (label == RelView::kPeer) {
        if (state != 0) return false;
        state = 1;
        continue;
      }
      const bool left_is_lo = hops[i - 1] < hops[i];
      const bool descending = (label == RelView::kCustomer) == left_is_lo;
      if (descending) {
        state = 1;
      } else if (state != 0) {  // ascending after the peak
        return false;
      }
    }
    return true;
  };
  const auto local_violations = [&](std::size_t link) {
    std::size_t count = 0;
    for (std::uint64_t k = cover_off[link]; k < cover_off[link + 1]; ++k) {
      if (!path_valley_free(static_cast<std::size_t>(
              static_cast<std::uint32_t>(cover_pairs[k])))) {
        ++count;
      }
    }
    return count;
  };

  // Hill-climb: for each link, try the three labellings, keep the best
  // (ties keep the current labelling so passes terminate).  Links ascend in
  // packed-key order — the same order the legacy sweep derived from the
  // sorted AsGraph::links() snapshot.
  for (std::size_t pass = 0; pass < config_.max_passes; ++pass) {
    bool improved = false;
    for (std::size_t link = 0; link < link_keys.size(); ++link) {
      if (cover_off[link] == cover_off[link + 1]) continue;
      const RelView current = labels[link];

      std::size_t best_violations = local_violations(link);
      RelView best = current;
      // Candidate order mirrors the legacy sweep: both c2p orientations
      // first (relative to the current orientation), then p2p.
      RelView candidates[2];
      if (current == RelView::kCustomer) {
        candidates[0] = RelView::kProvider;
        candidates[1] = RelView::kPeer;
      } else if (current == RelView::kProvider) {
        candidates[0] = RelView::kCustomer;
        candidates[1] = RelView::kPeer;
      } else {
        candidates[0] = RelView::kCustomer;
        candidates[1] = RelView::kProvider;
      }
      for (const RelView candidate : candidates) {
        labels[link] = candidate;
        const std::size_t with_candidate = local_violations(link);
        if (with_candidate < best_violations) {
          best_violations = with_candidate;
          best = candidate;
          improved = true;
        }
      }
      labels[link] = best;
    }
    if (!improved) break;
  }

  return topology::TopologyView::from_link_table(interner, std::move(link_keys), labels);
}

}  // namespace asrank::baselines
