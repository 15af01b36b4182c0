#include "baselines/gao.h"

#include <algorithm>
#include <vector>

#include "core/degrees.h"
#include "paths/arena.h"
#include "topology/interner.h"

namespace asrank::baselines {

namespace {

using paths::PathCorpus;
using topology::AsnInterner;
using topology::kNoNode;
using topology::NodeId;

constexpr std::uint32_t kNoLink = 0xffffffffu;

constexpr std::uint64_t pack(NodeId a, NodeId b) noexcept {
  const NodeId lo = std::min(a, b);
  const NodeId hi = std::max(a, b);
  return static_cast<std::uint64_t>(lo) << 32 | hi;
}

}  // namespace

topology::TopologyView GaoInference::infer(const PathCorpus& corpus) const {
  // Every record verbatim (nothing stripped, compressed or dropped but empty
  // paths), each distinct path stored once in NodeId space.
  paths::SanitizerConfig verbatim;
  verbatim.strip_ixp_asns = false;
  verbatim.compress_prepending = false;
  verbatim.discard_loops = false;
  verbatim.discard_reserved = false;
  verbatim.dedup = false;
  const paths::PathArena arena = paths::PathArena::build(corpus, verbatim);

  // Phase 1: node degrees, as the degree tally's CSR row lengths.
  const core::Degrees degrees = core::Degrees::compute(arena);
  const AsnInterner& interner = degrees.interner();
  const core::ObservedAdjacency& adjacency = degrees.adjacency();
  const auto degree = [&](NodeId id) -> std::size_t {
    return id == kNoNode ? 0 : adjacency.neighbors(id).size();
  };

  // The directed-transit table: sorted packed (lo, hi) id pairs (the
  // adjacency rows' upper triangle) with per-direction counts alongside.
  std::vector<std::uint64_t> link_keys;
  for (NodeId node = 0; node < interner.size(); ++node) {
    for (const NodeId other : adjacency.neighbors(node)) {
      if (other > node) link_keys.push_back(pack(node, other));
    }
  }
  const auto link_index = [&](NodeId a, NodeId b) -> std::uint32_t {
    const std::uint64_t key = pack(a, b);
    const auto it = std::lower_bound(link_keys.begin(), link_keys.end(), key);
    if (it == link_keys.end() || *it != key) return kNoLink;
    return static_cast<std::uint32_t>(it - link_keys.begin());
  };
  std::vector<std::uint32_t> lo_provides(link_keys.size(), 0);
  std::vector<std::uint32_t> hi_provides(link_keys.size(), 0);

  // Each path's top provider: its first highest-degree hop.
  std::vector<std::size_t> tops(arena.path_count(), 0);
  for (std::size_t p = 0; p < arena.path_count(); ++p) {
    const auto ids = arena.path(p);
    for (std::size_t i = 1; i < ids.size(); ++i) {
      if (degree(ids[i]) > degree(ids[tops[p]])) tops[p] = i;
    }
  }

  // Phase 2: uphill/downhill transit counts around each path's top provider,
  // once per distinct path, weighted by the records carrying it.
  const auto count_transit = [&](NodeId provider, NodeId customer, std::uint32_t weight) {
    const std::uint32_t link = link_index(provider, customer);
    if (link == kNoLink) return;
    (provider < customer ? lo_provides : hi_provides)[link] += weight;
  };
  for (std::size_t p = 0; p < arena.path_count(); ++p) {
    const auto ids = arena.path(p);
    for (std::size_t j = 1; j < ids.size(); ++j) {
      if (ids[j - 1] == ids[j]) continue;
      if (j <= tops[p]) {
        count_transit(ids[j], ids[j - 1], arena.multiplicity(p));  // uphill: right provides
      } else {
        count_transit(ids[j - 1], ids[j], arena.multiplicity(p));  // downhill: left provides
      }
    }
  }

  // Phase 3: transit / sibling assignment, as hi's relationship seen from lo.
  std::vector<RelView> lo_views(link_keys.size());
  for (std::size_t i = 0; i < link_keys.size(); ++i) {
    const bool lo_transits = lo_provides[i] > config_.sibling_threshold;
    const bool hi_transits = hi_provides[i] > config_.sibling_threshold;
    if (lo_transits && hi_transits) {
      lo_views[i] = RelView::kSibling;
    } else if (lo_provides[i] != hi_provides[i]) {
      lo_views[i] = lo_provides[i] > hi_provides[i] ? RelView::kCustomer : RelView::kProvider;
    } else {
      // Equal small evidence both ways: higher degree provides.
      const NodeId lo = static_cast<NodeId>(link_keys[i] >> 32);
      const NodeId hi = static_cast<NodeId>(link_keys[i]);
      lo_views[i] = degree(lo) >= degree(hi) ? RelView::kCustomer : RelView::kProvider;
    }
  }

  // Phase 4: peering around path tops.
  for (const paths::ArenaRecord& record : arena.records()) {
    const auto ids = arena.path(record.path);
    if (ids.size() < 2) continue;
    const std::size_t top = tops[record.path];
    const auto consider = [&](NodeId a, NodeId b) {
      if (a == b) return;
      const std::uint32_t link = link_index(a, b);
      if (link == kNoLink) return;
      // Not peering if either direction shows repeated transit evidence.
      if (lo_provides[link] > config_.sibling_threshold ||
          hi_provides[link] > config_.sibling_threshold) {
        return;
      }
      const double da = static_cast<double>(std::max<std::size_t>(degree(a), 1));
      const double db = static_cast<double>(std::max<std::size_t>(degree(b), 1));
      const double ratio = da > db ? da / db : db / da;
      if (ratio <= config_.peering_degree_ratio) lo_views[link] = RelView::kPeer;
    };
    if (top > 0) consider(ids[top - 1], ids[top]);
    if (top + 1 < ids.size()) consider(ids[top], ids[top + 1]);
  }

  return topology::TopologyView::from_link_table(interner, std::move(link_keys), lo_views);
}

}  // namespace asrank::baselines
