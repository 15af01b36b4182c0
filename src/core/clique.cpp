#include "core/clique.h"

#include <algorithm>

namespace asrank::core {

namespace {

using topology::AsnInterner;
using topology::kNoNode;
using topology::NodeId;

/// Bron–Kerbosch with pivoting over a dense index adjacency matrix.  Emits
/// each maximal clique as a sorted list of vertex indices.
void bron_kerbosch(const std::vector<std::vector<bool>>& adj, std::vector<std::size_t>& r,
                   std::vector<std::size_t> p, std::vector<std::size_t> x,
                   std::vector<std::vector<std::size_t>>& out) {
  if (p.empty() && x.empty()) {
    std::vector<std::size_t> clique = r;
    std::sort(clique.begin(), clique.end());
    out.push_back(std::move(clique));
    return;
  }
  // Pivot: vertex of P ∪ X with most neighbours in P.
  std::size_t pivot = 0;
  std::size_t best = 0;
  bool have_pivot = false;
  for (const auto& set : {p, x}) {
    for (const std::size_t u : set) {
      std::size_t count = 0;
      for (const std::size_t v : p) {
        if (adj[u][v]) ++count;
      }
      if (!have_pivot || count > best) {
        pivot = u;
        best = count;
        have_pivot = true;
      }
    }
  }
  std::vector<std::size_t> candidates;
  for (const std::size_t v : p) {
    if (!adj[pivot][v]) candidates.push_back(v);
  }
  for (const std::size_t v : candidates) {
    r.push_back(v);
    std::vector<std::size_t> p_next, x_next;
    for (const std::size_t u : p) {
      if (adj[v][u]) p_next.push_back(u);
    }
    for (const std::size_t u : x) {
      if (adj[v][u]) x_next.push_back(u);
    }
    bron_kerbosch(adj, r, std::move(p_next), std::move(x_next), out);
    r.pop_back();
    p.erase(std::remove(p.begin(), p.end(), v), p.end());
    x.push_back(v);
  }
}

}  // namespace

std::vector<std::vector<NodeId>> detail::maximal_cliques(const ObservedAdjacency& adjacency,
                                                         const std::vector<NodeId>& vertices) {
  const std::size_t n = vertices.size();
  std::vector<std::vector<bool>> adj(n, std::vector<bool>(n, false));
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      if (adjacency.adjacent(vertices[i], vertices[j])) adj[i][j] = adj[j][i] = true;
    }
  }
  std::vector<std::size_t> p(n);
  for (std::size_t i = 0; i < n; ++i) p[i] = i;
  std::vector<std::size_t> r;
  std::vector<std::vector<std::size_t>> found;
  bron_kerbosch(adj, r, std::move(p), {}, found);
  std::vector<std::vector<NodeId>> out;
  for (const auto& indices : found) {
    std::vector<NodeId> clique;
    clique.reserve(indices.size());
    for (const std::size_t i : indices) clique.push_back(vertices[i]);
    std::sort(clique.begin(), clique.end());
    out.push_back(std::move(clique));
  }
  return out;
}

std::vector<std::uint32_t> detail::paths_by_origin(const paths::PathArena& arena) {
  // Counting sort on the origin id; kNoNode (an AS0 origin) is bucket n.
  const std::size_t n = arena.interner().size();
  const auto bucket = [&](std::size_t p) -> std::size_t {
    const NodeId origin = arena.path(p).back();
    return origin == kNoNode ? n : origin;
  };
  std::vector<std::uint32_t> start(n + 2, 0);
  for (std::size_t p = 0; p < arena.path_count(); ++p) {
    if (arena.path(p).size() >= 3) ++start[bucket(p) + 1];
  }
  for (std::size_t b = 0; b <= n; ++b) start[b + 1] += start[b];
  std::vector<std::uint32_t> out(start[n + 1]);
  for (std::size_t p = 0; p < arena.path_count(); ++p) {
    if (arena.path(p).size() >= 3) out[start[bucket(p)]++] = static_cast<std::uint32_t>(p);
  }
  return out;
}

std::vector<std::uint32_t> detail::customer_evidence(const paths::PathArena& arena,
                                                     std::span<const std::uint32_t> by_origin,
                                                     std::span<const NodeId> members) {
  const std::size_t n = arena.interner().size();
  std::vector<bool> member(n, false);
  for (const NodeId m : members) member[m] = true;
  const auto in = [&](NodeId id) { return id != kNoNode && member[id]; };

  // Paths arrive grouped by origin, so a node counts one witness per group:
  // counted[v] is the last group (numbered from 1) that counted v, 0 if none.
  std::vector<std::uint32_t> witnesses(n, 0);
  std::vector<std::uint32_t> counted(n, 0);
  std::uint32_t group = 0;
  NodeId group_origin = kNoNode;
  const auto witness = [&](NodeId v) {
    if (counted[v] == group) return;
    counted[v] = group;
    ++witnesses[v];
  };
  for (const std::uint32_t p : by_origin) {
    const auto ids = arena.path(p);
    if (group == 0 || ids.back() != group_origin) {
      ++group;
      group_origin = ids.back();
    }
    for (std::size_t i = 0; i + 2 < ids.size(); ++i) {
      const bool first_in = in(ids[i]);
      const bool mid_in = in(ids[i + 1]);
      const bool last_in = in(ids[i + 2]);
      if (first_in && mid_in && !last_in && ids[i + 2] != kNoNode) witness(ids[i + 2]);
      if (mid_in && last_in && !first_in && ids[i] != kNoNode) witness(ids[i]);
      if (first_in && last_in && ids[i + 1] != kNoNode) witness(ids[i + 1]);  // sandwich
    }
  }
  return witnesses;
}

std::vector<Asn> infer_clique(const paths::PathArena& arena, const Degrees& degrees,
                              const CliqueConfig& config) {
  const auto& ranked = degrees.ranked();
  if (ranked.empty()) return {};
  const AsnInterner& interner = degrees.interner();
  const std::size_t n = interner.size();
  const ObservedAdjacency& adjacency = degrees.adjacency();

  // Ranked ASes all carry node degree > 0, so they are always interned.
  std::vector<NodeId> ranked_ids;
  ranked_ids.reserve(ranked.size());
  for (const Asn as : ranked) ranked_ids.push_back(interner.id_of(as));

  const std::size_t seed_size = std::min(config.seed_size, ranked_ids.size());

  // Iterated Bron–Kerbosch: observed adjacency alone cannot distinguish a
  // tier-1 peer from a large customer of two tier-1s, so after each clique
  // candidate we test every member against the valley-free customer
  // evidence and eject the ones proven to buy transit from the rest,
  // removing them from the seed and retrying.
  std::vector<bool> banned(n, false);
  std::vector<NodeId> best;
  std::vector<std::uint32_t> evidence(n, 0);  // customer evidence against `best`
  const std::vector<std::uint32_t> by_origin =
      config.reject_customer_evidence ? detail::paths_by_origin(arena)
                                      : std::vector<std::uint32_t>{};
  for (int iteration = 0; iteration < 8; ++iteration) {
    std::vector<NodeId> seed;
    for (std::size_t i = 0; i < ranked_ids.size() && seed.size() < seed_size; ++i) {
      if (!banned[ranked_ids[i]]) seed.push_back(ranked_ids[i]);
    }
    if (seed.empty()) break;

    // Largest maximal clique within the seed; ties broken toward the
    // lexicographically smallest member set for determinism.  Anchoring on
    // the single top-ranked AS (as a literal reading of the paper suggests)
    // is fragile when a non-tier-1 AS tops the transit-degree ranking under
    // sparse vantage-point coverage; the customer-evidence iteration below
    // ejects intruders either way.
    best.clear();
    for (auto& clique : detail::maximal_cliques(adjacency, seed)) {
      if (clique.size() > best.size() || (clique.size() == best.size() && clique < best)) {
        best = std::move(clique);
      }
    }
    if (best.empty()) best = {seed.front()};
    if (!config.reject_customer_evidence) break;

    // Ejecting an established member requires independent witnesses (a lone
    // poisoning origin must not be able to evict true tier-1s).
    evidence = detail::customer_evidence(arena, by_origin, best);
    std::size_t ejected = 0;
    for (const NodeId member : best) {
      if (evidence[member] >= config.customer_evidence_min_origins) {
        banned[member] = true;
        ++ejected;
      }
    }
    if (ejected == 0) break;
  }

  // Admission of *new* candidates is cheap to deny, so any single witness
  // suffices to reject — which also keeps a poisoning origin's inserted ASN
  // out of the clique.  Every exit from the loop above leaves `evidence`
  // computed against the final `best` (all zero when the test is off).
  std::vector<bool> below = banned;
  for (NodeId id = 0; id < n; ++id) {
    if (evidence[id] > 0) below[id] = true;
  }

  // Expansion: candidates are ASes adjacent to (almost) all current members
  // — found through the members' own adjacency, NOT a transit-degree window,
  // because a true tier-1 with a small customer base ranks arbitrarily low.
  // Candidates are evaluated in rank order so earlier admissions constrain
  // later ones; customer evidence disqualifies outright.
  std::vector<std::uint32_t> member_adjacency(n, 0);
  for (const NodeId member : best) {
    for (const NodeId neighbor : adjacency.neighbors(member)) ++member_adjacency[neighbor];
  }
  std::vector<NodeId> candidates;
  for (NodeId id = 0; id < n; ++id) {
    if (member_adjacency[id] == 0) continue;
    if (member_adjacency[id] + config.max_missing_links < best.size()) continue;
    if (std::binary_search(best.begin(), best.end(), id)) continue;
    if (below[id]) continue;
    candidates.push_back(id);
  }
  std::sort(candidates.begin(), candidates.end(),
            [&](NodeId a, NodeId b) { return degrees.rank_of(a) < degrees.rank_of(b); });
  if (candidates.size() > config.expansion_candidates) {
    candidates.resize(config.expansion_candidates);
  }
  for (const NodeId candidate : candidates) {
    std::size_t missing = 0;
    for (const NodeId member : best) {
      if (!adjacency.adjacent(candidate, member)) ++missing;
    }
    // The tolerance is capped at a third of the current clique: tolerating a
    // missing link in a 2-3 member clique would admit anything adjacent to a
    // single member.
    const std::size_t tolerance = std::min(config.max_missing_links, best.size() / 3);
    if (missing <= tolerance) {
      best.insert(std::upper_bound(best.begin(), best.end(), candidate), candidate);
    }
  }

  std::vector<Asn> out;
  out.reserve(best.size());
  for (const NodeId id : best) out.push_back(interner.asn_of(id));
  return out;
}

}  // namespace asrank::core
