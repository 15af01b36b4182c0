#include "bgpsim/observation.h"

#include <algorithm>
#include <atomic>
#include <map>
#include <optional>
#include <thread>

namespace asrank::bgpsim {

namespace {

using topogen::GroundTruth;
using topogen::Tier;

/// Deterministically choose VPs: full feeds come from clique/tier-2 ASes
/// (collector peers are predominantly large ISPs), partial feeds from
/// tier-2/tier-3.  Selection is rendezvous-hashed per AS rather than
/// index-sampled so the VP set is *stable under topology growth*: real
/// collector peers persist across snapshots, and re-rolling the whole VP
/// set every snapshot would masquerade as topology churn in the
/// longitudinal experiments.
std::vector<VantagePoint> choose_vps(const GroundTruth& truth,
                                     const ObservationParams& params) {
  std::vector<Asn> upper, middle;
  for (const auto& [as, tier] : truth.tiers) {
    if (tier == Tier::kClique || tier == Tier::kTransit) upper.push_back(as);
    if (tier == Tier::kTransit || tier == Tier::kRegional) middle.push_back(as);
  }
  auto score = [&](Asn as) {
    std::uint64_t mix = params.seed ^ (0xa5a5a5a5a5a5a5a5ULL + as.value());
    return util::splitmix64_next(mix);
  };
  auto pick_top = [&](std::vector<Asn>& pool, std::size_t want) {
    std::sort(pool.begin(), pool.end(),
              [&](Asn a, Asn b) { return score(a) < score(b); });
    if (pool.size() > want) pool.resize(want);
    return pool;
  };

  std::vector<VantagePoint> vps;
  for (const Asn as : pick_top(upper, params.full_vps)) vps.push_back({as, true});
  for (const Asn as : pick_top(middle, params.partial_vps)) {
    const bool already = std::any_of(vps.begin(), vps.end(),
                                     [as](const VantagePoint& vp) { return vp.as == as; });
    if (!already) vps.push_back({as, false});
  }
  return vps;
}

/// A poisoning origin's fixed behaviour: real path poisoning is a per-origin
/// traffic-engineering decision applied to every announcement, not random
/// per-path noise.
struct PoisonPlan {
  bool clique_insert = false;  ///< insert a tier-1 ASN (no loop) vs "O X O" loop
  Asn tier1;                   ///< for clique_insert
};

std::unordered_map<Asn, PoisonPlan> choose_poisoners(const GroundTruth& truth,
                                                     const ObservationParams& params,
                                                     util::Rng& rng) {
  std::unordered_map<Asn, PoisonPlan> plans;
  if (params.poison_prob <= 0.0 || truth.clique.empty()) return plans;
  for (const auto& [as, tier] : truth.tiers) {
    if (!rng.bernoulli(params.poison_prob)) continue;
    PoisonPlan plan;
    plan.clique_insert = rng.bernoulli(0.5);
    plan.tier1 = truth.clique[rng.uniform(truth.clique.size())];
    plans.emplace(as, plan);
  }
  return plans;
}

/// Apply pathologies to one observed path.  Returns the (possibly modified)
/// path and updates the audit.
AsPath inject_pathologies(const GroundTruth& truth, const ObservationParams& params,
                          const std::unordered_map<Asn, PoisonPlan>& poisoners,
                          AsPath path, util::Rng& rng, PathologyAudit& audit) {
  std::vector<Asn> hops(path.hops().begin(), path.hops().end());

  // IXP route-server leak: insert the route server between the two peers of
  // an IXP-born p2p link the path crosses.
  if (!truth.ixp_links.empty() && hops.size() >= 2) {
    for (std::size_t i = 0; i + 1 < hops.size(); ++i) {
      const auto it = truth.ixp_links.find(AsGraph::link_key(hops[i], hops[i + 1]));
      if (it != truth.ixp_links.end() && rng.bernoulli(params.ixp_leak_prob)) {
        hops.insert(hops.begin() + static_cast<long>(i) + 1, it->second);
        ++audit.ixp_leaked;
        break;  // at most one leak per path
      }
    }
  }

  // Origin prepending: the origin repeats itself 1-3 extra times.
  if (!hops.empty() && rng.bernoulli(params.prepend_prob)) {
    const std::size_t copies = 1 + rng.uniform(3);
    hops.insert(hops.end(), copies, hops.back());
    ++audit.prepended;
  }

  // Path poisoning, two flavours the sanitization pipeline must catch
  // through different mechanisms:
  //   * loop-style: the origin inserts a victim AS then itself again — the
  //     classic "O X O" suffix producing a non-adjacent repeat (caught by
  //     the sanitizer's loop discard);
  //   * clique-insert: the origin inserts a tier-1 ASN it is not attached
  //     to, leaving no loop — caught only by the poisoned-path discard
  //     (paper step 4: clique members must form one contiguous segment),
  //     and only on paths that also cross a genuine clique segment.
  if (hops.size() >= 2) {
    const auto plan_it = poisoners.find(hops.back());
    if (plan_it != poisoners.end()) {
      const Asn origin = hops.back();
      const PoisonPlan& plan = plan_it->second;
      if (plan.clique_insert) {
        if (std::find(hops.begin(), hops.end(), plan.tier1) == hops.end()) {
          hops.insert(hops.end() - 1, plan.tier1);
          ++audit.poisoned_insert;
        }
      } else {
        const Asn victim = hops.front() != origin ? hops.front() : hops[hops.size() / 2];
        if (victim != origin) {
          hops.push_back(victim);
          hops.push_back(origin);
          ++audit.poisoned_loop;
        }
      }
    }
  }

  // Leaked private ASN next to the origin (unstripped confederation/private
  // peering artifact).
  if (!hops.empty() && rng.bernoulli(params.private_leak_prob)) {
    hops.insert(hops.end() - 1, Asn(64512 + static_cast<std::uint32_t>(rng.uniform(1023))));
    ++audit.private_leaked;
  }

  return AsPath(hops);
}

}  // namespace

namespace {

/// Per-destination work product, merged in destination order so the result
/// is independent of scheduling.
struct DestinationRows {
  std::vector<ObservedRoute> routes;
  PathologyAudit audit;
};

DestinationRows observe_destination(const GroundTruth& truth, const ObservationParams& params,
                                    const std::unordered_map<Asn, PoisonPlan>& poisoners,
                                    const RouteSimulator& simulator,
                                    const std::vector<VantagePoint>& vps, Asn destination) {
  DestinationRows out;
  // A per-destination RNG stream keeps results identical across thread
  // counts and schedules.
  std::uint64_t mix = params.seed ^ (0x9e3779b97f4a7c15ULL * destination.value());
  util::Rng rng(util::splitmix64_next(mix));

  if (params.destination_sample < 1.0 && !rng.bernoulli(params.destination_sample)) {
    return out;
  }
  const RouteTable table = simulator.routes_to(destination);
  const auto origin_it = truth.originated.find(destination);

  for (const VantagePoint& vp : vps) {
    if (vp.as == destination) continue;
    const SelectedRoute selected = table.route(vp.as);
    if (selected.route_class == RouteClass::kNone) continue;
    // Partial VPs export to the collector as to a peer: customer routes only.
    if (!vp.full_feed && selected.route_class != RouteClass::kCustomer) continue;

    AsPath path = table.path_from(vp.as);
    if (path.empty()) continue;
    path = inject_pathologies(truth, params, poisoners, std::move(path), rng, out.audit);

    if (params.expand_prefixes && origin_it != truth.originated.end()) {
      for (const Prefix& prefix : origin_it->second) {
        out.routes.push_back({vp.as, prefix, path});
      }
    } else {
      // One synthetic /24 keyed by the origin ASN.
      const Prefix prefix = origin_it != truth.originated.end() && !origin_it->second.empty()
                                ? origin_it->second.front()
                                : Prefix::v4(destination.value() << 8, 24);
      out.routes.push_back({vp.as, prefix, path});
    }
  }
  return out;
}

}  // namespace

Observation observe(const GroundTruth& truth, const ObservationParams& params) {
  util::Rng rng(params.seed);
  Observation observation;
  observation.vps = choose_vps(truth, params);
  const auto poisoners = choose_poisoners(truth, params, rng);

  const RouteSimulator simulator(truth.graph, truth.route_leakers);
  // Hybrid (partial-transit) links: a second simulator over a graph where
  // each hybrid link is p2c.  Per destination one of the two is used, so the
  // link carries transit for a deterministic half of the address space and
  // plain peering for the rest — no single relationship label fits it.
  std::optional<AsGraph> hybrid_graph;
  std::optional<RouteSimulator> hybrid_simulator;
  if (!truth.hybrid_links.empty()) {
    hybrid_graph = truth.graph;
    for (const auto& link : truth.hybrid_links) {
      hybrid_graph->set_relationship(link.provider, link.customer, LinkType::kP2C);
    }
    hybrid_simulator.emplace(*hybrid_graph, truth.route_leakers);
  }
  const auto simulator_for = [&](Asn destination) -> const RouteSimulator& {
    return hybrid_simulator && destination.value() % 2 == 0 ? *hybrid_simulator
                                                            : simulator;
  };
  const auto destinations = simulator.ases();
  std::vector<DestinationRows> per_destination(destinations.size());

  const std::size_t threads =
      params.threads == 0
          ? std::max<std::size_t>(1, std::thread::hardware_concurrency())
          : params.threads;
  if (threads <= 1) {
    for (std::size_t i = 0; i < destinations.size(); ++i) {
      per_destination[i] =
          observe_destination(truth, params, poisoners, simulator_for(destinations[i]),
                              observation.vps, destinations[i]);
    }
  } else {
    std::atomic<std::size_t> next{0};
    auto worker = [&] {
      while (true) {
        const std::size_t i = next.fetch_add(1);
        if (i >= destinations.size()) return;
        per_destination[i] =
            observe_destination(truth, params, poisoners, simulator_for(destinations[i]),
                                observation.vps, destinations[i]);
      }
    };
    std::vector<std::thread> pool;
    pool.reserve(threads);
    for (std::size_t t = 0; t < threads; ++t) pool.emplace_back(worker);
    for (std::thread& thread : pool) thread.join();
  }

  for (DestinationRows& rows : per_destination) {
    observation.audit.prepended += rows.audit.prepended;
    observation.audit.poisoned_loop += rows.audit.poisoned_loop;
    observation.audit.poisoned_insert += rows.audit.poisoned_insert;
    observation.audit.ixp_leaked += rows.audit.ixp_leaked;
    observation.audit.private_leaked += rows.audit.private_leaked;
    observation.routes.insert(observation.routes.end(),
                              std::make_move_iterator(rows.routes.begin()),
                              std::make_move_iterator(rows.routes.end()));
  }
  return observation;
}

mrt::RibDump to_rib_dump(const Observation& observation, std::uint32_t timestamp) {
  mrt::RibDump dump;
  dump.collector_bgp_id = 0xc0000201;  // 192.0.2.1, TEST-NET collector id
  dump.view_name = "asrank-sim";
  dump.timestamp = timestamp;

  std::unordered_map<Asn, std::uint16_t> peer_index;
  for (const VantagePoint& vp : observation.vps) {
    mrt::PeerEntry peer;
    peer.as = vp.as;
    peer.bgp_id = 0x0a000000 + static_cast<std::uint32_t>(dump.peers.size() + 1);
    peer.ipv4 = peer.bgp_id;
    peer_index.emplace(vp.as, static_cast<std::uint16_t>(dump.peers.size()));
    dump.peers.push_back(peer);
  }

  std::map<Prefix, std::vector<mrt::RibRoute>> by_prefix;
  for (const ObservedRoute& route : observation.routes) {
    mrt::RibRoute rib_route;
    rib_route.peer_index = peer_index.at(route.vp);
    rib_route.originated_time = timestamp;
    rib_route.attrs.origin = mrt::Origin::kIgp;
    rib_route.attrs.as_path = route.path;
    rib_route.attrs.next_hop = dump.peers[rib_route.peer_index].ipv4;
    by_prefix[route.prefix].push_back(std::move(rib_route));
  }
  dump.rib.reserve(by_prefix.size());
  for (auto& [prefix, routes] : by_prefix) {
    dump.rib.push_back({prefix, std::move(routes)});
  }
  return dump;
}

std::vector<ObservedRoute> from_rib_dump(const mrt::RibDump& dump) {
  std::size_t routes = 0;
  for (const mrt::RibEntry& entry : dump.rib) routes += entry.routes.size();
  std::vector<ObservedRoute> out;
  out.reserve(routes);
  for (const mrt::RibEntry& entry : dump.rib) {
    for (const mrt::RibRoute& route : entry.routes) {
      if (route.peer_index >= dump.peers.size()) {
        throw mrt::DecodeError("RIB route references unknown peer index");
      }
      out.push_back({dump.peers[route.peer_index].as, entry.prefix, route.attrs.as_path});
    }
  }
  return out;
}

}  // namespace asrank::bgpsim
