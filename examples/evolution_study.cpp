// Longitudinal study: how inferred structure evolves as the topology grows
// and flattens — the workflow behind the paper's multi-year time-series
// figures, here over simulated snapshots.
//
// For each snapshot the study:
//   1. evolves the ground-truth topology (new stubs, new peering, re-homing);
//   2. produces a RIB observation and a BGP4MP update stream against the
//      previous snapshot (exercising the incremental ingestion path);
//   3. re-runs inference and reports clique stability, hierarchy shape,
//      rank churn, and cone overlap for the top ASes.
//
// Usage: evolution_study [preset] [seed] [snapshots]
#include <cstdlib>
#include <iostream>
#include <sstream>

#include "bgpsim/observation.h"
#include "bgpsim/update_stream.h"
#include "core/asrank.h"
#include "core/cones.h"
#include "core/hierarchy.h"
#include "core/ranking.h"
#include "topogen/topogen.h"
#include "util/table.h"

int main(int argc, char** argv) {
  using namespace asrank;
  const std::string preset = argc > 1 ? argv[1] : "small";
  const std::uint64_t seed = argc > 2 ? std::strtoull(argv[2], nullptr, 10) : 42;
  const int snapshots = argc > 3 ? std::atoi(argv[3]) : 6;

  auto gen_params = topogen::GenParams::preset(preset);
  gen_params.seed = seed;
  auto truth = topogen::generate(gen_params);
  util::Rng rng(seed + 1000);

  bgpsim::ObservationParams obs_params;
  obs_params.seed = seed + 1;
  obs_params.threads = 0;

  std::vector<Asn> previous_ranked;
  ConeMap previous_cones;
  bgpsim::Observation previous_observation;

  util::TableWriter table({"snapshot", "ASes", "p2p share", "depth", "mean providers",
                           "clique", "updates", "rank churn(top20)", "cone jaccard(top10)"});

  for (int snapshot = 0; snapshot < snapshots; ++snapshot) {
    if (snapshot > 0) {
      topogen::EvolveParams evolve_params;
      evolve_params.new_stubs = truth.graph.as_count() / 50;
      evolve_params.new_peerings = truth.graph.link_count() / 40;
      topogen::evolve(truth, rng, evolve_params);
    }
    const auto observation = bgpsim::observe(truth, obs_params);

    // Incremental feed: what a collector's updates file would contain.
    std::size_t update_count = 0;
    if (snapshot > 0) {
      const auto updates = bgpsim::diff_observations(previous_observation, observation,
                                                     1000 + snapshot);
      // Round-trip the stream through the BGP4MP wire format.
      std::stringstream stream;
      for (const auto& update : updates) mrt::write_update(update, stream);
      update_count = mrt::read_updates(stream).size();
    }

    core::InferenceConfig config;
    config.sanitizer.ixp_asns.insert(truth.ixp_asns.begin(), truth.ixp_asns.end());
    const auto result = core::AsRankInference(config).run(
        paths::PathCorpus::from_records(observation.routes));

    const AsGraph inferred = result.graph.to_graph();
    const auto hierarchy = core::analyze_hierarchy(inferred, result.clique);
    const auto depths = core::hierarchy_depths(inferred);
    std::size_t max_depth = 0;
    for (const auto& [as, depth] : depths) max_depth = std::max(max_depth, depth);

    const auto cones = core::provider_peer_observed_cone(result.graph, result.arena);
    std::vector<Asn> ranked;
    for (const auto& entry : core::rank_by_cone(cones, result.degrees)) {
      ranked.push_back(entry.as);
    }

    std::string churn = "-", jaccard = "-";
    if (snapshot > 0) {
      churn = util::fmt(core::mean_rank_change(previous_ranked, ranked, 20), 2);
      double total = 0;
      std::size_t counted = 0;
      for (std::size_t i = 0; i < std::min<std::size_t>(10, previous_ranked.size()); ++i) {
        const Asn as = previous_ranked[i];
        if (!previous_cones.contains(as) || !cones.contains(as)) continue;
        total += core::cone_jaccard(previous_cones.at(as), cones.at(as));
        ++counted;
      }
      if (counted > 0) jaccard = util::fmt(total / static_cast<double>(counted), 3);
    }

    table.add_row({std::to_string(snapshot), util::fmt_count(truth.graph.as_count()),
                   util::fmt_pct(hierarchy.p2p_share), std::to_string(max_depth),
                   util::fmt(hierarchy.mean_providers, 2),
                   std::to_string(result.clique.size()), util::fmt_count(update_count),
                   churn, jaccard});

    previous_ranked = std::move(ranked);
    previous_cones = std::move(cones);
    previous_observation = std::move(observation);
  }
  table.set_caption("evolution across snapshots (flattening Internet):");
  table.render(std::cout);
  std::cout << "expected shape: p2p share rises, hierarchy depth is stable, the\n"
               "clique persists, top-of-ranking churn stays low, and top cones\n"
               "overlap heavily between snapshots.\n";
  return 0;
}
