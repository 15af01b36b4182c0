// E13 — AS Rank stability across snapshots (paper §5.4 discussion): the top
// of the ranking should be stable under organic growth, with churn
// concentrated in the long tail; top cones overlap heavily snapshot to
// snapshot.
#include "bench_common.h"

#include "core/cones.h"
#include "core/hierarchy.h"
#include "core/ranking.h"

int main(int argc, char** argv) {
  using namespace asrank;
  auto options = bench::parse_options(argc, argv);
  bench::header("E13 AS Rank stability across snapshots", options);
  bench::paper_shape(
      "ranked by recursive cone, top-10 membership is nearly constant and "
      "churn grows with rank depth; the provider/peer-observed cone ranking "
      "is noisier because its evidence depends on which equal-cost routes "
      "the substrate happens to pick each snapshot");

  auto gen = topogen::GenParams::preset(options.preset);
  gen.seed = options.seed;
  auto truth = topogen::generate(gen);
  util::Rng rng(options.seed + 300);

  std::vector<Asn> previous_ranked;        // recursive-cone ranking (inferred)
  std::vector<Asn> previous_ppdc_ranked;   // ppdc ranking, for contrast
  std::vector<Asn> previous_true_ranked;   // recursive cones over ground truth
  ConeMap previous_cones;

  util::TableWriter table({"snapshot", "top10 kept", "churn@10", "churn@50", "churn@200",
                           "ppdc churn@10", "TRUE churn@10", "cone jaccard top10"});
  for (int snapshot = 0; snapshot < 6; ++snapshot) {
    if (snapshot > 0) {
      topogen::EvolveParams evolve_params;
      evolve_params.new_stubs = truth.graph.as_count() / 50;
      evolve_params.new_peerings = truth.graph.link_count() / 60;
      topogen::evolve(truth, rng, evolve_params);
    }
    bgpsim::ObservationParams obs;
    obs.seed = options.seed + 1;
    obs.full_vps = options.full_vps;
    obs.partial_vps = options.partial_vps;
    const auto observation = bgpsim::observe(truth, obs);
    const auto result = core::AsRankInference(bench::config_for(truth))
                            .run(paths::PathCorpus::from_records(observation.routes));
    const auto cones = core::recursive_cone(result.graph);
    const auto ppdc_cones =
        core::provider_peer_observed_cone(result.graph, result.arena);
    const auto true_cones = core::recursive_cone(truth.graph);
    std::vector<Asn> ranked, ppdc_ranked, true_ranked;
    for (const auto& entry : core::rank_by_cone(cones, result.degrees)) {
      ranked.push_back(entry.as);
    }
    for (const auto& entry : core::rank_by_cone(ppdc_cones, result.degrees)) {
      ppdc_ranked.push_back(entry.as);
    }
    for (const auto& entry : core::rank_by_cone(true_cones, result.degrees)) {
      true_ranked.push_back(entry.as);
    }

    if (snapshot == 0) {
      table.add_row({"0", "-", "-", "-", "-", "-", "-", "-"});
    } else {
      std::size_t kept = 0;
      for (std::size_t i = 0; i < std::min<std::size_t>(10, ranked.size()); ++i) {
        for (std::size_t j = 0; j < std::min<std::size_t>(10, previous_ranked.size()); ++j) {
          if (ranked[i] == previous_ranked[j]) {
            ++kept;
            break;
          }
        }
      }
      double jaccard_sum = 0;
      std::size_t jaccard_n = 0;
      for (std::size_t i = 0; i < std::min<std::size_t>(10, previous_ranked.size()); ++i) {
        const Asn as = previous_ranked[i];
        if (!previous_cones.contains(as) || !cones.contains(as)) continue;
        jaccard_sum += core::cone_jaccard(previous_cones.at(as), cones.at(as));
        ++jaccard_n;
      }
      table.add_row(
          {std::to_string(snapshot), std::to_string(kept) + "/10",
           util::fmt(core::mean_rank_change(previous_ranked, ranked, 10), 2),
           util::fmt(core::mean_rank_change(previous_ranked, ranked, 50), 2),
           util::fmt(core::mean_rank_change(previous_ranked, ranked, 200), 2),
           util::fmt(core::mean_rank_change(previous_ppdc_ranked, ppdc_ranked, 10), 2),
           util::fmt(core::mean_rank_change(previous_true_ranked, true_ranked, 10), 2),
           jaccard_n ? util::fmt(jaccard_sum / static_cast<double>(jaccard_n), 3) : "-"});
    }
    previous_ranked = std::move(ranked);
    previous_ppdc_ranked = std::move(ppdc_ranked);
    previous_true_ranked = std::move(true_ranked);
    previous_cones = std::move(cones);
  }
  table.render(std::cout);
  return 0;
}
