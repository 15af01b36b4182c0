// E9 — paper §6.2-style analysis: inference quality as a function of the
// number of vantage points.  The paper observes that link visibility —
// especially of p2p links — is the binding constraint; accuracy saturates
// once the big transit providers host VPs.
#include "bench_common.h"

int main(int argc, char** argv) {
  using namespace asrank;
  auto options = bench::parse_options(argc, argv);
  bench::header("E9 sensitivity to vantage-point count (paper Fig. 7-style)", options);
  bench::paper_shape(
      "p2p visibility grows near-linearly with VPs while c2p visibility "
      "saturates early; PPV rises with VP count and flattens");

  auto gen = topogen::GenParams::preset(options.preset);
  gen.seed = options.seed;
  const auto truth = topogen::generate(gen);
  const auto true_counts = truth.graph.link_counts();

  util::TableWriter table({"VPs (full+partial)", "links seen", "p2c vis", "p2p vis",
                           "c2p PPV", "p2p PPV", "clique found"});
  const std::pair<std::size_t, std::size_t> sweeps[] = {{2, 1},   {5, 2},   {10, 3},
                                                        {20, 6},  {30, 10}, {50, 15}};
  for (const auto& [full, partial] : sweeps) {
    bgpsim::ObservationParams obs;
    obs.seed = options.seed + 1;
    obs.full_vps = full;
    obs.partial_vps = partial;
    const auto observation = bgpsim::observe(truth, obs);
    const auto result = core::AsRankInference(bench::config_for(truth))
                            .run(paths::PathCorpus::from_records(observation.routes));
    const AsGraph inferred = result.graph.to_graph();
    std::size_t p2c_seen = 0, p2p_seen = 0;
    for (const Link& link : truth.graph.links()) {
      if (!inferred.has_link(link.a, link.b)) continue;
      if (link.type == LinkType::kP2C) ++p2c_seen;
      if (link.type == LinkType::kP2P) ++p2p_seen;
    }
    const auto accuracy = validation::evaluate_against_truth(inferred, truth.graph);
    std::size_t recovered = 0;
    for (const Asn as : result.clique) {
      if (std::binary_search(truth.clique.begin(), truth.clique.end(), as)) ++recovered;
    }
    table.add_row(
        {std::to_string(full) + "+" + std::to_string(partial),
         util::fmt_count(result.graph.link_count()),
         util::fmt_pct(static_cast<double>(p2c_seen) / static_cast<double>(true_counts.p2c)),
         util::fmt_pct(static_cast<double>(p2p_seen) / static_cast<double>(true_counts.p2p)),
         util::fmt_pct(accuracy.c2p.ppv()), util::fmt_pct(accuracy.p2p.ppv()),
         std::to_string(recovered) + "/" + std::to_string(truth.clique.size())});
  }
  table.render(std::cout);
  return 0;
}
