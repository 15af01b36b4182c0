// Validation study: the paper's §3/§6 workflow end to end, on one topology.
//
//   * assemble the three-source relationship corpus (direct, RPSL
//     aut-num policies via text round-trip, BGP communities via decode);
//   * run inference and score PPV per source, comparing against exact truth;
//   * mine IRR route objects into a longest-prefix-match origin table and
//     validate the originations observed in BGP against it;
//   * expand registered customer as-sets and compare them with the inferred
//     customer links.
//
// Usage: validation_study [preset] [seed]
#include <cstdlib>
#include <iostream>

#include "bgpsim/observation.h"
#include "core/asrank.h"
#include "topogen/topogen.h"
#include "util/table.h"
#include "validation/ppv.h"
#include "validation/synthesize.h"

int main(int argc, char** argv) {
  using namespace asrank;
  auto gen_params = topogen::GenParams::preset(argc > 1 ? argv[1] : "small");
  if (argc > 2) gen_params.seed = std::strtoull(argv[2], nullptr, 10);

  const auto truth = topogen::generate(gen_params);
  bgpsim::ObservationParams obs_params;
  obs_params.seed = gen_params.seed + 1;
  obs_params.threads = 0;
  const auto observation = bgpsim::observe(truth, obs_params);

  core::InferenceConfig config;
  config.sanitizer.ixp_asns.insert(truth.ixp_asns.begin(), truth.ixp_asns.end());
  const auto result =
      core::AsRankInference(config).run(paths::PathCorpus::from_records(observation.routes));

  // ---- Relationship validation (paper §6) --------------------------------
  const auto synth = validation::synthesize_validation(truth, observation,
                                                       validation::SynthesisParams{});
  const AsGraph inferred_graph = result.graph.to_graph();
  const auto ppv = validation::evaluate_ppv(inferred_graph, synth.corpus);
  const auto exact = validation::evaluate_against_truth(inferred_graph, truth.graph);

  util::TableWriter rel_table({"source", "validated", "PPV"});
  for (const auto source : {validation::Source::kDirectReport,
                            validation::Source::kCommunities, validation::Source::kRpsl}) {
    const auto& c2p = ppv.cells[static_cast<std::size_t>(source)][0];
    const auto& p2p = ppv.cells[static_cast<std::size_t>(source)][1];
    validation::PpvCell combined;
    combined.validated = c2p.validated + p2p.validated;
    combined.correct = c2p.correct + p2p.correct;
    rel_table.add_row({std::string(to_string(source)), util::fmt_count(combined.validated),
                       util::fmt_pct(combined.ppv())});
  }
  rel_table.add_row({"all sources", util::fmt_count(ppv.overall.validated),
                     util::fmt_pct(ppv.overall.ppv())});
  rel_table.add_row({"exact ground truth",
                     util::fmt_count(exact.c2p.validated + exact.p2p.validated),
                     util::fmt_pct(exact.accuracy())});
  rel_table.set_caption("relationship validation (corpus coverage " +
                        util::fmt_pct(ppv.coverage()) + "):");
  rel_table.render(std::cout);

  // ---- Origin validation against IRR route objects -----------------------
  const auto irr = validation::synthesize_irr(truth, validation::IrrSynthesisParams{});
  const auto registry = validation::origin_table(irr);
  std::vector<std::pair<Prefix, Asn>> observed_origins;
  for (const auto& route : observation.routes) {
    if (route.path.empty()) continue;
    observed_origins.emplace_back(route.prefix, route.path.last());
  }
  const auto origins = validation::validate_origins(registry, observed_origins);
  std::cout << "\norigin validation: " << util::fmt_count(irr.routes.size())
            << " route objects cover " << origins.checked << " of "
            << observed_origins.size() << " observed originations; match rate "
            << util::fmt_pct(origins.match_rate())
            << " (mismatches are stale registrations and poisoned paths)\n";

  // ---- Customer as-sets vs inferred customers -----------------------------
  std::size_t sets_checked = 0;
  double agreement_sum = 0.0;
  for (const auto& [name, set] : irr.as_sets) {
    // Recover the owner from the conventional name.
    const auto colon = name.find(':');
    const auto owner = Asn::parse(name.substr(0, colon));
    if (!owner) continue;
    const auto registered = validation::expand_as_set(irr, name);
    const auto inferred = inferred_graph.customers(*owner);
    if (registered.empty() || inferred.empty()) continue;
    std::size_t shared = 0;
    for (const Asn customer : inferred) {
      if (std::binary_search(registered.begin(), registered.end(), customer)) ++shared;
    }
    agreement_sum += static_cast<double>(shared) / static_cast<double>(inferred.size());
    ++sets_checked;
  }
  if (sets_checked > 0) {
    std::cout << "customer as-sets: " << sets_checked
              << " registered sets; on average "
              << util::fmt_pct(agreement_sum / static_cast<double>(sets_checked))
              << " of inferred customers appear in the owner's registered set\n";
  }
  return 0;
}
