// E10 — ablation of the pipeline's design choices (paper §4 discussion):
// disable one stage at a time and measure the damage.  Quantifies why each
// step exists, including the reconstruction-specific choice to defer rather
// than degree-guess peak-adjacent links.
#include "bench_common.h"

#include "validation/synthesize.h"

int main(int argc, char** argv) {
  using namespace asrank;
  const auto options = bench::parse_options(argc, argv);
  bench::header("E10 pipeline ablation", options);
  bench::paper_shape(
      "every stage earns its keep: removing sanitization or poisoned-path "
      "discard corrupts the graph; skipping the fixpoint strands descents; "
      "degree-guessing at peaks trades c2p PPV for p2p coverage");

  auto gen = topogen::GenParams::preset(options.preset);
  gen.seed = options.seed;
  const auto truth = topogen::generate(gen);
  bgpsim::ObservationParams obs;
  obs.seed = options.seed + 1;
  obs.full_vps = options.full_vps;
  obs.partial_vps = options.partial_vps;
  const auto observation = bgpsim::observe(truth, obs);
  const auto corpus = paths::PathCorpus::from_records(observation.routes);

  util::TableWriter table(
      {"variant", "c2p PPV", "p2p PPV", "overall", "links", "phantom", "acyclic"});
  auto run = [&](const std::string& name, core::InferenceConfig config) {
    const auto result = core::AsRankInference(std::move(config)).run(corpus);
    const auto accuracy = validation::evaluate_against_truth(result.graph, truth.graph);
    // Phantom links — links in the inferred graph that do not exist at all —
    // are the real damage done by unsanitized artifacts; PPV alone misses
    // them because they match no ground-truth link.
    table.add_row({name, util::fmt_pct(accuracy.c2p.ppv()), util::fmt_pct(accuracy.p2p.ppv()),
                   util::fmt_pct(accuracy.accuracy()),
                   util::fmt_count(result.graph.link_count()),
                   util::fmt_count(accuracy.unknown_links),
                   result.audit.p2c_acyclic ? "yes" : "NO"});
  };

  const auto base = bench::config_for(truth);
  run("full pipeline", base);
  {
    auto config = base;
    config.sanitizer.strip_ixp_asns = false;
    run("- IXP stripping", config);
  }
  {
    auto config = base;
    config.sanitizer.discard_loops = false;
    run("- loop discard", config);
  }
  {
    auto config = base;
    config.discard_poisoned = false;
    run("- poisoned-path discard", config);
  }
  {
    auto config = base;
    config.partial_vp_threshold = 0.0;
    run("- partial-VP detection", config);
  }
  {
    auto config = base;
    config.triplet_fixpoint = false;
    run("- valley-free fixpoint", config);
  }
  {
    auto config = base;
    config.provider_less_repair = false;
    config.stub_clique_pass = false;
    run("- repair passes (7/8)", config);
  }
  {
    auto config = base;
    config.apex_degree_gap = 4.0;
    run("+ degree-guess at peaks (gap 4)", config);
  }
  {
    auto config = base;
    config.clique.reject_customer_evidence = false;
    run("- clique customer-evidence", config);
  }
  {
    auto config = base;
    config.clique.max_missing_links = 0;
    run("- clique adjacency tolerance", config);
  }
  table.render(std::cout);
  return 0;
}
