// Error analysis: break inference errors down by ground-truth link class and
// topological position.  This is the debugging companion to quickstart — it
// answers "which links do we get wrong, and why" the way the paper's §6.3
// discusses its own error sources.
//
// Usage: error_analysis [preset] [seed]
#include <cstdlib>
#include <iostream>
#include <map>

#include "bgpsim/observation.h"
#include "core/asrank.h"
#include "topogen/topogen.h"
#include "util/table.h"

namespace {

const char* tier_name(asrank::topogen::Tier tier) {
  using asrank::topogen::Tier;
  switch (tier) {
    case Tier::kClique: return "clique";
    case Tier::kTransit: return "tier2";
    case Tier::kRegional: return "tier3";
    case Tier::kStub: return "stub";
  }
  return "?";
}

}  // namespace

int main(int argc, char** argv) {
  using namespace asrank;

  auto gen_params = topogen::GenParams::preset(argc > 1 ? argv[1] : "medium");
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

  // Error matrix: (true type, inferred type) -> count per tier pair.
  std::map<std::string, std::size_t> error_classes;
  std::size_t correct = 0, wrong = 0;
  for (const Link& inferred : result.graph.links()) {
    const auto true_link = truth.graph.link(inferred.a, inferred.b);
    if (!true_link || true_link->type == LinkType::kS2S) continue;
    const bool ok =
        inferred.type == true_link->type &&
        (inferred.type != LinkType::kP2C || inferred.a == true_link->a);
    if (ok) {
      ++correct;
      continue;
    }
    ++wrong;
    const auto ta = truth.tiers.at(true_link->a);
    const auto tb = truth.tiers.at(true_link->b);
    std::string klass = std::string(to_string(true_link->type)) + "->" +
                        std::string(to_string(inferred.type));
    if (inferred.type == LinkType::kP2C && true_link->type == LinkType::kP2C) {
      klass = "p2c-direction-flip";
    }
    klass += " [" + std::string(tier_name(ta)) + "-" + std::string(tier_name(tb)) + "]";
    if (truth.content_stubs.contains(true_link->a) ||
        truth.content_stubs.contains(true_link->b)) {
      klass += " content";
    }
    if (truth.ixp_links.contains(AsGraph::link_key(true_link->a, true_link->b))) {
      klass += " ixp-born";
    }
    ++error_classes[klass];
  }

  std::cout << "correct " << correct << ", wrong " << wrong << " ("
            << util::fmt_pct(static_cast<double>(wrong) /
                             static_cast<double>(correct + wrong))
            << " of compared links)\n\n";
  util::TableWriter table({"error class (true->inferred) [tier pair]", "count"});
  for (const auto& [klass, count] : error_classes) {
    table.add_row({klass, std::to_string(count)});
  }
  table.render(std::cout);

  std::cout << "\naudit: votes " << result.audit.c2p_votes << ", deferred "
            << result.audit.apex_links_deferred << ", conflicts "
            << result.audit.vote_conflicts << ", triplet "
            << result.audit.triplet_inferred << ", valley violations "
            << result.audit.valley_violations << ", providerless repaired "
            << result.audit.providerless_repaired << ", stub-clique "
            << result.audit.stub_clique_links << ", p2p fallback "
            << result.audit.p2p_fallback << "\n";
  return 0;
}
