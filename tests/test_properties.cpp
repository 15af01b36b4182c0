// Property-based invariant suite (Dimitropoulos et al. 2007 §"validation"
// line of work): instead of fixed expectations, these tests assert the
// structural invariants of relationship inference and customer cones over
// randomized topogen topologies with seeded RNG, so every run covers several
// distinct random Internets while staying reproducible.
//
// Invariants checked for every (preset, seed) sample:
//   * the inferred c2p hierarchy is acyclic (assumption A3 is restored by
//     the pipeline even when measurement artifacts violate it);
//   * every customer cone contains the AS itself;
//   * cone nesting: a provider's recursive cone is a superset of each of its
//     customers' cones;
//   * inferred clique members are pairwise non-c2p (assumption A1);
//   * the recursive and BGP-observed cone definitions agree on
//     full-visibility inputs (a corpus containing every maximal p2c descent
//     chain);
//   * each cone definition's write_ppdc output reads back equal through
//     try_read_ppdc.
#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <sstream>
#include <vector>

#include "bgpsim/observation.h"
#include "core/asrank.h"
#include "core/cones.h"
#include "topogen/topogen.h"
#include "topology/interner.h"
#include "topology/topology_view.h"

namespace asrank {
namespace {

struct Sample {
  topogen::GroundTruth truth;
  core::InferenceResult result;
  AsGraph inferred;  ///< result.graph as an AsGraph
};

Sample make_sample(const std::string& preset, std::uint64_t seed) {
  auto gen = topogen::GenParams::preset(preset);
  gen.seed = seed;
  Sample sample{topogen::generate(gen), {}, {}};
  bgpsim::ObservationParams obs;
  obs.seed = seed + 1;
  obs.full_vps = 20;
  obs.partial_vps = 5;
  const auto observation = bgpsim::observe(sample.truth, obs);
  core::InferenceConfig config;
  config.sanitizer.ixp_asns.insert(sample.truth.ixp_asns.begin(),
                                   sample.truth.ixp_asns.end());
  sample.result = core::AsRankInference(config).run(
      paths::PathCorpus::from_records(observation.routes));
  sample.inferred = sample.result.graph.to_graph();
  return sample;
}

/// The randomized sample set: two sizes, several seeds each.  Samples are
/// built once and shared across tests (inference dominates the cost).
const std::vector<Sample>& samples() {
  static const std::vector<Sample> all = [] {
    std::vector<Sample> built;
    for (const std::uint64_t seed : {7ULL, 1009ULL, 52625ULL}) {
      built.push_back(make_sample("tiny", seed));
      built.push_back(make_sample("small", seed));
    }
    return built;
  }();
  return all;
}

/// `corpus` as an arena with every sanitizer stage off: the observed cones
/// see its hops as they are.
paths::PathArena raw_arena(const paths::PathCorpus& corpus) {
  paths::SanitizerConfig raw;
  raw.compress_prepending = false;
  raw.discard_loops = false;
  raw.discard_reserved = false;
  return paths::PathArena::build(corpus, raw);
}

/// True iff sorted `inner` is a subset of sorted `outer`.
bool subset_of(std::span<const Asn> inner, std::span<const Asn> outer) {
  return std::includes(outer.begin(), outer.end(), inner.begin(), inner.end());
}

TEST(Properties, InferredHierarchyIsAcyclic) {
  for (const Sample& sample : samples()) {
    EXPECT_TRUE(sample.inferred.p2c_acyclic());
    EXPECT_TRUE(sample.result.audit.p2c_acyclic);
  }
}

TEST(Properties, EveryConeContainsItsOwnAs) {
  for (const Sample& sample : samples()) {
    const auto cones = core::recursive_cone(sample.result.graph);
    EXPECT_EQ(cones.size(), sample.result.graph.ases().size());
    for (const auto& [as, members] : cones) {
      EXPECT_TRUE(std::binary_search(members.begin(), members.end(), as))
          << "cone of AS" << as.value() << " is missing the AS itself";
    }
  }
}

TEST(Properties, ProviderConeContainsEachCustomerCone) {
  for (const Sample& sample : samples()) {
    // Check nesting on both the inferred graph and the ground truth graph —
    // the invariant is definitional for any acyclic p2c relation.
    for (const AsGraph* graph : {&sample.inferred, &sample.truth.graph}) {
      const auto cones = core::recursive_cone(*graph);
      for (const Asn provider : graph->ases()) {
        const auto& provider_cone = cones.at(provider);
        for (const Asn customer : graph->customers(provider)) {
          EXPECT_TRUE(subset_of(cones.at(customer), provider_cone))
              << "cone of provider AS" << provider.value()
              << " does not contain cone of customer AS" << customer.value();
        }
      }
    }
  }
}

TEST(Properties, CliqueMembersArePairwiseNonC2p) {
  for (const Sample& sample : samples()) {
    const auto& clique = sample.result.clique;
    for (std::size_t i = 0; i < clique.size(); ++i) {
      for (std::size_t j = i + 1; j < clique.size(); ++j) {
        const auto view = sample.inferred.view(clique[i], clique[j]);
        if (!view) continue;  // members need not be adjacent in observed paths
        EXPECT_NE(*view, RelView::kCustomer)
            << "clique AS" << clique[j].value() << " inferred as customer of AS"
            << clique[i].value();
        EXPECT_NE(*view, RelView::kProvider)
            << "clique AS" << clique[i].value() << " inferred as customer of AS"
            << clique[j].value();
      }
    }
  }
}

/// Enumerate every maximal p2c descent chain starting from `root` and append
/// each as an observed path.  Together these give the BGP-observed cone
/// computation full visibility of the customer DAG.
void append_descent_chains(const AsGraph& graph, Asn root, paths::PathCorpus& corpus) {
  std::vector<Asn> chain{root};
  // Explicit DFS over customer links; emits a record at every leaf.
  struct Frame {
    Asn node;
    std::size_t next_child = 0;
  };
  std::vector<Frame> stack{{root, 0}};
  while (!stack.empty()) {
    Frame& top = stack.back();
    const auto customers = graph.customers(top.node);
    if (top.next_child < customers.size()) {
      const Asn child = customers[top.next_child++];
      chain.push_back(child);
      stack.push_back({child, 0});
      continue;
    }
    if (customers.empty() && chain.size() >= 2) {
      corpus.add(root, Prefix::v4(chain.back().value() << 8, 24), AsPath(chain));
    }
    chain.pop_back();
    stack.pop_back();
  }
}

TEST(Properties, RecursiveAndBgpObservedConesAgreeUnderFullVisibility) {
  // Full visibility makes the direct observation converge to the closure:
  // every p2c-reachable AS appears on some contiguous descent chain.  Run on
  // the ground-truth graphs (acyclic by construction); tiny preset only —
  // chain enumeration is exponential in principle.
  for (const std::uint64_t seed : {7ULL, 1009ULL, 52625ULL}) {
    auto gen = topogen::GenParams::preset("tiny");
    gen.seed = seed;
    const auto truth = topogen::generate(gen);
    paths::PathCorpus corpus;
    for (const Asn as : truth.graph.ases()) {
      append_descent_chains(truth.graph, as, corpus);
    }
    const auto recursive = core::recursive_cone(truth.graph);
    const auto observed = core::bgp_observed_cone(truth.graph.freeze(), raw_arena(corpus));
    EXPECT_EQ(recursive, observed) << "seed " << seed;
  }
}

TEST(Properties, RecursiveConeDominatesObservedCones) {
  // The documented inclusion chain: recursive ⊇ provider/peer-observed and
  // recursive ⊇ BGP-observed, per AS, on the inferred graph with the real
  // (partial-visibility) corpus.
  for (const Sample& sample : samples()) {
    const auto& view = sample.result.graph;
    const auto recursive = core::recursive_cone(view);
    const auto ppdc = core::provider_peer_observed_cone(view, sample.result.arena);
    const auto observed = core::bgp_observed_cone(view, sample.result.arena);
    for (const auto& [as, members] : recursive) {
      EXPECT_TRUE(subset_of(ppdc.at(as), members));
      EXPECT_TRUE(subset_of(observed.at(as), members));
    }
  }
}

TEST(Properties, EveryConeRoundTripsThroughPpdc) {
  // Every writer's output is accepted by its reader: each cone definition,
  // written as a .ppdc-ases file, reads back as the same table.
  for (const Sample& sample : samples()) {
    const auto& view = sample.result.graph;
    for (const auto& [name, cones] :
         {std::pair{"recursive", core::recursive_cone(view)},
          std::pair{"ppdc", core::provider_peer_observed_cone(view, sample.result.arena)},
          std::pair{"observed", core::bgp_observed_cone(view, sample.result.arena)}}) {
      std::stringstream text;
      write_ppdc(cones, text);
      const auto read = try_read_ppdc(text);
      ASSERT_TRUE(read.ok()) << name << ": " << read.error().message();
      EXPECT_EQ(read.value(), cones) << name;
    }
  }
}

TEST(Properties, InternerRoundTripsAndPreservesOrder) {
  using topology::AsnInterner;
  using topology::NodeId;
  for (const Sample& sample : samples()) {
    // Build from the (unsorted, duplicated) corpus hop stream, as the
    // pipeline does.
    const auto sanitized = sample.result.arena.materialize();
    std::vector<Asn> hops;
    for (const auto& record : sanitized.records()) {
      const auto path = record.path.hops();
      hops.insert(hops.end(), path.begin(), path.end());
    }
    const AsnInterner interner = AsnInterner::from_asns(hops);

    // The table is strictly ascending and ids round-trip: id ordering is ASN
    // ordering (the order-preservation every dense tie-break relies on).
    ASSERT_FALSE(interner.empty());
    const auto asns = interner.asns();
    for (NodeId id = 0; id < interner.size(); ++id) {
      if (id > 0) {
        EXPECT_LT(asns[id - 1], asns[id]);
      }
      EXPECT_EQ(interner.asn_of(id), asns[id]);
      EXPECT_EQ(interner.id_of(asns[id]), id);
      EXPECT_TRUE(interner.contains(asns[id]));
    }
    EXPECT_EQ(interner.id_of(Asn(asns.back().value() + 1)), topology::kNoNode);

    // translate() is asn_of's inverse on every corpus path.
    std::vector<NodeId> ids;
    for (const auto& record : sanitized.records()) {
      interner.translate(record.path.hops(), ids);
      ASSERT_EQ(ids.size(), record.path.hops().size());
      for (std::size_t i = 0; i < ids.size(); ++i) {
        ASSERT_NE(ids[i], topology::kNoNode);
        EXPECT_EQ(interner.asn_of(ids[i]), record.path.hops()[i]);
      }
    }
  }
}

TEST(Properties, FrozenViewMatchesGraphAdjacency) {
  using topology::NodeId;
  for (const Sample& sample : samples()) {
    const AsGraph& graph = sample.inferred;
    const auto view = graph.freeze(sample.result.clique);

    EXPECT_EQ(view.node_count(), graph.ases().size());
    EXPECT_EQ(view.link_count(), graph.links().size());

    for (const Asn as : graph.ases()) {
      const NodeId node = view.interner().id_of(as);
      ASSERT_NE(node, topology::kNoNode);

      // The CSR row is the sorted union of the per-class neighbor sets, and
      // every row entry carries the same RelView the mutable graph reports.
      std::vector<Asn> expected;
      for (const Asn p : graph.providers(as)) expected.push_back(p);
      for (const Asn c : graph.customers(as)) expected.push_back(c);
      for (const Asn p : graph.peers(as)) expected.push_back(p);
      for (const Asn s : graph.siblings(as)) expected.push_back(s);
      std::sort(expected.begin(), expected.end());

      const auto row = view.neighbors(node);
      ASSERT_EQ(row.size(), expected.size());
      ASSERT_EQ(view.degree(node), expected.size());
      for (std::size_t i = 0; i < row.size(); ++i) {
        const Asn neighbor = view.interner().asn_of(row[i]);
        EXPECT_EQ(neighbor, expected[i]);
        const auto dense = view.relationship(node, row[i]);
        const auto legacy = graph.view(as, neighbor);
        ASSERT_TRUE(dense.has_value());
        ASSERT_TRUE(legacy.has_value());
        EXPECT_EQ(*dense, *legacy);
        EXPECT_EQ(static_cast<RelView>(view.rels(node)[i]), *legacy);
      }

      // Directed sub-rows agree with the per-class sets.
      const auto translate = [&view](std::span<const NodeId> ids) {
        std::vector<Asn> out;
        for (const NodeId id : ids) out.push_back(view.interner().asn_of(id));
        return out;
      };
      const auto row_of = [](std::span<const Asn> asns) {
        std::vector<Asn> out(asns.begin(), asns.end());
        std::sort(out.begin(), out.end());
        return out;
      };
      EXPECT_EQ(translate(view.providers(node)), row_of(graph.providers(as)));
      EXPECT_EQ(translate(view.customers(node)), row_of(graph.customers(as)));

      EXPECT_EQ(view.in_clique(node),
                std::find(sample.result.clique.begin(), sample.result.clique.end(),
                          as) != sample.result.clique.end());
    }

    // Clique list and bitmap agree.
    for (const NodeId member : view.clique()) {
      EXPECT_TRUE(view.in_clique(member));
    }
    EXPECT_EQ(view.clique().size(), sample.result.clique.size());
  }
}

}  // namespace
}  // namespace asrank
