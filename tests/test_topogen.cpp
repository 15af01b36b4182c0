#include <gtest/gtest.h>

#include <set>
#include <sstream>
#include <string>

#include "topogen/topogen.h"
#include "topology/serialization.h"

namespace asrank::topogen {
namespace {

// Shared fixture data: generating medium-size topologies repeatedly would
// dominate test time, so presets are generated once.
const GroundTruth& small_truth() {
  static const GroundTruth truth = generate(GenParams::preset("small"));
  return truth;
}

TEST(Topogen, PresetSizes) {
  EXPECT_EQ(GenParams::preset("tiny").total_ases, 60u);
  EXPECT_EQ(GenParams::preset("small").total_ases, 300u);
  EXPECT_EQ(GenParams::preset("medium").total_ases, 2000u);
  EXPECT_EQ(GenParams::preset("large").total_ases, 10000u);
  EXPECT_THROW((void)GenParams::preset("nope"), std::invalid_argument);
}

TEST(Topogen, RejectsDegenerateParams) {
  GenParams p;
  p.clique_size = 1;
  EXPECT_THROW((void)generate(p), std::invalid_argument);
  GenParams q;
  q.total_ases = 5;
  q.clique_size = 4;
  EXPECT_THROW((void)generate(q), std::invalid_argument);
}

TEST(Topogen, GeneratesRequestedAsCount) {
  const auto& truth = small_truth();
  EXPECT_EQ(truth.graph.as_count(), 300u);
  EXPECT_EQ(truth.tiers.size(), 300u);
}

TEST(Topogen, CliqueIsFullPeeringMesh) {
  const auto& truth = small_truth();
  ASSERT_GE(truth.clique.size(), 2u);
  for (std::size_t i = 0; i < truth.clique.size(); ++i) {
    for (std::size_t j = i + 1; j < truth.clique.size(); ++j) {
      EXPECT_EQ(truth.graph.view(truth.clique[i], truth.clique[j]), RelView::kPeer);
    }
  }
}

TEST(Topogen, CliqueMembersAreProviderFree) {
  const auto& truth = small_truth();
  for (const Asn member : truth.clique) {
    EXPECT_TRUE(truth.graph.providers(member).empty()) << member.value();
    EXPECT_EQ(truth.tiers.at(member), Tier::kClique);
  }
}

TEST(Topogen, EveryNonCliqueAsHasProvider) {
  const auto& truth = small_truth();
  for (const auto& [as, tier] : truth.tiers) {
    if (tier == Tier::kClique) continue;
    EXPECT_FALSE(truth.graph.providers(as).empty()) << "AS" << as.value();
  }
}

TEST(Topogen, ProviderGraphIsAcyclic) {
  EXPECT_TRUE(small_truth().graph.p2c_acyclic());
}

TEST(Topogen, ProvidersComeFromHigherTiers) {
  const auto& truth = small_truth();
  for (const auto& [as, tier] : truth.tiers) {
    for (const Asn provider : truth.graph.providers(as)) {
      EXPECT_LE(static_cast<int>(truth.tiers.at(provider)), static_cast<int>(tier))
          << "AS" << as.value() << " provider AS" << provider.value();
    }
  }
}

TEST(Topogen, EveryAsOriginatesAtLeastOnePrefix) {
  const auto& truth = small_truth();
  EXPECT_EQ(truth.originated.size(), truth.graph.as_count());
  for (const auto& [as, prefixes] : truth.originated) {
    EXPECT_FALSE(prefixes.empty()) << "AS" << as.value();
  }
}

TEST(Topogen, PrefixesAreGloballyUnique) {
  const auto& truth = small_truth();
  std::set<Prefix> seen;
  for (const auto& [as, prefixes] : truth.originated) {
    for (const Prefix& p : prefixes) {
      EXPECT_TRUE(seen.insert(p).second) << "duplicate " << p.str();
    }
  }
  EXPECT_EQ(seen.size(), truth.prefix_count());
}

TEST(Topogen, NoReservedAsns) {
  const auto& truth = small_truth();
  for (const Asn as : truth.graph.ases()) EXPECT_FALSE(as.reserved());
  for (const Asn rs : truth.ixp_asns) EXPECT_FALSE(rs.reserved());
}

TEST(Topogen, IxpRouteServersAreNotGraphNodes) {
  const auto& truth = small_truth();
  for (const Asn rs : truth.ixp_asns) EXPECT_FALSE(truth.graph.has_as(rs));
  EXPECT_EQ(truth.ixps.size(), GenParams::preset("small").ixp_count);
}

TEST(Topogen, IxpLinksAreRealPeerings) {
  const auto& truth = small_truth();
  EXPECT_FALSE(truth.ixp_links.empty());
  for (const auto& [key, route_server] : truth.ixp_links) {
    EXPECT_TRUE(truth.ixp_asns.contains(route_server));
  }
}

TEST(Topogen, SiblingGroupsAreMeshed) {
  const auto& truth = small_truth();
  for (const auto& group : truth.sibling_groups) {
    ASSERT_GE(group.size(), 2u);
    for (std::size_t i = 0; i < group.size(); ++i) {
      for (std::size_t j = i + 1; j < group.size(); ++j) {
        EXPECT_EQ(truth.graph.view(group[i], group[j]), RelView::kSibling);
      }
    }
  }
}

TEST(Topogen, DeterministicForSameSeed) {
  const auto a = generate(GenParams::preset("tiny"));
  const auto b = generate(GenParams::preset("tiny"));
  std::stringstream sa, sb;
  write_as_rel(a.graph, sa);
  write_as_rel(b.graph, sb);
  EXPECT_EQ(sa.str(), sb.str());
  EXPECT_EQ(a.clique, b.clique);
}

TEST(Topogen, SeedChangesTopology) {
  auto params = GenParams::preset("tiny");
  const auto a = generate(params);
  params.seed = 777;
  const auto b = generate(params);
  std::stringstream sa, sb;
  write_as_rel(a.graph, sa);
  write_as_rel(b.graph, sb);
  EXPECT_NE(sa.str(), sb.str());
}

TEST(Topogen, ContentStubsAreStubsWithPeers) {
  const auto& truth = small_truth();
  for (const Asn as : truth.content_stubs) {
    EXPECT_EQ(truth.tiers.at(as), Tier::kStub);
  }
}

// Parameterized invariants across presets and seeds. The preset is a
// std::string so gtest prints its value, not its address: test names must
// be the same from one run to the next.
class TopogenInvariants
    : public ::testing::TestWithParam<std::tuple<std::string, std::uint64_t>> {};

TEST_P(TopogenInvariants, HoldForPresetAndSeed) {
  auto params = GenParams::preset(std::get<0>(GetParam()));
  params.seed = std::get<1>(GetParam());
  const auto truth = generate(params);
  EXPECT_TRUE(truth.graph.p2c_acyclic());
  EXPECT_EQ(truth.clique.size(), params.clique_size);
  for (const auto& [as, tier] : truth.tiers) {
    if (tier != Tier::kClique) {
      EXPECT_FALSE(truth.graph.providers(as).empty());
    }
  }
  const auto counts = truth.graph.link_counts();
  EXPECT_GT(counts.p2c, 0u);
  EXPECT_GT(counts.p2p, 0u);
}

INSTANTIATE_TEST_SUITE_P(PresetsAndSeeds, TopogenInvariants,
                         ::testing::Combine(::testing::Values("tiny", "small"),
                                            ::testing::Values(1u, 42u, 1234u)));

// ------------------------------------------- adversarial scenarios -------

TEST(Topogen, AdversarialScenariosAreOffByDefault) {
  const auto& truth = small_truth();
  EXPECT_TRUE(truth.hybrid_links.empty());
  EXPECT_TRUE(truth.route_leakers.empty());
}

TEST(Topogen, HybridLinksKeepPeerGroundTruthLabels) {
  auto params = GenParams::preset("tiny");
  params.hybrid_link_fraction = 1.0;
  const auto truth = generate(params);
  ASSERT_FALSE(truth.hybrid_links.empty());
  for (const auto& link : truth.hybrid_links) {
    // The ground-truth label stays p2p — the hybrid half lives only in the
    // observation model, so algorithms are scored against the honest truth.
    EXPECT_EQ(truth.graph.view(link.provider, link.customer), RelView::kPeer);
    // The transit side is the structurally bigger endpoint, and clique-to-
    // clique peerings are never hybridized (the mesh is assumption A1).
    EXPECT_LE(static_cast<int>(truth.tiers.at(link.provider)),
              static_cast<int>(truth.tiers.at(link.customer)));
    EXPECT_FALSE(truth.tiers.at(link.provider) == Tier::kClique &&
                 truth.tiers.at(link.customer) == Tier::kClique);
  }
}

TEST(Topogen, RouteLeakersAreMultihomedEdgeAses) {
  auto params = GenParams::preset("tiny");
  params.route_leaker_fraction = 1.0;
  const auto truth = generate(params);
  ASSERT_FALSE(truth.route_leakers.empty());
  for (const Asn leaker : truth.route_leakers) {
    const auto tier = truth.tiers.at(leaker);
    EXPECT_TRUE(tier == Tier::kStub || tier == Tier::kRegional)
        << "AS" << leaker.value();
    // A leak needs a provider to leak to and a second route to leak.
    const auto providers = truth.graph.providers(leaker).size();
    EXPECT_GE(providers, 1u) << "AS" << leaker.value();
    EXPECT_GE(providers + truth.graph.peers(leaker).size(), 2u)
        << "AS" << leaker.value();
  }
}

TEST(Topogen, ScenariosAreDeterministicForSameSeed) {
  auto params = GenParams::preset("tiny");
  params.hybrid_link_fraction = 0.5;
  params.route_leaker_fraction = 0.5;
  const auto a = generate(params);
  const auto b = generate(params);
  EXPECT_EQ(a.hybrid_links, b.hybrid_links);
  EXPECT_EQ(a.route_leakers, b.route_leakers);
  EXPECT_FALSE(a.hybrid_links.empty());
  EXPECT_FALSE(a.route_leakers.empty());
}

// ------------------------------------------------------------- evolve -----

TEST(Evolve, AddsStubsAndPeerings) {
  auto truth = generate(GenParams::preset("tiny"));
  const auto before_ases = truth.graph.as_count();
  const auto before_links = truth.graph.link_count();
  util::Rng rng(99);
  EvolveParams params;
  params.new_stubs = 5;
  params.new_peerings = 4;
  evolve(truth, rng, params);
  EXPECT_EQ(truth.graph.as_count(), before_ases + 5);
  EXPECT_GT(truth.graph.link_count(), before_links);
}

TEST(Evolve, PreservesInvariants) {
  auto truth = generate(GenParams::preset("small"));
  util::Rng rng(7);
  for (int step = 0; step < 5; ++step) {
    evolve(truth, rng, EvolveParams{});
    EXPECT_TRUE(truth.graph.p2c_acyclic()) << "step " << step;
    for (const auto& [as, tier] : truth.tiers) {
      if (tier != Tier::kClique) {
        EXPECT_FALSE(truth.graph.providers(as).empty()) << "AS" << as.value();
      }
    }
  }
}

TEST(Evolve, NewStubsGetPrefixesAndTiers) {
  auto truth = generate(GenParams::preset("tiny"));
  util::Rng rng(5);
  EvolveParams params;
  params.new_stubs = 3;
  evolve(truth, rng, params);
  EXPECT_EQ(truth.originated.size(), truth.graph.as_count());
  EXPECT_EQ(truth.tiers.size(), truth.graph.as_count());
  std::set<Prefix> seen;
  for (const auto& [as, prefixes] : truth.originated) {
    for (const Prefix& p : prefixes) EXPECT_TRUE(seen.insert(p).second);
  }
}

}  // namespace
}  // namespace asrank::topogen
