#include <gtest/gtest.h>

#include <sstream>

#include "bgpsim/observation.h"
#include "topogen/topogen.h"
#include "validation/communities.h"
#include "validation/corpus.h"
#include "validation/ppv.h"
#include "validation/rpsl.h"
#include "validation/synthesize.h"

namespace asrank::validation {
namespace {

// -------------------------------------------------------------- corpus ----

TEST(Corpus, AddAndLookupOrderIndependent) {
  ValidationCorpus corpus;
  corpus.add({Asn(1), Asn(2), LinkType::kP2C, Source::kRpsl});
  const auto hit = corpus.lookup(Asn(2), Asn(1));
  ASSERT_TRUE(hit);
  EXPECT_EQ(hit->a, Asn(1));
  EXPECT_EQ(hit->type, LinkType::kP2C);
  EXPECT_FALSE(corpus.lookup(Asn(1), Asn(3)));
}

TEST(Corpus, TrustOrderResolvesConflicts) {
  ValidationCorpus corpus;
  corpus.add({Asn(1), Asn(2), LinkType::kP2P, Source::kRpsl});
  corpus.add({Asn(1), Asn(2), LinkType::kP2C, Source::kDirectReport});
  EXPECT_EQ(corpus.conflicts(), 1u);
  EXPECT_EQ(corpus.lookup(Asn(1), Asn(2))->type, LinkType::kP2C);
  EXPECT_EQ(corpus.lookup(Asn(1), Asn(2))->source, Source::kDirectReport);
  // A later, less-trusted conflicting claim does not displace it.
  corpus.add({Asn(1), Asn(2), LinkType::kP2P, Source::kCommunities});
  EXPECT_EQ(corpus.lookup(Asn(1), Asn(2))->type, LinkType::kP2C);
  EXPECT_EQ(corpus.conflicts(), 2u);
}

TEST(Corpus, AgreementIsNotConflict) {
  ValidationCorpus corpus;
  corpus.add({Asn(1), Asn(2), LinkType::kP2C, Source::kRpsl});
  corpus.add({Asn(1), Asn(2), LinkType::kP2C, Source::kCommunities});
  EXPECT_EQ(corpus.conflicts(), 0u);
  EXPECT_EQ(corpus.size(), 1u);
}

TEST(Corpus, P2pOrientationIrrelevant) {
  ValidationCorpus corpus;
  corpus.add({Asn(1), Asn(2), LinkType::kP2P, Source::kRpsl});
  corpus.add({Asn(2), Asn(1), LinkType::kP2P, Source::kDirectReport});
  EXPECT_EQ(corpus.conflicts(), 0u);
}

TEST(Corpus, SourceCountsAndDeterministicList) {
  ValidationCorpus corpus;
  corpus.add({Asn(1), Asn(2), LinkType::kP2C, Source::kRpsl});
  corpus.add({Asn(3), Asn(4), LinkType::kP2P, Source::kDirectReport});
  const auto counts = corpus.source_counts();
  EXPECT_EQ(counts.at(Source::kRpsl), 1u);
  EXPECT_EQ(counts.at(Source::kDirectReport), 1u);
  const auto all = corpus.assertions();
  ASSERT_EQ(all.size(), 2u);
  EXPECT_EQ(all[0].a, Asn(1));  // link-key order
}

// ---------------------------------------------------------------- rpsl ----

TEST(Rpsl, ParsesAutNumObjects) {
  std::stringstream text(
      "aut-num: AS64500\n"
      "as-name: EXAMPLE\n"
      "import: from AS64496 accept ANY\n"
      "export: to AS64496 announce AS64500\n"
      "\n"
      "aut-num: AS64501\n"
      "import: from AS64502 accept AS64502\n"
      "export: to AS64502 announce AS64501\n");
  const auto objects = parse_rpsl(text);
  ASSERT_EQ(objects.size(), 2u);
  EXPECT_EQ(objects[0].as, Asn(64500));
  ASSERT_EQ(objects[0].policies.size(), 1u);
  EXPECT_TRUE(objects[0].policies[0].import_any);
  EXPECT_FALSE(objects[0].policies[0].export_any);
}

TEST(Rpsl, ImportAnyMeansProvider) {
  std::stringstream text(
      "aut-num: AS100\n"
      "import: from AS200 accept ANY\n"
      "export: to AS200 announce AS100\n");
  const auto assertions = assertions_from_rpsl(parse_rpsl(text));
  ASSERT_EQ(assertions.size(), 1u);
  EXPECT_EQ(assertions[0].type, LinkType::kP2C);
  EXPECT_EQ(assertions[0].a, Asn(200));  // provider
  EXPECT_EQ(assertions[0].b, Asn(100));
  EXPECT_EQ(assertions[0].source, Source::kRpsl);
}

TEST(Rpsl, ExportAnyMeansCustomer) {
  std::stringstream text(
      "aut-num: AS100\n"
      "import: from AS300 accept AS300\n"
      "export: to AS300 announce ANY\n");
  const auto assertions = assertions_from_rpsl(parse_rpsl(text));
  ASSERT_EQ(assertions.size(), 1u);
  EXPECT_EQ(assertions[0].type, LinkType::kP2C);
  EXPECT_EQ(assertions[0].a, Asn(100));  // provider
  EXPECT_EQ(assertions[0].b, Asn(300));
}

TEST(Rpsl, SpecificBothWaysMeansPeer) {
  std::stringstream text(
      "aut-num: AS100\n"
      "import: from AS400 accept AS400\n"
      "export: to AS400 announce AS100\n");
  const auto assertions = assertions_from_rpsl(parse_rpsl(text));
  ASSERT_EQ(assertions.size(), 1u);
  EXPECT_EQ(assertions[0].type, LinkType::kP2P);
}

TEST(Rpsl, MutualAnyIsAmbiguousAndSkipped) {
  std::stringstream text(
      "aut-num: AS100\n"
      "import: from AS500 accept ANY\n"
      "export: to AS500 announce ANY\n");
  EXPECT_TRUE(assertions_from_rpsl(parse_rpsl(text)).empty());
}

TEST(Rpsl, OneSidedPolicySkipped) {
  std::stringstream text(
      "aut-num: AS100\n"
      "import: from AS600 accept ANY\n");
  EXPECT_TRUE(assertions_from_rpsl(parse_rpsl(text)).empty());
}

TEST(Rpsl, IgnoresCommentsAndUnknownAttributes) {
  std::stringstream text(
      "% RIPE database comment\n"
      "aut-num: AS100\n"
      "descr: an example network\n"
      "mnt-by: MAINT-EX\n"
      "# another comment\n"
      "import: from AS200 accept ANY\n"
      "export: to AS200 announce AS100\n");
  EXPECT_EQ(assertions_from_rpsl(parse_rpsl(text)).size(), 1u);
}

TEST(Rpsl, MalformedLinesThrow) {
  std::stringstream bad_aut("aut-num: banana\n");
  EXPECT_THROW((void)parse_rpsl(bad_aut), std::runtime_error);
  std::stringstream bad_import(
      "aut-num: AS100\n"
      "import: junk here\n");
  EXPECT_THROW((void)parse_rpsl(bad_import), std::runtime_error);
}

TEST(Rpsl, WriteParseRoundTrip) {
  std::vector<AutNum> objects(1);
  objects[0].as = Asn(64500);
  objects[0].policies.push_back(RpslPolicy{Asn(64496), true, false, true, true});
  objects[0].policies.push_back(RpslPolicy{Asn(64497), false, true, true, true});
  objects[0].policies.push_back(RpslPolicy{Asn(64498), false, false, true, true});
  std::stringstream text;
  write_rpsl(objects, text);
  const auto parsed = parse_rpsl(text);
  ASSERT_EQ(parsed.size(), 1u);
  ASSERT_EQ(parsed[0].policies.size(), 3u);
  const auto assertions = assertions_from_rpsl(parsed);
  ASSERT_EQ(assertions.size(), 3u);
  EXPECT_EQ(assertions[0].a, Asn(64496));  // provider of 64500
  EXPECT_EQ(assertions[1].a, Asn(64500));  // provider of 64497
  EXPECT_EQ(assertions[2].type, LinkType::kP2P);
}

// ----------------------------------------------------------- community ----

TEST(Communities, DecodeEachTag) {
  ConventionMap conventions;
  conventions.emplace(Asn(100), CommunityConvention{});
  auto route_with = [&](std::uint16_t value) {
    TaggedRoute route;
    route.path = AsPath{100, 200, 300};
    route.communities = {mrt::Community{100, value}};
    return route;
  };
  {
    const auto a = assertions_from_communities({route_with(100)}, conventions);
    ASSERT_EQ(a.size(), 1u);
    EXPECT_EQ(a[0].type, LinkType::kP2C);
    EXPECT_EQ(a[0].a, Asn(100));  // 200 is 100's customer
    EXPECT_EQ(a[0].b, Asn(200));
  }
  {
    const auto a = assertions_from_communities({route_with(300)}, conventions);
    ASSERT_EQ(a.size(), 1u);
    EXPECT_EQ(a[0].a, Asn(200));  // 200 provides to 100
    EXPECT_EQ(a[0].b, Asn(100));
  }
  {
    const auto a = assertions_from_communities({route_with(200)}, conventions);
    ASSERT_EQ(a.size(), 1u);
    EXPECT_EQ(a[0].type, LinkType::kP2P);
  }
  {
    const auto a = assertions_from_communities({route_with(999)}, conventions);
    EXPECT_TRUE(a.empty());  // unknown value
  }
}

TEST(Communities, UnknownTaggerIgnored) {
  ConventionMap conventions;  // empty
  TaggedRoute route;
  route.path = AsPath{100, 200};
  route.communities = {mrt::Community{100, 100}};
  EXPECT_TRUE(assertions_from_communities({route}, conventions).empty());
}

TEST(Communities, TaggerMidPath) {
  ConventionMap conventions;
  conventions.emplace(Asn(200), CommunityConvention{});
  TaggedRoute route;
  route.path = AsPath{100, 200, 300};
  route.communities = {mrt::Community{200, 100}};
  const auto a = assertions_from_communities({route}, conventions);
  ASSERT_EQ(a.size(), 1u);
  EXPECT_EQ(a[0].a, Asn(200));
  EXPECT_EQ(a[0].b, Asn(300));
}

TEST(Communities, TaggerLastHopYieldsNothing) {
  ConventionMap conventions;
  conventions.emplace(Asn(300), CommunityConvention{});
  TaggedRoute route;
  route.path = AsPath{100, 200, 300};
  route.communities = {mrt::Community{300, 100}};
  EXPECT_TRUE(assertions_from_communities({route}, conventions).empty());
}

// ----------------------------------------------------------------- ppv ----

TEST(Ppv, ScoresAgainstCorpus) {
  AsGraph inferred;
  inferred.add_p2c(Asn(1), Asn(2));  // correct
  inferred.add_p2c(Asn(3), Asn(4));  // wrong direction
  inferred.add_p2p(Asn(5), Asn(6));  // correct
  inferred.add_p2p(Asn(7), Asn(8));  // not validated
  ValidationCorpus corpus;
  corpus.add({Asn(1), Asn(2), LinkType::kP2C, Source::kDirectReport});
  corpus.add({Asn(4), Asn(3), LinkType::kP2C, Source::kRpsl});
  corpus.add({Asn(5), Asn(6), LinkType::kP2P, Source::kCommunities});
  const auto report = evaluate_ppv(inferred.freeze(), corpus);
  EXPECT_EQ(report.inferred_links, 4u);
  EXPECT_EQ(report.validated_links, 3u);
  EXPECT_NEAR(report.coverage(), 0.75, 1e-9);
  EXPECT_EQ(report.c2p.validated, 2u);
  EXPECT_EQ(report.c2p.correct, 1u);
  EXPECT_EQ(report.p2p.validated, 1u);
  EXPECT_EQ(report.p2p.correct, 1u);
  EXPECT_NEAR(report.overall.ppv(), 2.0 / 3.0, 1e-9);
  // Per-source cells.
  const auto& direct_c2p = report.cells[static_cast<std::size_t>(Source::kDirectReport)][0];
  EXPECT_EQ(direct_c2p.validated, 1u);
  EXPECT_EQ(direct_c2p.correct, 1u);
}

TEST(Ppv, EmptyCorpusGivesZeroCoverage) {
  AsGraph inferred;
  inferred.add_p2p(Asn(1), Asn(2));
  const auto report = evaluate_ppv(inferred.freeze(), ValidationCorpus{});
  EXPECT_EQ(report.validated_links, 0u);
  EXPECT_DOUBLE_EQ(report.coverage(), 0.0);
  EXPECT_DOUBLE_EQ(report.overall.ppv(), 0.0);
}

TEST(Ppv, TruthAccuracyCategories) {
  AsGraph truth;
  truth.add_p2c(Asn(1), Asn(2));
  truth.add_p2p(Asn(3), Asn(4));
  truth.add_s2s(Asn(5), Asn(6));

  AsGraph inferred;
  inferred.add_p2c(Asn(1), Asn(2));  // correct c2p
  inferred.add_p2c(Asn(3), Asn(4));  // true p2p inferred c2p: wrong
  inferred.add_p2p(Asn(5), Asn(6));  // sibling: excluded
  inferred.add_p2p(Asn(7), Asn(8));  // unknown link

  const auto result = evaluate_against_truth(inferred.freeze(), truth);
  EXPECT_EQ(result.compared, 3u);
  EXPECT_EQ(result.unknown_links, 1u);
  EXPECT_EQ(result.s2s_links, 1u);
  EXPECT_EQ(result.c2p.validated, 2u);
  EXPECT_EQ(result.c2p.correct, 1u);
  EXPECT_EQ(result.p2p.validated, 0u);
  EXPECT_DOUBLE_EQ(result.accuracy(), 0.5);
}

TEST(Ppv, DirectionErrorCounted) {
  AsGraph truth;
  truth.add_p2c(Asn(1), Asn(2));
  AsGraph inferred;
  inferred.add_p2c(Asn(2), Asn(1));  // flipped
  const auto result = evaluate_against_truth(inferred.freeze(), truth);
  EXPECT_EQ(result.direction_errors, 1u);
  EXPECT_EQ(result.c2p.correct, 0u);
}

// ------------------------------------------------------------ synthesis ---

class SynthesisTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    truth_ = new topogen::GroundTruth(topogen::generate(topogen::GenParams::preset("small")));
    bgpsim::ObservationParams params;
    params.full_vps = 10;
    params.partial_vps = 3;
    observation_ = new bgpsim::Observation(bgpsim::observe(*truth_, params));
  }
  static void TearDownTestSuite() {
    delete truth_;
    delete observation_;
    truth_ = nullptr;
    observation_ = nullptr;
  }
  static topogen::GroundTruth* truth_;
  static bgpsim::Observation* observation_;
};

topogen::GroundTruth* SynthesisTest::truth_ = nullptr;
bgpsim::Observation* SynthesisTest::observation_ = nullptr;

TEST_F(SynthesisTest, ProducesAllThreeSources) {
  const auto result = synthesize_validation(*truth_, *observation_, SynthesisParams{});
  EXPECT_GT(result.direct_assertions, 0u);
  EXPECT_GT(result.rpsl_assertions, 0u);
  EXPECT_GT(result.community_assertions, 0u);
  const auto counts = result.corpus.source_counts();
  EXPECT_GT(counts.at(Source::kDirectReport), 0u);
  EXPECT_GT(counts.at(Source::kRpsl), 0u);
  EXPECT_GT(counts.at(Source::kCommunities), 0u);
}

TEST_F(SynthesisTest, DeterministicForSeed) {
  const auto a = synthesize_validation(*truth_, *observation_, SynthesisParams{});
  const auto b = synthesize_validation(*truth_, *observation_, SynthesisParams{});
  EXPECT_EQ(a.corpus.assertions(), b.corpus.assertions());
}

TEST_F(SynthesisTest, MostAssertionsMatchGroundTruth) {
  const auto result = synthesize_validation(*truth_, *observation_, SynthesisParams{});
  std::size_t correct = 0, total = 0;
  for (const auto& assertion : result.corpus.assertions()) {
    const auto link = truth_->graph.link(assertion.a, assertion.b);
    if (!link) continue;  // stale RPSL ghost
    ++total;
    const bool match = link->type == assertion.type &&
                       (assertion.type != LinkType::kP2C || link->a == assertion.a);
    if (match) ++correct;
  }
  ASSERT_GT(total, 0u);
  EXPECT_GT(static_cast<double>(correct) / static_cast<double>(total), 0.95);
}

TEST_F(SynthesisTest, CoverageScalesWithParams) {
  SynthesisParams sparse;
  sparse.direct_link_fraction = 0.01;
  sparse.rpsl_as_fraction = 0.05;
  sparse.community_vp_fraction = 0.1;
  SynthesisParams dense;
  dense.direct_link_fraction = 0.3;
  dense.rpsl_as_fraction = 0.6;
  dense.community_vp_fraction = 1.0;
  const auto a = synthesize_validation(*truth_, *observation_, sparse);
  const auto b = synthesize_validation(*truth_, *observation_, dense);
  EXPECT_LT(a.corpus.size(), b.corpus.size());
}

TEST_F(SynthesisTest, RpslObjectsRoundTripThroughText) {
  const auto result = synthesize_validation(*truth_, *observation_, SynthesisParams{});
  ASSERT_FALSE(result.rpsl_objects.empty());
  std::stringstream text;
  write_rpsl(result.rpsl_objects, text);
  const auto parsed = parse_rpsl(text);
  EXPECT_EQ(parsed.size(), result.rpsl_objects.size());
}


// ------------------------------------------------------------- IRR synth --

TEST_F(SynthesisTest, IrrRouteObjectsMostlyCorrect) {
  const auto irr = synthesize_irr(*truth_, IrrSynthesisParams{});
  ASSERT_FALSE(irr.routes.empty());
  std::size_t correct = 0;
  for (const RouteObject& route : irr.routes) {
    const auto it = truth_->originated.find(route.origin);
    if (it == truth_->originated.end()) continue;
    if (std::find(it->second.begin(), it->second.end(), route.prefix) != it->second.end()) {
      ++correct;
    }
  }
  EXPECT_GT(static_cast<double>(correct) / static_cast<double>(irr.routes.size()), 0.95);
}

TEST_F(SynthesisTest, IrrCoverageScalesWithFraction) {
  IrrSynthesisParams sparse;
  sparse.route_object_fraction = 0.1;
  IrrSynthesisParams dense;
  dense.route_object_fraction = 0.9;
  EXPECT_LT(synthesize_irr(*truth_, sparse).routes.size(),
            synthesize_irr(*truth_, dense).routes.size());
}

TEST_F(SynthesisTest, IrrCustomerSetsMatchGroundTruth) {
  IrrSynthesisParams params;
  params.customer_set_fraction = 1.0;  // register everyone
  const auto irr = synthesize_irr(*truth_, params);
  ASSERT_FALSE(irr.as_sets.empty());
  for (const auto& [name, set] : irr.as_sets) {
    const auto colon = name.find(':');
    const auto owner = Asn::parse(name.substr(0, colon));
    ASSERT_TRUE(owner) << name;
    const auto customers = truth_->graph.customers(*owner);
    std::vector<Asn> want(customers.begin(), customers.end());
    std::sort(want.begin(), want.end());
    EXPECT_EQ(set.asn_members, want) << name;
  }
}

TEST_F(SynthesisTest, IrrDeterministic) {
  const auto a = synthesize_irr(*truth_, IrrSynthesisParams{});
  const auto b = synthesize_irr(*truth_, IrrSynthesisParams{});
  EXPECT_EQ(a.routes, b.routes);
  EXPECT_EQ(a.as_sets.size(), b.as_sets.size());
}

TEST_F(SynthesisTest, IrrRoundTripsThroughText) {
  const auto irr = synthesize_irr(*truth_, IrrSynthesisParams{});
  std::stringstream text;
  write_irr(irr, text);
  const auto parsed = parse_irr(text);
  EXPECT_EQ(parsed.routes.size(), irr.routes.size());
  EXPECT_EQ(parsed.as_sets.size(), irr.as_sets.size());
}

}  // namespace
}  // namespace asrank::validation
