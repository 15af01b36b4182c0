// Unit tests for the streaming ingest subsystem (src/ingest): the
// UpdateApplier route table, the FlushPolicy epoch scheduler, epoch label
// expansion, and the EpochBuilder's build-equals-batch contract on small
// corpora.  The heavyweight replay suite (every emitted epoch byte-
// identical to a from-scratch batch build over seeded bgpsim streams) lives
// in test_differential.cpp.
#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "bgpsim/observation.h"
#include "bgpsim/update_stream.h"
#include "ingest/epoch_builder.h"
#include "ingest/update_applier.h"
#include "mrt/bgp4mp.h"
#include "obs/metrics.h"
#include "paths/corpus.h"
#include "snapshot/snapshot.h"
#include "topogen/topogen.h"

namespace asrank {
namespace {

mrt::UpdateMessage announce(std::uint32_t peer, const char* prefix,
                            std::initializer_list<std::uint32_t> path) {
  mrt::UpdateMessage update;
  update.peer_as = Asn(peer);
  update.local_as = Asn(6447);
  update.announced = {*Prefix::parse(prefix)};
  update.attrs.as_path = AsPath(path);
  return update;
}

mrt::UpdateMessage withdraw(std::uint32_t peer, const char* prefix) {
  mrt::UpdateMessage update;
  update.peer_as = Asn(peer);
  update.local_as = Asn(6447);
  update.withdrawn = {*Prefix::parse(prefix)};
  return update;
}

std::string bytes_of(const snapshot::SnapshotIndex& index) {
  std::ostringstream os(std::ios::binary);
  snapshot::write_snapshot(index, os);
  return std::move(os).str();
}

TEST(UpdateApplier, AnnounceWithdrawReplaceLifecycle) {
  obs::Registry metrics;
  ingest::UpdateApplier applier(metrics);

  applier.apply(announce(100, "10.0.0.0/8", {100, 2, 1}));
  applier.apply(announce(100, "192.0.2.0/24", {100, 3}));
  applier.apply(announce(200, "10.0.0.0/8", {200, 1}));
  EXPECT_EQ(applier.route_count(), 3u);

  // Implicit replace: same (vp, prefix), new path.
  applier.apply(announce(100, "10.0.0.0/8", {100, 7, 1}));
  EXPECT_EQ(applier.route_count(), 3u);

  applier.apply(withdraw(100, "192.0.2.0/24"));
  EXPECT_EQ(applier.route_count(), 2u);
  // A withdrawal from a peer that never announced it is a counted no-op.
  applier.apply(withdraw(999, "192.0.2.0/24"));
  EXPECT_EQ(applier.route_count(), 2u);

  const auto& stats = applier.stats();
  EXPECT_EQ(stats.messages, 6u);
  EXPECT_EQ(stats.announced, 4u);
  EXPECT_EQ(stats.withdrawn, 2u);
  EXPECT_EQ(stats.noop_withdrawn, 1u);
  EXPECT_EQ(metrics
                .counter("asrank_ingest_updates_total", "", {{"kind", "announce"}})
                .value(),
            4u);
  EXPECT_EQ(metrics
                .counter("asrank_ingest_updates_total", "", {{"kind", "withdraw"}})
                .value(),
            2u);
  EXPECT_EQ(metrics.gauge("asrank_ingest_routes", "").value(), 2);

  // Corpus materializes in deterministic (vp, prefix) order with the
  // replacement path, not the original.
  const auto corpus = applier.corpus();
  EXPECT_EQ(corpus.size(), 2u);
}

TEST(UpdateApplier, RejectsAsSetAndEmptyPaths) {
  obs::Registry metrics;
  ingest::UpdateApplier applier(metrics);

  auto aggregated = announce(100, "10.0.0.0/8", {100, 1});
  aggregated.attrs.has_as_set = true;
  applier.apply(aggregated);
  EXPECT_EQ(applier.route_count(), 0u);
  EXPECT_EQ(applier.stats().as_set_rejected, 1u);
  EXPECT_EQ(metrics.counter("asrank_ingest_as_set_rejected_total", "").value(), 1u);

  auto empty_path = announce(100, "10.0.0.0/8", {});
  applier.apply(empty_path);
  EXPECT_EQ(applier.route_count(), 0u);
  EXPECT_EQ(applier.stats().empty_path_rejected, 1u);

  // A previously held route survives a rejected replacement.
  applier.apply(announce(100, "10.0.0.0/8", {100, 2, 1}));
  applier.apply(aggregated);
  EXPECT_EQ(applier.route_count(), 1u);
}

TEST(UpdateApplier, SeedMatchesAnnouncedState) {
  obs::Registry seeded_metrics;
  obs::Registry applied_metrics;
  ingest::UpdateApplier seeded(seeded_metrics);
  ingest::UpdateApplier applied(applied_metrics);
  seeded.seed(Asn(100), *Prefix::parse("10.0.0.0/8"), AsPath{100, 2, 1});
  applied.apply(announce(100, "10.0.0.0/8", {100, 2, 1}));
  EXPECT_EQ(seeded.route_count(), applied.route_count());
  EXPECT_EQ(seeded.stats().announced, 1u);
  EXPECT_EQ(seeded.stats().messages, 0u);  // a seed is not a message
}

TEST(UpdateApplier, MarkTracksMessagesSinceLastFlush) {
  obs::Registry metrics;
  ingest::UpdateApplier applier(metrics);
  applier.apply(announce(1, "10.0.0.0/8", {1, 2}));
  applier.apply(announce(1, "192.0.2.0/24", {1, 3}));
  EXPECT_EQ(applier.messages_since_mark(), 2u);
  applier.mark();
  EXPECT_EQ(applier.messages_since_mark(), 0u);
  applier.apply(withdraw(1, "10.0.0.0/8"));
  EXPECT_EQ(applier.messages_since_mark(), 1u);
}

TEST(FlushPolicy, CountTrigger) {
  ingest::FlushPolicy policy(3, 0, false);
  EXPECT_FALSE(policy.due(0));  // nothing pending, never due
  policy.applied(1);
  policy.applied(1);
  EXPECT_FALSE(policy.due(0));
  policy.applied(1);
  EXPECT_TRUE(policy.due(0));
  policy.flushed(0);
  EXPECT_EQ(policy.pending(), 0u);
  EXPECT_FALSE(policy.due(0));
}

TEST(FlushPolicy, IntervalTriggerNeedsPendingWork) {
  ingest::FlushPolicy policy(0, 500, false);
  policy.flushed(1000);
  EXPECT_FALSE(policy.due(10000));  // idle: no empty epochs
  policy.applied(1);
  EXPECT_FALSE(policy.due(1400));
  EXPECT_TRUE(policy.due(1500));
}

TEST(FlushPolicy, TimestampChangeTrigger) {
  ingest::FlushPolicy policy(0, 0, true);
  EXPECT_FALSE(policy.due_before(100));  // nothing buffered yet
  policy.applied(100);
  policy.applied(100);
  EXPECT_FALSE(policy.due_before(100));  // same batch
  EXPECT_TRUE(policy.due_before(160));   // stamp advanced: cut first
  policy.flushed(0);
  EXPECT_FALSE(policy.due_before(160));
}

TEST(EpochLabel, ExpandsSequenceTimestampAndPercent) {
  EXPECT_EQ(ingest::expand_epoch_label("epoch-%N", 7, 0), "epoch-000007");
  EXPECT_EQ(ingest::expand_epoch_label("epoch-%N", 1234567, 0), "epoch-1234567");
  EXPECT_EQ(ingest::expand_epoch_label("rib.%T", 1, 1367193600), "rib.1367193600");
  // %% is part of the format grammar, but a literal '%' is outside the
  // registry label alphabet, so any use of it fails label validation.
  EXPECT_THROW((void)ingest::expand_epoch_label("p%%q-%N", 2, 9),
               std::invalid_argument);
}

TEST(EpochLabel, RejectsBadFormatsAndBadExpansions) {
  EXPECT_THROW((void)ingest::expand_epoch_label("x%", 1, 1), std::invalid_argument);
  EXPECT_THROW((void)ingest::expand_epoch_label("x%Z", 1, 1), std::invalid_argument);
  EXPECT_THROW((void)ingest::expand_epoch_label("", 1, 1), std::invalid_argument);
  EXPECT_THROW((void)ingest::expand_epoch_label("bad/label-%N", 1, 1),
               std::invalid_argument);
  EXPECT_THROW((void)ingest::expand_epoch_label(std::string(70, 'a'), 1, 1),
               std::invalid_argument);
}

paths::PathCorpus observe_corpus(const topogen::GroundTruth& truth,
                                 std::uint64_t obs_seed) {
  bgpsim::ObservationParams params;
  params.seed = obs_seed;
  return paths::PathCorpus::from_records(bgpsim::observe(truth, params).routes);
}

TEST(EpochBuilder, FirstBuildIsFullAndMatchesBatch) {
  auto params = topogen::GenParams::preset("small");
  params.seed = 11;
  const auto truth = topogen::generate(params);
  const auto corpus = observe_corpus(truth, 12);

  obs::Registry metrics;
  ingest::EpochBuilder builder({}, metrics);
  ingest::EpochBuildInfo info;
  auto built = builder.build(corpus, &info);
  ASSERT_TRUE(built.ok());
  EXPECT_EQ(info.sequence, 1u);
  EXPECT_TRUE(info.cones.full_recompute);
  EXPECT_EQ(builder.epochs_built(), 1u);
  EXPECT_EQ(metrics.counter("asrank_ingest_epochs_emitted_total", "").value(), 1u);
  EXPECT_EQ(metrics.histogram("asrank_ingest_epoch_build_micros", "").count(), 1u);

  EXPECT_EQ(bytes_of(built.value()),
            bytes_of(ingest::EpochBuilder::batch_build(corpus)));
}

TEST(EpochBuilder, UnchangedCorpusRebuildsSameBytes) {
  auto params = topogen::GenParams::preset("small");
  params.seed = 31;
  const auto truth = topogen::generate(params);
  const auto corpus = observe_corpus(truth, 32);

  obs::Registry metrics;
  ingest::EpochBuilder builder({}, metrics);
  auto first = builder.build(corpus);
  ASSERT_TRUE(first.ok());

  auto second = builder.build(corpus);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(bytes_of(first.value()), bytes_of(second.value()));
}

TEST(EpochBuilder, ReplayedStreamThroughApplierMatchesBatch) {
  // End-to-end through the conveyor front half: bgpsim stream -> applier
  // table -> epoch, against a batch build of the applier's own corpus.
  auto params = topogen::GenParams::preset("small");
  params.seed = 51;
  auto truth = topogen::generate(params);
  bgpsim::ObservationParams obs_params;
  obs_params.seed = 52;
  bgpsim::UpdateStreamParams stream_params;
  stream_params.steps = 2;
  stream_params.seed = 53;
  stream_params.evolve.new_stubs = 4;
  stream_params.evolve.new_peerings = 2;
  const auto stream =
      bgpsim::generate_update_stream(truth, obs_params, stream_params);
  ASSERT_EQ(stream.size(), 3u);  // bootstrap + 2 evolution steps

  obs::Registry metrics;
  ingest::UpdateApplier applier(metrics);
  ingest::EpochBuilder builder({}, metrics);
  for (const auto& step : stream) {
    for (const auto& update : step.updates) applier.apply(update);
    const auto corpus = applier.corpus();
    auto built = builder.build(corpus);
    ASSERT_TRUE(built.ok()) << built.error().context;
    EXPECT_EQ(bytes_of(built.value()),
              bytes_of(ingest::EpochBuilder::batch_build(corpus)));
  }
  EXPECT_EQ(metrics.counter("asrank_ingest_epochs_emitted_total", "").value(), 3u);
}

}  // namespace
}  // namespace asrank
