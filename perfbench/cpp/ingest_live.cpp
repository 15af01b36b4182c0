// ingest_live: a multi-step BGP4MP stream fed on a fixed schedule through
// UpdateReader -> UpdateApplier -> FlushPolicy (cut per stream step) ->
// EpochBuilder::build -> SnapshotRegistry::install, the loop
// `asrank_cli ingest --serve-port` runs, while an open-loop generator sends
// point lookups to the embedded server.
#include <algorithm>
#include <atomic>
#include <fstream>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "bgpsim/observation.h"
#include "ingest/epoch_builder.h"
#include "ingest/update_applier.h"
#include "mrt/bgp4mp.h"
#include "mrt/table_dump_v2.h"
#include "obs/metrics.h"
#include "snapshot/snapshot.h"
#include "workloads.h"

namespace perfbench {

namespace {

using namespace asrank;

/// One stream step of the fixture: where its records end in updates.mrt,
/// how many there are, and the timestamp they carry.
struct Step {
  std::size_t end = 0;
  std::size_t updates = 0;
  std::uint32_t timestamp = 0;
};

std::vector<Step> read_steps(const std::string& path) {
  std::ifstream in(path);
  std::vector<Step> steps;
  Step step;
  while (in >> step.end >> step.updates >> step.timestamp) steps.push_back(step);
  if (steps.size() < kIngestEpochs) throw std::runtime_error("ingest fixture: too few steps");
  return steps;
}

/// What the ingest process holds between epochs.
struct Live {
  ingest::UpdateApplier applier;
  std::unique_ptr<ingest::EpochBuilder> builder;
  Daemon daemon;
  std::string label;
};

ingest::EpochBuilderConfig builder_config() {
  // Inference and closure pinned to one thread so ingest, server and
  // generator threads together stay within nproc.
  ingest::EpochBuilderConfig config;
  config.inference.threads = 1;
  config.cone_threads = 1;
  return config;
}

/// Blocks until the server answers from epoch `label`, probing every
/// 100 us; false after 10 s.
bool await_served(std::uint16_t port, const std::string& label) {
  const auto give_up = Clock::now() + std::chrono::seconds(10);
  while (Clock::now() < give_up) {
    if (served_epochs(port).front() == label) return true;
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  return false;
}

/// Set-up: decode and seed the base RIB, run the first full build, install
/// it, start the embedded server, and wait for its first answer.
std::unique_ptr<Live> set_up(const std::string& rib, std::size_t server_threads,
                             double& seconds) {
  const auto start = Clock::now();
  auto live = std::make_unique<Live>();
  {
    ByteBuf buf(rib.data(), rib.size());
    std::istream in(&buf);
    auto dump = mrt::try_read_table_dump_v2(in);
    if (!dump.ok()) throw std::runtime_error("base RIB: " + dump.error().message());
    for (const auto& route : bgpsim::from_rib_dump(dump.value())) {
      live->applier.seed(route.vp, route.prefix, route.path);
    }
  }
  live->builder = std::make_unique<ingest::EpochBuilder>(builder_config());
  auto built = live->builder->build(live->applier.corpus());
  if (!built.ok()) throw std::runtime_error("first build: " + built.error().message());
  serve::SnapshotRegistryConfig registry_config;
  registry_config.retention = 8;  // the CLI's ingest default
  live->daemon.registry = std::make_unique<serve::SnapshotRegistry>(registry_config);
  live->label = ingest::expand_epoch_label("epoch-%N", 1, 0);
  auto installed = live->daemon.registry->install(live->label, std::move(built).value());
  if (!installed.ok()) throw std::runtime_error("install: " + installed.error().message());
  serve::ServerConfig config;
  config.port = 0;
  config.threads = server_threads;
  live->daemon.start(config);
  if (!await_served(live->daemon.server->port(), live->label)) {
    throw std::runtime_error("embedded server never answered from the first epoch");
  }
  seconds = seconds_between(start, Clock::now());
  return live;
}

/// An epoch kept for the batch-equality check.
struct Kept {
  std::string label;
  paths::PathCorpus corpus;
  std::shared_ptr<serve::QueryEngine> engine;
};

std::string asrk_bytes(const snapshot::SnapshotIndex& index) {
  std::ostringstream out;
  if (!snapshot::try_write_snapshot(index, out).ok()) {
    throw std::runtime_error("snapshot serialization failed");
  }
  return std::move(out).str();
}

}  // namespace

Result run_ingest_live(const Options& options) {
  Result result;
  const std::string rib = read_file(options.fixture_dir + "/rib.mrt");
  const std::string updates = read_file(options.fixture_dir + "/updates.mrt");
  const auto steps = read_steps(options.fixture_dir + "/steps.txt");
  // One CPU each for the generator and the ingest thread, the rest for the
  // server's workers (which inherit the set-up thread's CPUs).
  const std::vector<int> cpus = allowed_cpus();
  const bool pinned = cpus.size() >= 4;
  const std::size_t server_threads = pinned ? cpus.size() - 2 : 1;
  if (pinned) pin_thread({cpus.begin() + 2, cpus.end()});
  Tracer tracer(options.trace, "ingest");

  std::vector<double> setup_s;
  std::unique_ptr<Live> live;
  for (int i = 0; i < kIngestSetups; ++i) {
    live.reset();
    double seconds = 0.0;
    live = set_up(rib, server_threads, seconds);
    setup_s.push_back(seconds);
    ++result.attempted;
  }
  serve::SnapshotRegistry& registry = *live->daemon.registry;
  const std::uint16_t port = live->daemon.server->port();
  if (pinned) pin_thread({cpus[1]});

  // Point lookups keyed over the first epoch's ASes (evolution only adds
  // ASes, so every key stays answerable).
  const auto first = registry.current();
  std::vector<std::uint32_t> keys;
  for (const Asn as : first->index().ases()) keys.push_back(as.value());
  MixParams mix_params;
  mix_params.heavy_share = 0.0;
  Mix mix(first->index(), std::move(keys), mix_params, options.seed);
  const std::vector<MixRequest> replayed = draw(mix, options.trace ? kReplayed : 0);
  const RequestSource next = stream(mix);  // used by the generator thread only

  OpenLoopConfig open;
  open.rate_qps = kIngestRateQps;
  open.warmup_seconds = 0.05 * options.seconds;
  open.seconds = 0.95 * options.seconds;
  open.keep_timings = options.trace;
  std::atomic<std::int64_t> ebr_pending_max{0};
  obs::Gauge& ebr_pending = obs::Registry::global().gauge("asrankd_ebr_pending_reclaims");
  const auto sample_ebr = [&] {
    std::int64_t seen = ebr_pending_max.load(std::memory_order_relaxed);
    const std::int64_t now = ebr_pending.value();
    while (now > seen && !ebr_pending_max.compare_exchange_weak(seen, now)) {
    }
  };
  if (options.trace) open.on_tick = sample_ebr;

  // The feed: step k is due at start + k * period; one epoch per step.
  const auto gen = connect_load(port, server_threads, 0, result);
  ingest::FlushPolicy policy(0, 0, /*on_timestamp_change=*/true);
  ByteBuf buf(updates.data(), 0);
  std::istream in(&buf);
  mrt::UpdateReader reader(in);
  const double period = options.seconds / static_cast<double>(kIngestEpochs + 1);

  std::vector<double> lag_s, build_ms, corpus_ms, install_ms, late_ms, dirty, updates_per_s;
  std::vector<double> epoch_steal;  ///< steal share from feed start to first answer
  std::uint64_t full_closures = 0, epoch_failures = 0, applied = 0;
  double decode_ns = 0.0, apply_ns = 0.0;
  std::vector<Kept> kept;
  std::uint32_t last_ts = 0;

  const Exposition before = scrape();
  LoadResult load;
  std::exception_ptr gen_error;
  std::thread generator([&] {
    try {
      if (pinned) pin_thread({cpus[0]});
      load = gen->open_loop(next, open);
    } catch (...) {
      gen_error = std::current_exception();
    }
  });
  struct Joiner {
    std::thread& thread;
    ~Joiner() {
      if (thread.joinable()) thread.join();
    }
  } joiner{generator};
  const auto start = Clock::now();
  for (std::size_t k = 1; k <= kIngestEpochs; ++k) {
    const auto due = start + std::chrono::duration_cast<Clock::duration>(
                                 std::chrono::duration<double>(period * static_cast<double>(k)));
    std::this_thread::sleep_until(due);
    const auto epoch_start = Clock::now();
    const std::uint64_t steal_start = steal_ticks();
    late_ms.push_back(std::max(0.0, micros_between(due, epoch_start) / 1000.0));
    const Step& step = steps[k - 1];
    Tracer::Scope epoch_span(tracer, "ingest.epoch", 0, k);

    // Feed this step's records as they "arrive": the reader sees the stream
    // up to the step's end and stops at a clean end-of-stream.
    buf.extend(updates.data(), step.end);
    in.clear();
    const std::uint64_t applied_before = applied;
    const auto feed_start = Clock::now();
    {
      Tracer::Scope feed(tracer, "ingest.feed", epoch_span.id(), k);
      while (true) {
        const auto t0 = options.trace ? Clock::now() : Clock::time_point{};
        auto next = reader.next();
        const auto t1 = options.trace ? Clock::now() : Clock::time_point{};
        if (!next.ok()) throw std::runtime_error("update stream: " + next.error().message());
        if (!next.value().has_value()) break;
        const mrt::UpdateMessage message = std::move(*std::move(next).value());
        if (policy.due_before(message.timestamp)) {
          throw std::runtime_error("stream step mixes timestamps");
        }
        live->applier.apply(message);
        policy.applied(message.timestamp);
        last_ts = message.timestamp;
        ++applied;
        if (options.trace) {
          decode_ns += static_cast<double>((t1 - t0).count());
          apply_ns += static_cast<double>((Clock::now() - t1).count());
        }
      }
    }
    const auto fed = Clock::now();
    const double feed_rate =
        static_cast<double>(applied - applied_before) / seconds_between(feed_start, fed);

    // The clock reaches the next stream stamp: FlushPolicy cuts the epoch.
    const std::uint32_t next_ts = k < steps.size() ? steps[k].timestamp : last_ts + 1;
    if (!policy.due_before(next_ts)) continue;
    Kept keep;
    auto t = Clock::now();
    {
      Tracer::Scope span(tracer, "ingest.corpus", epoch_span.id(), k);
      keep.corpus = live->applier.corpus();
    }
    corpus_ms.push_back(micros_between(t, Clock::now()) / 1000.0);
    ingest::EpochBuildInfo info;
    t = Clock::now();
    auto built = [&] {
      Tracer::Scope span(tracer, "ingest.build", epoch_span.id(), k);
      return live->builder->build(keep.corpus, &info);
    }();
    build_ms.push_back(micros_between(t, Clock::now()) / 1000.0);
    if (!built.ok()) {
      ++epoch_failures;
      result.check(false, "epoch build failed: " + built.error().message());
      continue;
    }
    dirty.push_back(info.cones.dirty_fraction);
    full_closures += info.cones.full_recompute ? 1 : 0;
    keep.label = ingest::expand_epoch_label("epoch-%N", info.sequence, last_ts);
    t = Clock::now();
    {
      Tracer::Scope span(tracer, "serve.install", epoch_span.id(), k);
      auto installed = registry.install(keep.label, std::move(built).value());
      if (!installed.ok()) throw std::runtime_error("install: " + installed.error().message());
      keep.engine = std::move(installed).value();
    }
    install_ms.push_back(micros_between(t, Clock::now()) / 1000.0);
    live->applier.mark();
    policy.flushed(0);
    sample_ebr();
    bool served = false;
    {
      Tracer::Scope span(tracer, "serve.first_answer", epoch_span.id(), k);
      served = await_served(port, keep.label);
    }
    if (!served) {
      ++epoch_failures;
      continue;
    }
    lag_s.push_back(seconds_between(fed, Clock::now()));
    updates_per_s.push_back(feed_rate);
    epoch_steal.push_back(
        steal_share(steal_start, steal_ticks(), seconds_between(epoch_start, Clock::now())));
    if (k % 5 == 0 || k == kIngestEpochs) kept.push_back(std::move(keep));
  }
  generator.join();
  if (gen_error) std::rethrow_exception(gen_error);
  const Exposition after = scrape();

  result.attempted += kIngestEpochs + load.attempted;
  result.failed += epoch_failures + load.failed();

  // Output check, outside the timed loop: sampled epochs equal a batch build
  // of the same corpus byte for byte.
  for (const auto& epoch : kept) {
    const auto reference =
        ingest::EpochBuilder::batch_build(epoch.corpus, live->builder->config());
    result.check(asrk_bytes(epoch.engine->index()) == asrk_bytes(reference),
                 "epoch " + epoch.label + " differs from a batch build of its corpus");
  }
  result.check(kept.size() >= 3, "too few epochs kept for the batch check");

  // Warm-up: the first two epochs are discarded from the lag.
  const std::size_t warm = std::min<std::size_t>(2, lag_s.size());
  const std::vector<double> steady_steal(epoch_steal.begin() + warm, epoch_steal.end());
  std::size_t stolen_epochs = 0;
  const auto steady = unstolen({lag_s.begin() + warm, lag_s.end()}, steady_steal, &stolen_epochs);
  result.check(!steady.empty(), "no epoch was served");
  result.metrics["setup_s"] = quantile(setup_s, 0.5);
  result.metrics["freshness_s"] = quantile(steady, 0.5);
  result.metrics["query_p50_us"] = load.slot_latency(0.5);
  result.metrics["client.query_p99_us"] = load.slot_latency(0.99);
  result.metrics["query_p90_us"] = load.slot_latency(0.9);
  result.metrics["throughput_per_s"] =
      quantile(unstolen({updates_per_s.begin() + warm, updates_per_s.end()}, steady_steal), 0.5);
  result.stamp["stolen_slices"] = std::to_string(load.stolen_slots) + " of " +
                                  std::to_string(kSlots);
  result.stamp["stolen_epochs"] = std::to_string(stolen_epochs) + " of " +
                                  std::to_string(steady_steal.size());
  result.metrics["peak_rss_mb"] = peak_rss_mb();
  result.stamp["threads"] = "ingest 1 (inference 1) + server " +
                            std::to_string(server_threads) + " + generator 1" +
                            (pinned ? ", pinned" : "");
  result.stamp["connections"] = std::to_string(server_threads) + " binary";
  result.stamp["offered_qps"] = std::to_string(kIngestRateQps);
  result.stamp["epochs"] = std::to_string(lag_s.size());
  result.stamp["updates_applied"] = std::to_string(applied);
  result.stamp["query_samples"] = std::to_string(load.latency_us.size());
  result.stamp["table_routes"] = std::to_string(live->applier.route_count());
  result.stamp["feed_late_max_ms"] = std::to_string(
      late_ms.empty() ? 0.0 : *std::max_element(late_ms.begin(), late_ms.end()));
  generator_layers(load, result);

  if (options.trace) {
    auto& m = result.metrics;
    const double epochs = static_cast<double>(std::max<std::size_t>(1, build_ms.size()));
    const auto stage_ms = [&](const char* stage) {
      return delta(before, after, "asrank_stage_duration_micros_sum",
                   std::string("stage=\"") + stage + "\"") / 1000.0 / epochs;
    };
    const double n_applied = static_cast<double>(std::max<std::uint64_t>(1, applied));
    m["mrt.update_decode_ns"] = decode_ns / n_applied;
    m["mrt.updates_skipped"] = static_cast<double>(reader.stats().skipped());
    m["mrt.updates"] = static_cast<double>(reader.stats().updates);
    m["paths.sanitize_ms"] = stage_ms("sanitize");
    for (const char* stage : {"degree_tally", "clique", "poisoned_scan", "voting",
                              "valley_fixpoint", "finalize", "cone_incremental"}) {
      m[std::string("core.") + stage + "_ms"] = stage_ms(stage);
    }
    m["ingest.apply_ns"] = apply_ns / n_applied;
    m["ingest.corpus_ms"] = quantile(corpus_ms, 0.5);
    m["ingest.build_ms"] = quantile(build_ms, 0.5);
    m["ingest.dirty_fraction"] = quantile(dirty, 0.5);
    m["ingest.epochs_built"] = static_cast<double>(build_ms.size());
    m["ingest.full_closures"] = static_cast<double>(full_closures);
    m["serve.install_ms"] = quantile(install_ms, 0.5);
    m["serve.ebr_pending_max"] = static_cast<double>(ebr_pending_max.load());
    runtime_layers(before, after, load.attempted, result);
    const auto binary_us = replay_dispatch(registry, mix, replayed, false);
    const double dispatch_p50 = quantile(binary_us, 0.5);
    const double rtt_p50 = quantile(load.rtt_us, 0.5);
    m["serve.dispatch_binary_us"] = dispatch_p50;
    m["serve.rtt_us"] = rtt_p50;
    m["serve.net_share"] = rtt_p50 <= 0 ? 0.0 : (rtt_p50 - dispatch_p50) / rtt_p50;
    for (const auto& t : load.timings) {
      const auto id = tracer.add("client.request", t.due, t.done, 0, t.seq);
      tracer.add("client.queue", t.due, t.sent, id, t.seq);
      tracer.add("client.rtt", t.sent, t.done, id, t.seq);
    }
    const auto self = tracer.self_ms();
    if (const auto it = self.find("ingest.epoch"); it != self.end()) {
      m["ingest.epoch_self_ms"] = it->second / epochs;
    }
    write_spans(options.trace_path, {&tracer});
  }
  return result;
}

}  // namespace perfbench
