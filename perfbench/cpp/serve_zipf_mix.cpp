// serve_zipf_mix: asrankd (task runtime) serving two mmap-loaded epochs of a
// large ground-truth topology on loopback, driven by one single-threaded
// generator with a Zipf-keyed mix of point lookups and heavy queries over
// binary-rail connections plus one text-rail connection.
#include <algorithm>
#include <memory>
#include <stdexcept>

#include "obs/metrics.h"
#include "serve/server.h"
#include "serve/snapshot_registry.h"
#include "snapshot/snapshot.h"
#include "workloads.h"

namespace perfbench {

namespace {

using namespace asrank;

void install_file(serve::SnapshotRegistry& registry, const std::string& path,
                  std::string_view label, Tracer& tracer, std::uint32_t parent) {
  auto index = [&] {
    Tracer::Scope span(tracer, "snapshot.map", parent);
    return snapshot::try_map_snapshot_file(path);
  }();
  if (!index.ok()) throw std::runtime_error("map " + path + ": " + index.error().message());
  Tracer::Scope span(tracer, "serve.install", parent);
  auto installed = registry.install(std::string(label), std::move(index).value());
  if (!installed.ok()) throw std::runtime_error("install: " + installed.error().message());
}

/// Set-up: map + install epoch A, start the server, first answer; then the
/// reload path: map + install epoch B until the server reports B current.
/// Returns {setup seconds, reload seconds}.
std::pair<double, double> set_up(Daemon& daemon, const Options& options,
                                 std::size_t server_threads, Tracer& tracer) {
  const std::string dir = options.fixture_dir + "/";
  const auto start = Clock::now();
  Tracer::Scope root(tracer, "serve.setup");
  daemon.registry = std::make_unique<serve::SnapshotRegistry>();
  install_file(*daemon.registry, dir + std::string(kServeEpochA) + ".asrk", kServeEpochA,
               tracer, root.id());
  serve::ServerConfig config;
  config.port = 0;
  config.threads = server_threads;
  daemon.start(config);
  if (served_epochs(daemon.server->port()).front() != kServeEpochA) {
    throw std::runtime_error("first answer not from epoch A");
  }
  const auto reload = Clock::now();
  install_file(*daemon.registry, dir + std::string(kServeEpochB) + ".asrk", kServeEpochB,
               tracer, root.id());
  if (served_epochs(daemon.server->port()).front() != kServeEpochB) {
    throw std::runtime_error("reload did not make epoch B current");
  }
  const auto done = Clock::now();
  return {seconds_between(start, done), seconds_between(reload, done)};
}

/// Server worker count and load connections for serve_zipf_mix: server
/// workers + generator thread stay within the process's CPUs.
struct ServePlan {
  std::size_t server_threads = 1;
  std::size_t binary_conns = 1;
  std::size_t text_conns = 0;
};

/// One CPU for the generator, the rest for the server's workers.
ServePlan plan_for(const std::vector<int>& cpus) {
  ServePlan plan;
  const std::size_t spare = cpus.size() > 1 ? cpus.size() - 1 : 1;
  plan.server_threads = spare;
  plan.binary_conns = spare;
  plan.text_conns = 1;
  return plan;
}

}  // namespace

Result run_serve_zipf_mix(const Options& options) {
  Result result;
  const std::vector<int> cpus = allowed_cpus();
  const ServePlan plan = plan_for(cpus);
  Tracer tracer(options.trace, "generator");
  // Server threads inherit the set-up thread's CPUs; the generator then
  // moves to the CPU left over.
  if (cpus.size() > 1) pin_thread({cpus.begin() + 1, cpus.end()});

  std::vector<double> setup_s, reload_s;
  Daemon daemon;
  for (int i = 0; i < kServeSetups; ++i) {
    if (i != 0) daemon.stop();
    const auto [setup, reload] = set_up(daemon, options, plan.server_threads, tracer);
    setup_s.push_back(setup);
    reload_s.push_back(reload);
    result.attempted += 2;
  }
  serve::SnapshotRegistry& registry = *daemon.registry;
  const std::uint16_t port = daemon.server->port();
  if (cpus.size() > 1) pin_thread({cpus.front()});

  // Keys: ASes resident in both epochs, most popular first by epoch B rank.
  const auto epoch_a = registry.epoch(kServeEpochA);
  const auto epoch_b = registry.epoch(kServeEpochB);
  std::vector<std::uint32_t> keys;
  for (const Asn as : epoch_b->index().ases()) {
    if (epoch_a->index().has_as(as)) keys.push_back(as.value());
  }
  // The mix's shares are assumptions, not measured traffic (README.md).
  MixParams mix_params;
  mix_params.heavy_share = 0.5;
  mix_params.scoped_share = 0.2;
  mix_params.scope_epoch = std::string(kServeEpochA);
  mix_params.diff_from = std::string(kServeEpochA);
  mix_params.diff_to = std::string(kServeEpochB);
  Mix mix(epoch_b->index(), std::move(keys), mix_params, options.seed);
  // The replays of the traced run answer the load's first draws again.
  const std::vector<MixRequest> replayed = draw(mix, options.trace ? kReplayed : 0);
  const RequestSource next = stream(mix);

  // The measured window: warm-up, open loop at a fixed rate, closed loop.
  OpenLoopConfig open;
  open.rate_qps = kServeRateQps;
  open.warmup_seconds = 0.1 * options.seconds;
  open.seconds = 0.5 * options.seconds;
  open.sample_every = kSampleEvery;
  open.keep_timings = options.trace;
  std::int64_t queue_depth_max = 0;
  std::vector<obs::Gauge*> depth_gauges;
  if (options.trace) {
    for (std::size_t w = 0; w < plan.server_threads; ++w) {
      depth_gauges.push_back(&obs::Registry::global().gauge(
          "asrankd_runtime_queue_depth", "", {{"worker", std::to_string(w)}}));
    }
    open.on_tick = [&] {
      for (const auto* gauge : depth_gauges) {
        queue_depth_max = std::max(queue_depth_max, gauge->value());
      }
    };
  }
  const auto gen = connect_load(port, plan.binary_conns, plan.text_conns, result);
  // One measured window: open loop, then closed loop, with the steal share
  // the host took meanwhile.  A window the host stole from (harness.h) is
  // measured again, up to kServeWindows in all, and the least stolen kept;
  // every window's requests count in attempted/failed, and every window's
  // sampled replies must equal the in-process handlers' bytes on the same
  // snapshots (checked outside the window).
  std::size_t sampled = 0, mismatches = 0;
  struct Window {
    Exposition before, after;
    LoadResult load, sat;
    double steal = 0.0;
  };
  const auto measure = [&] {
    Window w;
    const auto start = Clock::now();
    const std::uint64_t steal_start = steal_ticks();
    w.before = scrape();
    w.load = gen->open_loop(next, open);
    w.after = scrape();
    w.sat = gen->closed_loop(next, 0.4 * options.seconds);
    w.steal = steal_share(steal_start, steal_ticks(), seconds_between(start, Clock::now()));
    result.attempted += w.load.attempted + w.sat.attempted;
    result.failed += w.load.failed() + w.sat.failed();
    sampled += w.load.samples.size();
    mismatches += check_samples(registry, w.load.samples);
    return w;
  };
  Window kept = measure();
  int windows = 1;
  for (; windows < kServeWindows && kept.steal > kStealLimit; ++windows) {
    Window again = measure();
    if (again.steal < kept.steal) kept = std::move(again);
  }
  const Exposition& before = kept.before;
  const Exposition& after = kept.after;
  LoadResult& load = kept.load;
  LoadResult& sat = kept.sat;
  result.stamp["windows"] = std::to_string(windows);
  result.stamp["window_steal_pct"] = std::to_string(100.0 * kept.steal);

  result.check(sampled != 0, "no replies sampled for the byte check");
  result.check(mismatches == 0, std::to_string(mismatches) + " of " + std::to_string(sampled) +
                                    " sampled replies differ from the in-process handler");

  result.metrics["setup_s"] = quantile(setup_s, 0.5);
  result.metrics["freshness_s"] = quantile(reload_s, 0.5);
  result.metrics["query_p50_us"] = load.slot_latency(0.5);
  result.metrics["query_p90_us"] = load.slot_latency(0.9);
  result.metrics["client.query_p99_us"] = load.slot_latency(0.99);
  result.metrics["throughput_per_s"] = sat.slot_rate();
  result.stamp["stolen_slices"] = std::to_string(load.stolen_slots) + " open + " +
                                  std::to_string(sat.stolen_slots) + " closed of " +
                                  std::to_string(kSlots) + " each";
  result.metrics["peak_rss_mb"] = peak_rss_mb();
  result.stamp["server_threads"] = std::to_string(plan.server_threads);
  result.stamp["connections"] = std::to_string(plan.binary_conns) + " binary + " +
                                std::to_string(plan.text_conns) + " text";
  result.stamp["offered_qps"] = std::to_string(kServeRateQps);
  result.stamp["query_samples"] = std::to_string(load.latency_us.size());
  result.stamp["sat_completed"] = std::to_string(sat.completed);
  generator_layers(load, result);

  if (options.trace) {
    auto& m = result.metrics;
    const auto total = tracer.total_ms();
    const auto count = tracer.counts();
    for (const char* name : {"snapshot.map", "serve.install"}) {
      m[std::string(name) + "_ms"] = total.at(name) / static_cast<double>(count.at(name));
    }
    m["snapshot.bytes"] = static_cast<double>(
        read_file(options.fixture_dir + "/" + std::string(kServeEpochB) + ".asrk").size());
    runtime_layers(before, after, load.attempted, result);
    m["runtime.queue_depth_max"] = static_cast<double>(queue_depth_max);
    for (const auto& [op, us] : replay_engine(registry, mix, replayed)) {
      m["serve.engine_us." + op] = us;
    }
    const auto binary_us = replay_dispatch(registry, mix, replayed, false);
    const auto text_us = replay_dispatch(registry, mix, replayed, true);
    const double dispatch_p50 = quantile(binary_us, 0.5);
    const double rtt_p50 = quantile(load.rtt_us, 0.5);
    m["serve.dispatch_binary_us"] = dispatch_p50;
    m["serve.dispatch_text_us"] = quantile(text_us, 0.5);
    m["serve.response_bytes"] =
        load.completed == 0 ? 0.0
                            : static_cast<double>(load.response_bytes) /
                                  static_cast<double>(load.completed);
    m["serve.rtt_us"] = rtt_p50;
    m["serve.net_share"] = rtt_p50 <= 0 ? 0.0 : (rtt_p50 - dispatch_p50) / rtt_p50;
    for (const auto& t : load.timings) {
      const auto id = tracer.add("client.request", t.due, t.done, 0, t.seq);
      tracer.add("client.queue", t.due, t.sent, id, t.seq);
      tracer.add("client.rtt", t.sent, t.done, id, t.seq);
    }
    write_spans(options.trace_path, {&tracer});
  }
  return result;
}

}  // namespace perfbench
