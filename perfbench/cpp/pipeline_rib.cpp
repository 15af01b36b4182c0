// pipeline_rib: a TABLE_DUMP_V2 RIB through decode -> AsRankInference ->
// recursive cones -> snapshot build/write/map -> first QueryEngine answer,
// the path `asrank_cli snapshot --mrt <rib> --algorithm asrank` runs, with
// library-default threads.
#include <sys/wait.h>

#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <memory>
#include <stdexcept>
#include <unordered_map>

#include "bgpsim/observation.h"
#include "core/asrank.h"
#include "core/cones.h"
#include "mrt/table_dump_v2.h"
#include "paths/corpus.h"
#include "serve/query_engine.h"
#include "serve/snapshot_registry.h"
#include "snapshot/snapshot.h"
#include "workloads.h"

namespace perfbench {

namespace {

using namespace asrank;

struct Pass {
  double seconds = 0.0;
  std::size_t routes = 0;
  std::size_t first_answer = 0;  ///< sum of the top-10 cone sizes
  paths::SanitizeStats sanitize;
  std::unique_ptr<serve::QueryEngine> engine;
};

/// One pass from RIB bytes to the first served answer.  Threads: 0 means
/// all hardware threads, the library (and CLI) default.
Pass run_pass(const std::string& rib, const std::string& snapshot_path, Tracer& tracer) {
  Pass pass;
  const auto start = Clock::now();
  Tracer::Scope root(tracer, "pipeline.pass");

  std::vector<bgpsim::ObservedRoute> routes;
  {
    Tracer::Scope span(tracer, "mrt.rib_decode", root.id());
    ByteBuf buf(rib.data(), rib.size());
    std::istream in(&buf);
    auto dump = mrt::try_read_table_dump_v2(in);
    if (!dump.ok()) throw std::runtime_error("rib decode: " + dump.error().message());
    routes = bgpsim::from_rib_dump(dump.value());
  }
  pass.routes = routes.size();
  paths::PathCorpus corpus;
  {
    Tracer::Scope span(tracer, "paths.corpus", root.id());
    corpus = paths::PathCorpus::from_records(routes);
  }
  core::Degrees degrees;
  {
    Tracer::Scope span(tracer, "core.transit_degrees", root.id());
    degrees = core::Degrees::compute(corpus, 0);
  }
  core::InferenceResult inferred;
  {
    Tracer::Scope span(tracer, "core.infer", root.id());
    inferred = core::AsRankInference(core::InferenceConfig{}).run(corpus);
  }
  pass.sanitize = inferred.audit.sanitize;
  ConeMap cones;
  {
    Tracer::Scope span(tracer, "core.cone_closure", root.id());
    cones = core::recursive_cone(inferred.graph, 0);
  }
  snapshot::SnapshotIndex index;
  {
    Tracer::Scope span(tracer, "snapshot.build", root.id());
    std::unordered_map<Asn, std::size_t> transit;
    for (const Asn as : inferred.graph.ases()) transit[as] = degrees.transit_degree(as);
    index = snapshot::build_snapshot(inferred.graph, transit, cones, inferred.clique);
  }
  {
    Tracer::Scope span(tracer, "snapshot.write", root.id());
    snapshot::write_snapshot_file(index, snapshot_path);
  }
  std::shared_ptr<const snapshot::SnapshotIndex> mapped;
  {
    Tracer::Scope span(tracer, "snapshot.map", root.id());
    auto loaded = snapshot::SnapshotIndex::map_file(snapshot_path);
    if (!loaded.ok()) throw std::runtime_error("map: " + loaded.error().message());
    mapped = std::make_shared<const snapshot::SnapshotIndex>(std::move(loaded).value());
  }
  {
    Tracer::Scope span(tracer, "serve.first_answer", root.id());
    pass.engine = std::make_unique<serve::QueryEngine>(mapped);
    for (const auto& entry : pass.engine->top(10)) pass.first_answer += entry.cone_size;
  }
  pass.seconds = seconds_between(start, Clock::now());
  return pass;
}

/// A cold pass in a forked child (fresh heap, fresh thread pools, nothing
/// warmed by earlier passes): its wall seconds, or throws.
double cold_pass_in_child(const std::string& rib, const std::string& snapshot_path) {
  int fds[2];
  if (::pipe(fds) != 0) throw std::runtime_error("pipe failed");
  const pid_t pid = ::fork();
  if (pid < 0) throw std::runtime_error("fork failed");
  if (pid == 0) {
    ::close(fds[0]);
    double seconds = -1.0;
    try {
      Tracer off(false, "cold");
      seconds = run_pass(rib, snapshot_path, off).seconds;
    } catch (...) {
    }
    const bool ok = ::write(fds[1], &seconds, sizeof seconds) == sizeof seconds;
    ::_exit(ok && seconds >= 0 ? 0 : 1);
  }
  ::close(fds[1]);
  double seconds = -1.0;
  const bool got = ::read(fds[0], &seconds, sizeof seconds) == sizeof seconds;
  ::close(fds[0]);
  int status = 0;
  ::waitpid(pid, &status, 0);
  if (!got || !WIFEXITED(status) || WEXITSTATUS(status) != 0 || seconds < 0) {
    throw std::runtime_error("cold pass child failed");
  }
  return seconds;
}

/// Answer mix requests on a freshly mapped engine, timing each; returns the
/// per-request microseconds.
std::vector<double> answer(serve::QueryEngine& engine, const std::vector<MixRequest>& requests,
                           std::vector<std::vector<double>>& per_op) {
  std::vector<double> latency_us;
  latency_us.reserve(requests.size());
  std::size_t sink = 0;
  for (const auto& request : requests) {
    const auto t0 = Clock::now();
    sink += ask(engine, request, nullptr, nullptr);  // one epoch: no CONEDIFF
    const double us = micros_between(t0, Clock::now());
    latency_us.push_back(us);
    per_op[static_cast<std::size_t>(request.op)].push_back(us);
  }
  if (sink == 0) throw std::runtime_error("every answer was empty");
  return latency_us;
}

/// One input RIB and what its passes measured.
struct Rib {
  std::string bytes;
  std::string reference;  ///< ASRK1 bytes of its cold pass
  std::vector<MixRequest> requests;
  std::size_t first_answer = 0;
  std::size_t routes = 0;
  std::vector<double> pass_s, p50_us, p90_us, p99_us;
  std::vector<double> steal;  ///< steal share each pass saw (harness.h)
};

/// Mean over RIBs of the median of each RIB's unstolen samples.
double mean_of_medians(const std::vector<Rib>& ribs, std::vector<double> Rib::*samples) {
  double sum = 0.0;
  for (const Rib& rib : ribs) sum += quantile(unstolen(rib.*samples, rib.steal), 0.5);
  return sum / static_cast<double>(ribs.size());
}

}  // namespace

Result run_pipeline_rib(const Options& options) {
  Result result;
  std::vector<Rib> ribs(kRibs);
  for (std::size_t i = 0; i < kRibs; ++i) {
    ribs[i].bytes = read_file(options.fixture_dir + "/rib-" + std::to_string(i) + ".mrt");
  }
  const std::string path = options.work_dir + "/pass.asrk";
  Tracer tracer(options.trace, "pipeline");

  // Set-up: the cold first pass a batch user pays on every run, a few times
  // per RIB, each in a fresh child.  Must run before this process starts
  // any thread.
  std::vector<double> cold, cold_steal;
  for (std::size_t i = 0; i < kRibs; ++i) {
    const std::string cold_path = options.work_dir + "/cold-" + std::to_string(i) + ".asrk";
    for (std::size_t rep = 0; rep < kColdPassesPerRib; ++rep) {
      const std::uint64_t steal_start = steal_ticks();
      cold.push_back(cold_pass_in_child(ribs[i].bytes, cold_path));
      cold_steal.push_back(steal_share(steal_start, steal_ticks(), cold.back()));
      ++result.attempted;
      const std::string bytes = read_file(cold_path);
      if (rep == 0) ribs[i].reference = bytes;
      result.check(bytes == ribs[i].reference, "cold passes of one RIB differ");
    }

    // The RIB's query mix, keyed over its own snapshot.
    auto index = snapshot::SnapshotIndex::map_file(cold_path);
    if (!index.ok()) throw std::runtime_error("map: " + index.error().message());
    std::vector<std::uint32_t> keys;
    for (const Asn as : index.value().ases()) keys.push_back(as.value());
    Mix mix(index.value(), std::move(keys), MixParams{}, options.seed * kRibs + i);
    for (std::size_t n = 0; n < kAnswersPerPass; ++n) ribs[i].requests.push_back(mix.next());
  }

  // This process's own first pass warms it up and is discarded.
  {
    Tracer off(false, "warmup");
    Pass warm = run_pass(ribs[0].bytes, path, off);
    ++result.attempted;
    warm.engine.reset();
    result.check(read_file(path) == ribs[0].reference,
                 "warm-up pass ASRK1 bytes differ from the cold pass");
  }

  std::vector<std::vector<double>> per_op(kMixOpCount);
  std::size_t passes = 0;
  double input_records = 0.0, output_records = 0.0, decoded_routes = 0.0;
  const Exposition before = scrape();
  const auto deadline = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                           std::chrono::duration<double>(options.seconds));
  while (passes < 2 * kRibs || Clock::now() < deadline) {
    Rib& rib = ribs[passes % kRibs];
    const auto pass_start = Clock::now();
    const std::uint64_t steal_start = steal_ticks();
    Pass pass = run_pass(rib.bytes, path, tracer);
    ++passes;
    ++result.attempted;
    rib.pass_s.push_back(pass.seconds);
    rib.routes = pass.routes;
    decoded_routes += static_cast<double>(pass.routes);
    input_records += static_cast<double>(pass.sanitize.input_records);
    output_records += static_cast<double>(pass.sanitize.output_records);
    const auto latency = answer(*pass.engine, rib.requests, per_op);
    result.attempted += rib.requests.size();
    rib.p50_us.push_back(quantile(latency, 0.5));
    rib.p90_us.push_back(quantile(latency, 0.9));
    rib.p99_us.push_back(quantile(latency, 0.99));
    rib.steal.push_back(
        steal_share(steal_start, steal_ticks(), seconds_between(pass_start, Clock::now())));
    pass.engine.reset();  // unmap before the next pass rewrites the file
    // Output checks, outside the timed pass.
    if (rib.first_answer == 0) rib.first_answer = pass.first_answer;
    result.check(pass.first_answer == rib.first_answer, "first answer changed between passes");
    result.check(read_file(path) == rib.reference,
                 "pass ASRK1 bytes differ from the cold pass of the same RIB");
  }
  const Exposition after = scrape();

  double routes_per_s = 0.0, snapshot_bytes = 0.0;
  std::size_t stolen_passes = 0;
  for (const Rib& rib : ribs) {
    routes_per_s += static_cast<double>(rib.routes) /
                    quantile(unstolen(rib.pass_s, rib.steal, &stolen_passes), 0.5);
    snapshot_bytes += static_cast<double>(rib.reference.size());
  }
  std::size_t stolen_cold = 0;
  result.metrics["setup_s"] = quantile(unstolen(cold, cold_steal, &stolen_cold), 0.5);
  result.stamp["stolen_passes"] = std::to_string(stolen_passes) + " of " +
                                  std::to_string(passes) + ", cold " +
                                  std::to_string(stolen_cold) + " of " +
                                  std::to_string(cold.size());
  result.metrics["freshness_s"] = mean_of_medians(ribs, &Rib::pass_s);
  result.metrics["throughput_per_s"] = routes_per_s / kRibs;
  result.metrics["query_p50_us"] = mean_of_medians(ribs, &Rib::p50_us);
  result.metrics["query_p90_us"] = mean_of_medians(ribs, &Rib::p90_us);
  result.metrics["client.query_p99_us"] = mean_of_medians(ribs, &Rib::p99_us);
  result.metrics["peak_rss_mb"] = peak_rss_mb();
  result.stamp["ribs"] = std::to_string(kRibs);
  result.stamp["passes"] = std::to_string(passes);
  result.stamp["answers_per_pass"] = std::to_string(kAnswersPerPass);
  result.stamp["threads"] = "library default (" + std::to_string(options.nproc) + ")";

  if (options.trace) {
    const double n = static_cast<double>(passes);
    const auto total = tracer.total_ms();
    const auto at = [&total](const char* name) {
      const auto it = total.find(name);
      return it == total.end() ? 0.0 : it->second;
    };
    const auto stage_ms = [&](const char* stage) {
      return delta(before, after, "asrank_stage_duration_micros_sum",
                   std::string("stage=\"") + stage + "\"") / 1000.0 / n;
    };
    auto& m = result.metrics;
    m["mrt.rib_decode_ms"] = at("mrt.rib_decode") / n;
    m["mrt.rib_routes"] = decoded_routes / n;
    m["paths.sanitize_ms"] = stage_ms("sanitize");
    m["paths.input_records"] = input_records / n;
    m["paths.kept_ratio"] = input_records == 0 ? 0.0 : output_records / input_records;
    double stages = m["paths.sanitize_ms"];
    for (const char* stage : {"degree_tally", "clique", "poisoned_scan", "voting",
                              "valley_fixpoint", "finalize"}) {
      m[std::string("core.") + stage + "_ms"] = stage_ms(stage);
      stages += stage_ms(stage);
    }
    m["core.transit_degrees_ms"] = at("core.transit_degrees") / n;
    m["core.infer_ms"] = at("core.infer") / n;
    m["core.infer_self_ms"] = m["core.infer_ms"] - stages;
    m["core.cone_closure_ms"] = at("core.cone_closure") / n;
    m["snapshot.build_ms"] = at("snapshot.build") / n;
    m["snapshot.write_ms"] = at("snapshot.write") / n;
    m["snapshot.map_ms"] = at("snapshot.map") / n;
    m["snapshot.bytes"] = snapshot_bytes / kRibs;
    m["serve.first_answer_us"] = at("serve.first_answer") * 1000.0 / n;
    m["pipeline.self_ms"] = tracer.self_ms()["pipeline.pass"] / n;
    for (std::size_t i = 0; i < kMixOpCount; ++i) {
      const auto& samples = per_op[i];
      double sum = 0.0;
      for (const double v : samples) sum += v;
      m["serve.engine_us." + std::string(op_name(static_cast<MixOp>(i)))] =
          samples.empty() ? 0.0 : sum / static_cast<double>(samples.size());
    }
    write_spans(options.trace_path, {&tracer});
  }
  return result;
}

}  // namespace perfbench
