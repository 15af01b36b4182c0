// Parallel scaling of the deterministic thread pool across the pipeline's
// hot stages: cone closure, degree tally, link visibility, and the full
// inference run.  Not a paper artefact — this is the engineering harness for
// the util::ThreadPool engine: it measures wall-clock speedup at 1/2/4/8
// workers on a topogen graph (default 50k ASes), verifies that every stage's
// output is identical to the single-threaded run, and emits machine-readable
// JSON (stamped with hardware threads, build type and git sha, plus the
// process's peak RSS) so the BENCH_*.json trajectory tracks scaling across
// PRs.  Each stage time is the median of kReps runs, stamped with its
// interquartile range; speedups and the 2-worker inference gate read the
// medians.
//
//     bench_parallel_scaling [total_ases] [seed] [json_out]
//
// Defaults: 50000 42 BENCH_parallel_scaling.json
#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include <sys/resource.h>

#include "core/asrank.h"
#include "core/cones.h"
#include "core/degrees.h"
#include "core/visibility.h"
#include "paths/corpus.h"
#include "topogen/topogen.h"
#include "util/stats.h"

namespace {

using namespace asrank;

constexpr std::size_t kThreadCounts[] = {1, 2, 4, 8};
constexpr int kReps = 5;  // runs per stage and worker count

/// The median of kReps runs and their interquartile range.
struct Timing {
  double ms = 0.0;
  double iqr_ms = 0.0;
};
using Timings = std::map<std::string, std::map<std::size_t, Timing>>;

/// Synthetic observation corpus that exercises the tally stages without a
/// full route simulation (O(n^2) at 50k ASes): every AS contributes its
/// provider-ascent chain as an observed path, which yields transit-position
/// hops for degrees/visibility and realistic vote sweeps for inference.
paths::PathCorpus ascent_corpus(const topogen::GroundTruth& truth) {
  paths::PathCorpus corpus;
  for (const Asn as : truth.graph.ases()) {
    AsPath path{as.value()};
    Asn cursor = as;
    while (path.size() < 6) {
      const auto providers = truth.graph.providers(cursor);
      if (providers.empty()) break;
      cursor = providers.front();
      path.push_back(cursor);
    }
    if (path.size() < 2) continue;
    const Prefix prefix = Prefix::v4(path.last().value() << 8, 24);
    corpus.add(as, prefix, std::move(path));
  }
  return corpus;
}

/// Every field of two degree tallies: interner, adjacency rows, node and
/// transit degrees, and the ranking.
bool same_degrees(const core::Degrees& a, const core::Degrees& b) {
  if (a.interner() != b.interner() || a.ranked() != b.ranked()) return false;
  for (topology::NodeId id = 0; id < a.interner().size(); ++id) {
    if (a.node_degree(id) != b.node_degree(id) || a.transit_degree(id) != b.transit_degree(id) ||
        !std::ranges::equal(a.adjacency().neighbors(id), b.adjacency().neighbors(id))) {
      return false;
    }
  }
  return true;
}

Timing time_ms(const std::function<void()>& fn) {
  std::vector<double> samples;
  for (int rep = 0; rep < kReps; ++rep) {
    const auto start = std::chrono::steady_clock::now();
    fn();
    samples.push_back(std::chrono::duration<double, std::milli>(
                          std::chrono::steady_clock::now() - start)
                          .count());
  }
  return {util::quantile(samples, 0.5),
          util::quantile(samples, 0.75) - util::quantile(samples, 0.25)};
}

/// The process's peak resident set so far (ru_maxrss is in KiB on Linux).
double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

void write_json(std::ostream& os, std::size_t ases, std::uint64_t seed, const Timings& timings,
                bool identical, double rss_mb) {
  os << "{\n  \"bench\": \"parallel_scaling\",\n";
  os << "  \"total_ases\": " << ases << ",\n  \"seed\": " << seed << ",\n";
  os << "  \"hardware_threads\": " << std::thread::hardware_concurrency() << ",\n";
  os << "  \"build_type\": \"" << ASRANK_BUILD_TYPE << "\",\n";
  os << "  \"git_sha\": \"" << ASRANK_GIT_SHA << "\",\n";
  os << "  \"outputs_identical\": " << (identical ? "true" : "false") << ",\n";
  os << "  \"peak_rss_mb\": " << rss_mb << ",\n";
  os << "  \"repetitions\": " << kReps << ",\n";
  os << "  \"timing\": \"ms: median of repetitions; iqr_ms: their interquartile range; "
        "speedup: of medians\",\n";
  os << "  \"stages\": {\n";
  bool first_stage = true;
  for (const auto& [stage, by_threads] : timings) {
    if (!first_stage) os << ",\n";
    first_stage = false;
    const double base = by_threads.at(1).ms;
    const auto field = [&](const char* name, const auto& value) {
      os << "\"" << name << "\": {";
      bool first = true;
      for (const auto& [threads, timing] : by_threads) {
        os << (first ? "" : ", ") << "\"" << threads << "\": " << value(timing);
        first = false;
      }
      os << "}";
    };
    os << "    \"" << stage << "\": {";
    field("ms", [](const Timing& t) { return t.ms; });
    os << ", ";
    field("iqr_ms", [](const Timing& t) { return t.iqr_ms; });
    os << ", ";
    field("speedup", [&](const Timing& t) { return t.ms > 0.0 ? base / t.ms : 0.0; });
    os << "}";
  }
  os << "\n  }\n}\n";
}

}  // namespace

int main(int argc, char** argv) {
  std::size_t total_ases = 50000;
  std::uint64_t seed = 42;
  std::string json_out = "BENCH_parallel_scaling.json";
  if (argc > 1) total_ases = std::strtoull(argv[1], nullptr, 10);
  if (argc > 2) seed = std::strtoull(argv[2], nullptr, 10);
  if (argc > 3) json_out = argv[3];

  std::cout << "== parallel scaling (" << total_ases << " ASes, seed " << seed
            << ", " << std::thread::hardware_concurrency() << " hardware threads) ==\n";

  auto params = topogen::GenParams::preset("large");
  params.total_ases = total_ases;
  params.seed = seed;
  const auto truth = topogen::generate(params);
  const auto corpus = ascent_corpus(truth);
  std::cout << "graph: " << truth.graph.as_count() << " ASes, "
            << truth.graph.link_count() << " links; corpus: " << corpus.size()
            << " paths\n";

  core::InferenceConfig base_config;
  Timings timings;
  bool identical = true;

  // Single-threaded reference outputs for the identity check.
  const auto ref_cones = core::recursive_cone(truth.graph, 1);
  const auto ref_degrees = core::Degrees::compute(corpus, 1);
  const auto ref_visibility = core::link_visibility(corpus, 1);

  for (const std::size_t threads : kThreadCounts) {
    timings["cone_closure"][threads] =
        time_ms([&] { (void)core::recursive_cone(truth.graph, threads); });
    timings["degrees"][threads] =
        time_ms([&] { (void)core::Degrees::compute(corpus, threads); });
    timings["visibility"][threads] =
        time_ms([&] { (void)core::link_visibility(corpus, threads); });
    timings["inference"][threads] = time_ms([&] {
      auto config = base_config;
      config.threads = threads;
      (void)core::AsRankInference(config).run(corpus);
    });

    if (threads != 1) {
      identical = identical && core::recursive_cone(truth.graph, threads) == ref_cones &&
                  same_degrees(core::Degrees::compute(corpus, threads), ref_degrees);
      const auto visibility = core::link_visibility(corpus, threads);
      identical = identical && visibility.size() == ref_visibility.size();
      for (const auto& [key, link] : ref_visibility) {
        const auto it = visibility.find(key);
        identical = identical && it != visibility.end() &&
                    it->second.vp_count == link.vp_count &&
                    it->second.observations == link.observations;
      }
    }

    std::cout << threads << " thread(s), median of " << kReps << ": cone "
              << timings["cone_closure"][threads].ms << " ms, degrees "
              << timings["degrees"][threads].ms << " ms, visibility "
              << timings["visibility"][threads].ms << " ms, inference "
              << timings["inference"][threads].ms << " ms\n";
  }

  const double cone_speedup_4t =
      timings["cone_closure"][1].ms / std::max(timings["cone_closure"][4].ms, 1e-9);
  std::cout << "cone-closure speedup at 4 threads: " << cone_speedup_4t << "x\n";
  std::cout << "outputs identical across thread counts: "
            << (identical ? "yes" : "NO — BUG") << "\n";

  // Speedup assertion, gated on real parallel hardware: on a single-core
  // runner every multi-threaded run legitimately loses to the sequential
  // path, so only the determinism check is meaningful there.
  bool speedup_ok = true;
  if (std::thread::hardware_concurrency() >= 2) {
    const double inference_speedup_2t =
        timings["inference"][1].ms / std::max(timings["inference"][2].ms, 1e-9);
    speedup_ok = inference_speedup_2t > 1.05;
    std::cout << "inference speedup at 2 threads (medians): " << inference_speedup_2t
              << "x (assert > 1.05x: " << (speedup_ok ? "pass" : "FAIL") << ")\n";
  } else {
    std::cout << "single hardware thread: speedup assertion skipped\n";
  }

  const double rss_mb = peak_rss_mb();
  std::cout << "peak RSS: " << rss_mb << " MiB\n";
  write_json(std::cout, total_ases, seed, timings, identical, rss_mb);
  std::ofstream file(json_out);
  write_json(file, total_ases, seed, timings, identical, rss_mb);
  std::cout << "wrote " << json_out << "\n";

  return identical && speedup_ok ? 0 : 1;
}
