// Streaming-ingest throughput: the engineering harness for src/ingest.
// Two questions the conveyor's operators care about:
//
//   1. How fast does UpdateApplier absorb a BGP4MP feed (updates/sec)?
//   2. What does an epoch cost end to end (p50/p99 build latency over a
//      replayed stream)?
//
//     bench_ingest [preset] [seed] [json_out]
//
// Defaults: medium 42 BENCH_ingest.json.  Emits machine-readable JSON
// (stamped with hardware_threads like the other BENCH_*.json artefacts) so
// the trajectory tracks ingest performance across PRs.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "bgpsim/observation.h"
#include "bgpsim/update_stream.h"
#include "ingest/epoch_builder.h"
#include "ingest/update_applier.h"
#include "obs/metrics.h"
#include "topogen/topogen.h"

namespace {

using namespace asrank;

double percentile(std::vector<std::uint64_t> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(p * (values.size() - 1) + 0.5);
  return static_cast<double>(values[std::min(rank, values.size() - 1)]);
}

}  // namespace

int main(int argc, char** argv) {
  std::string preset = "medium";
  std::uint64_t seed = 42;
  std::string json_out = "BENCH_ingest.json";
  if (argc > 1) preset = argv[1];
  if (argc > 2) seed = std::strtoull(argv[2], nullptr, 10);
  if (argc > 3) json_out = argv[3];

  auto params = topogen::GenParams::preset(preset);
  params.seed = seed;

  // ---- 1. applier absorption rate over a generated multi-step stream ----
  auto stream_truth = topogen::generate(params);
  bgpsim::ObservationParams obs_params;
  obs_params.seed = seed + 1;
  bgpsim::UpdateStreamParams stream_params;
  stream_params.steps = 6;
  stream_params.seed = seed + 1000;
  stream_params.evolve.new_stubs = stream_truth.graph.as_count() / 50;
  stream_params.evolve.new_peerings = stream_truth.graph.link_count() / 40;
  const auto stream =
      bgpsim::generate_update_stream(stream_truth, obs_params, stream_params);

  obs::Registry apply_metrics;
  ingest::UpdateApplier applier(apply_metrics);
  std::size_t messages = 0;
  const auto apply_start = std::chrono::steady_clock::now();
  for (const auto& step : stream) {
    for (const auto& update : step.updates) applier.apply(update);
    messages += step.updates.size();
  }
  const double apply_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - apply_start)
          .count();
  const double updates_per_sec = apply_seconds > 0 ? messages / apply_seconds : 0.0;

  std::cout << "== ingest (" << preset << ", seed " << seed << ") ==\n";
  std::cout << "applier: " << messages << " updates in " << apply_seconds << " s ("
            << static_cast<std::uint64_t>(updates_per_sec) << " updates/sec), table "
            << applier.route_count() << " routes\n";

  // ---- 2. per-epoch build latency over the same replayed stream ----
  obs::Registry build_metrics;
  ingest::EpochBuilder builder({}, build_metrics);
  obs::Registry replay_metrics;
  ingest::UpdateApplier replay_applier(replay_metrics);
  std::vector<std::uint64_t> build_micros;
  for (const auto& step : stream) {
    for (const auto& update : step.updates) replay_applier.apply(update);
    ingest::EpochBuildInfo info;
    auto built = builder.build(replay_applier.corpus(), &info);
    if (!built.ok()) {
      std::cerr << "FAIL: epoch build: " << built.error().context << "\n";
      return 1;
    }
    build_micros.push_back(info.build_micros);
  }
  const double p50 = percentile(build_micros, 0.50);
  const double p99 = percentile(build_micros, 0.99);
  std::cout << "epoch build: " << build_micros.size() << " epochs, p50 "
            << p50 / 1000.0 << " ms, p99 " << p99 / 1000.0 << " ms\n";

  std::ofstream json(json_out);
  json << "{\n  \"bench\": \"ingest\",\n";
  json << "  \"preset\": \"" << preset << "\",\n";
  json << "  \"seed\": " << seed << ",\n";
  json << "  \"hardware_threads\": " << std::thread::hardware_concurrency() << ",\n";
  json << "  \"stream\": {\"steps\": " << stream.size()
       << ", \"messages\": " << messages << ", \"routes\": " << applier.route_count()
       << "},\n";
  json << "  \"updates_per_sec\": " << static_cast<std::uint64_t>(updates_per_sec)
       << ",\n";
  json << "  \"epoch_build_micros\": {\"count\": " << build_micros.size()
       << ", \"p50\": " << p50 << ", \"p99\": " << p99 << "}\n";
  json << "}\n";
  std::cout << "wrote " << json_out << "\n";
  return 0;
}
