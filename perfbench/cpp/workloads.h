// The three workloads, their fixed parameters, and the helpers they share.
// Every parameter is a constant here so the parent and the child of a
// change always measure the same thing; see perfbench/README.md for why
// each workload exists.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "harness.h"
#include "loadgen.h"
#include "mix.h"
#include "serve/server.h"
#include "serve/snapshot_registry.h"

namespace perfbench {

// pipeline_rib -----------------------------------------------------------
/// RIBs per run, each a `medium` topology of its own.  Figures are the mean
/// over RIBs of each RIB's median, so one topology's quirks (a deep
/// hierarchy, a large clique) move a run's figure by a quarter, not whole.
inline constexpr std::size_t kRibs = 4;
/// Cold passes per RIB, each in a forked child; their median is setup_s.
inline constexpr std::size_t kColdPassesPerRib = 2;
/// Mix requests answered in-process by each pass's fresh QueryEngine.
inline constexpr std::size_t kAnswersPerPass = 10000;

// serve_zipf_mix ---------------------------------------------------------
inline constexpr std::string_view kServeEpochA = "epoch-a";
inline constexpr std::string_view kServeEpochB = "epoch-b";
/// Set-up repetitions (map + install + start + first answers), median.
inline constexpr int kServeSetups = 41;
/// Fixed open-loop offered rate: an assumption, well under what the closed
/// loop reaches, so the open loop measures an unsaturated server (README.md,
/// "Assumed traffic").
inline constexpr double kServeRateQps = 12000.0;
/// Measured windows at most: a window whose steal share is over kStealLimit
/// is measured again.  A steal burst puts the p90 in milliseconds, because
/// requests queue on their connection behind a stalled worker.
inline constexpr int kServeWindows = 3;
/// Keep every n-th reply for the byte-equality check.
inline constexpr std::size_t kSampleEvery = 37;
/// Mix requests the traced run replays in-process (engine, both rails).
inline constexpr std::size_t kReplayed = 4000;

// ingest_live ------------------------------------------------------------
inline constexpr std::size_t kIngestAses = 1000;
inline constexpr std::size_t kIngestFullVps = 20;
inline constexpr std::size_t kIngestPartialVps = 6;
/// Stream steps after the bootstrap RIB; one epoch per step.
inline constexpr std::size_t kIngestSteps = 24;
/// Epochs fed per run (the schedule's period is seconds / this).
inline constexpr std::size_t kIngestEpochs = 20;
inline constexpr int kIngestSetups = 5;
/// Offered rate of point lookups, an assumption chosen for steadiness: high
/// enough that server workers stay busy between requests; at 1-2k/s the
/// latency figures measure how long an idle vCPU takes to wake, which varies
/// run to run on shared hosts.
inline constexpr double kIngestRateQps = 8000.0;

Result run_pipeline_rib(const Options& options);
Result run_serve_zipf_mix(const Options& options);
Result run_ingest_live(const Options& options);

/// Build the inputs of `workload` for `seed` into `dir`.
void make_fixture(const std::string& workload, std::uint64_t seed, const std::string& dir);

/// One running asrankd: registry + server + the thread inside run().
struct Daemon {
  std::unique_ptr<asrank::serve::SnapshotRegistry> registry;
  std::unique_ptr<asrank::serve::Server> server;
  std::thread thread;

  Daemon() = default;
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;
  ~Daemon() { stop(); }

  void start(const asrank::serve::ServerConfig& config) {
    server = std::make_unique<asrank::serve::Server>(*registry, config);
    thread = std::thread([s = server.get()] { s->run(); });
  }
  void stop() {
    if (server) server->stop();
    if (thread.joinable()) thread.join();
    server.reset();
    registry.reset();
  }
};

/// Blocking request/reply on a fresh loopback connection: one binary frame
/// out, its reply payload back.  Throws on failure.
[[nodiscard]] std::vector<std::uint8_t> probe(std::uint16_t port,
                                                 const std::vector<std::uint8_t>& payload);

/// Load connections, dialled once each with a PING round trip, after the
/// set-up's own connections have closed.  The server places them on its
/// workers as it will; a worker awake for another reason can adopt one
/// hinted to another (an admission steal), and two busy connections on one
/// worker cut throughput.  The steals seen while dialling are recorded in
/// the stamp and as `runtime.admission_steals`.
[[nodiscard]] std::unique_ptr<LoadGen> connect_load(std::uint16_t port,
                                                    std::size_t binary_conns,
                                                    std::size_t text_conns, Result& result);

/// Answer one mix request in-process on `engine`; CONEDIFF diffs `diff_from`
/// against `diff_to` (and answers nothing when they are null).  Returns a
/// size taken from the answer, so the call cannot be optimized away.
std::size_t ask(asrank::serve::QueryEngine& engine, const MixRequest& request,
                asrank::serve::QueryEngine* diff_from, asrank::serve::QueryEngine* diff_to);

/// Labels of the resident epochs, current first, as the server reports them.
[[nodiscard]] std::vector<std::string> served_epochs(std::uint16_t port);

/// A mix request rendered for one rail.
[[nodiscard]] LoadRequest render(const Mix& mix, const MixRequest& request, bool text);

/// The load's request source: a fresh draw from `mix` for every request.
[[nodiscard]] RequestSource stream(Mix& mix);

/// The first `count` draws of a copy of `mix` (the copy keeps its RNG
/// state, so these are the draws the load will send first).
[[nodiscard]] std::vector<MixRequest> draw(Mix mix, std::size_t count);

/// In-process replay of mix requests through the registry's QueryEngines
/// (per-op mean microseconds, keyed by op name) — the engine's share of a
/// request without framing, dispatch or the network.
[[nodiscard]] std::vector<std::pair<std::string, double>> replay_engine(
    asrank::serve::SnapshotRegistry& registry, const Mix& mix,
    const std::vector<MixRequest>& requests);

/// Per-request microseconds through handle_binary_request (or, `text`,
/// handle_text_request) on one EBR-guarded read view, every request
/// rendered for that rail.
[[nodiscard]] std::vector<double> replay_dispatch(asrank::serve::SnapshotRegistry& registry,
                                                  const Mix& mix,
                                                  const std::vector<MixRequest>& drawn,
                                                  bool text);

/// Byte-compare sampled socket replies with the in-process handlers on the
/// same registry; returns the number of mismatches.
[[nodiscard]] std::size_t check_samples(asrank::serve::SnapshotRegistry& registry,
                                        const std::vector<Sample>& samples);

/// Runtime/serve layer deltas between two scrapes, per 1k `requests`.
void runtime_layers(const Exposition& before, const Exposition& after,
                    std::uint64_t requests, Result& result);

/// Generator honesty: lateness tail and backlog, and the behind flag.
void generator_layers(const LoadResult& load, Result& result);

}  // namespace perfbench
