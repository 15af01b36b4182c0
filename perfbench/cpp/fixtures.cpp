// Fixture generation: every input a workload reads, made from the seed by
// the topogen/bgpsim simulators in a process of its own, before anything is
// timed.  Nothing here is measured.
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <unordered_map>

#include "bgpsim/observation.h"
#include "bgpsim/update_stream.h"
#include "core/cones.h"
#include "harness.h"
#include "mrt/bgp4mp.h"
#include "mrt/table_dump_v2.h"
#include "snapshot/snapshot.h"
#include "topogen/topogen.h"
#include "util/rng.h"
#include "workloads.h"

namespace perfbench {

namespace {

using namespace asrank;

void write_rib(const bgpsim::Observation& observation, const std::string& path) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  mrt::write_table_dump_v2(bgpsim::to_rib_dump(observation), out);
  if (!out) throw std::runtime_error("cannot write " + path);
}

/// A recursive-cone snapshot of a ground-truth graph (transit degree =
/// customer count, clique = provider-free ASes), as bench_serve_load builds.
void write_truth_snapshot(const AsGraph& graph, const std::string& path) {
  std::unordered_map<Asn, std::size_t> transit;
  for (const Asn as : graph.ases()) transit[as] = graph.customers(as).size();
  const auto index = snapshot::build_snapshot(graph, transit, core::recursive_cone(graph),
                                              graph.provider_free_ases());
  snapshot::write_snapshot_file(index, path);
}

void pipeline_fixture(std::uint64_t seed, const std::string& dir) {
  for (std::size_t i = 0; i < kRibs; ++i) {
    auto gen = topogen::GenParams::preset("medium");
    gen.seed = seed * kRibs + i;
    const auto truth = topogen::generate(gen);
    bgpsim::ObservationParams observe;
    observe.seed = gen.seed + 1;
    observe.threads = 0;  // identical output at any thread count
    write_rib(bgpsim::observe(truth, observe), dir + "/rib-" + std::to_string(i) + ".mrt");
  }
}

void serve_fixture(std::uint64_t seed, const std::string& dir) {
  auto gen = topogen::GenParams::preset("large");
  gen.seed = seed;
  auto truth = topogen::generate(gen);
  write_truth_snapshot(truth.graph, dir + "/" + std::string(kServeEpochA) + ".asrk");
  util::Rng rng(seed + 7);
  topogen::EvolveParams evolve;
  evolve.new_stubs = truth.graph.as_count() / 100;
  evolve.new_peerings = truth.graph.link_count() / 100;
  topogen::evolve(truth, rng, evolve);
  write_truth_snapshot(truth.graph, dir + "/" + std::string(kServeEpochB) + ".asrk");
}

void ingest_fixture(std::uint64_t seed, const std::string& dir) {
  topogen::GenParams gen;
  gen.seed = seed;
  gen.total_ases = kIngestAses;
  auto truth = topogen::generate(gen);
  bgpsim::ObservationParams observe;
  observe.seed = seed + 1;
  observe.full_vps = kIngestFullVps;
  observe.partial_vps = kIngestPartialVps;
  observe.threads = 0;
  bgpsim::UpdateStreamParams stream_params;
  stream_params.steps = kIngestSteps;
  stream_params.seed = seed + 1000;
  stream_params.evolve.new_stubs = std::max<std::size_t>(2, kIngestAses / 200);
  stream_params.evolve.new_peerings = std::max<std::size_t>(2, kIngestAses / 100);
  const auto stream = bgpsim::generate_update_stream(truth, observe, stream_params);

  // Step 0 is the bootstrap table: hand it over as the base RIB, the way
  // `asrank_cli ingest --rib` seeds; the rest is the live BGP4MP feed.
  write_rib(stream.front().observation, dir + "/rib.mrt");
  std::ofstream updates(dir + "/updates.mrt", std::ios::binary | std::ios::trunc);
  std::ofstream steps(dir + "/steps.txt", std::ios::trunc);
  for (std::size_t i = 1; i < stream.size(); ++i) {
    for (const auto& update : stream[i].updates) mrt::write_update(update, updates);
    steps << updates.tellp() << ' ' << stream[i].updates.size() << ' '
          << stream[i].timestamp << '\n';
  }
  if (!updates || !steps) throw std::runtime_error("cannot write ingest fixture");
}

}  // namespace

void make_fixture(const std::string& workload, std::uint64_t seed, const std::string& dir) {
  if (workload == "pipeline_rib") return pipeline_fixture(seed, dir);
  if (workload == "serve_zipf_mix") return serve_fixture(seed, dir);
  if (workload == "ingest_live") return ingest_fixture(seed, dir);
  throw std::invalid_argument("unknown workload '" + workload + "'");
}

}  // namespace perfbench
