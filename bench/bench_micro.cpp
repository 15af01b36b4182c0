// E11 — microbenchmarks (google-benchmark): throughput of each pipeline
// stage.  Not a paper artefact; establishes that the implementation scales
// to collector-sized corpora (RouteViews rv2 held ~466k prefixes in 2013).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <iterator>
#include <sstream>
#include <streambuf>
#include <string>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "baselines/tor_local_search.h"
#include "bgpsim/observation.h"
#include "bgpsim/update_stream.h"
#include "core/asrank.h"
#include "core/cone_bitset.h"
#include "core/cones.h"
#include "core/degrees.h"
#include "ingest/update_applier.h"
#include "mrt/table_dump_v2.h"
#include "obs/metrics.h"
#include "paths/arena.h"
#include "paths/sanitizer.h"
#include "snapshot/snapshot.h"
#include "topogen/topogen.h"
#include "topology/interner.h"
#include "topology/topology_view.h"
#include "util/hash.h"
#include "util/thread_pool.h"

namespace {

using namespace asrank;

const topogen::GroundTruth& truth() {
  static const auto t = topogen::generate(topogen::GenParams::preset("medium"));
  return t;
}

const bgpsim::Observation& observation() {
  static const auto obs = [] {
    bgpsim::ObservationParams params;
    params.full_vps = 20;
    params.partial_vps = 5;
    return bgpsim::observe(truth(), params);
  }();
  return obs;
}

const paths::PathCorpus& raw_corpus() {
  static const auto corpus = paths::PathCorpus::from_records(observation().routes);
  return corpus;
}

paths::SanitizerConfig sanitizer_config() {
  paths::SanitizerConfig config;
  config.ixp_asns.insert(truth().ixp_asns.begin(), truth().ixp_asns.end());
  return config;
}

const paths::PathArena& clean_arena() {
  static const auto arena = paths::PathArena::build(raw_corpus(), sanitizer_config());
  return arena;
}

const paths::PathCorpus& clean_corpus() {
  static const auto corpus = clean_arena().materialize();
  return corpus;
}

const core::Degrees& clean_degrees() {
  static const auto degrees = core::Degrees::compute(clean_arena());
  return degrees;
}

void BM_TopologyGenerate(benchmark::State& state) {
  auto params = topogen::GenParams::preset("small");
  for (auto _ : state) {
    auto generated = topogen::generate(params);
    benchmark::DoNotOptimize(generated.graph.link_count());
  }
}
BENCHMARK(BM_TopologyGenerate);

void BM_RouteSimPerDestination(benchmark::State& state) {
  const bgpsim::RouteSimulator simulator(truth().graph);
  const auto ases = simulator.ases();
  std::size_t i = 0;
  for (auto _ : state) {
    const auto table = simulator.routes_to(ases[i % ases.size()]);
    benchmark::DoNotOptimize(table.reachable_count());
    ++i;
  }
}
BENCHMARK(BM_RouteSimPerDestination);

void BM_Sanitize(benchmark::State& state) {
  const paths::SanitizerConfig config = sanitizer_config();
  for (auto _ : state) {
    auto arena = paths::PathArena::build(raw_corpus(), config);
    benchmark::DoNotOptimize(arena.stats().output_records);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(raw_corpus().size()));
}
BENCHMARK(BM_Sanitize);

/// The degree tally straight over the raw corpus records (no arena), on a
/// pool of range(0) workers, pool start and join included.
void BM_DegreesComputeRawCorpus(benchmark::State& state) {
  const auto threads = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    auto degrees = core::Degrees::compute(raw_corpus(), threads);
    benchmark::DoNotOptimize(degrees.ranked().size());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(raw_corpus().size()));
}
BENCHMARK(BM_DegreesComputeRawCorpus)->Arg(1)->Arg(4)->UseRealTime();

/// One burst of range(1) dependent mix64 steps on a fresh range(0)-worker pool,
/// pool start and join included: how long a stage must run before its
/// workers pay for themselves.
void BM_ThreadPoolBurst(benchmark::State& state) {
  const auto workers = static_cast<std::size_t>(state.range(0));
  const auto n = static_cast<std::size_t>(state.range(1));
  for (auto _ : state) {
    util::ThreadPool pool(workers);
    const std::uint64_t sum = pool.map_reduce(
        n, std::uint64_t{0},
        [](std::size_t begin, std::size_t end) {
          std::uint64_t part = 0;
          for (std::size_t i = begin; i < end; ++i) part = util::mix64(part, i);
          return part;
        },
        [](std::uint64_t& acc, std::uint64_t part) { acc ^= part; });
    benchmark::DoNotOptimize(sum);
  }
}
BENCHMARK(BM_ThreadPoolBurst)
    ->ArgsProduct({{1, 4}, {1 << 20, 1 << 24}})
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

void BM_DegreesCompute(benchmark::State& state) {
  for (auto _ : state) {
    auto degrees = core::Degrees::compute(clean_arena());
    benchmark::DoNotOptimize(degrees.ranked().size());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(clean_arena().path_count()));
}
BENCHMARK(BM_DegreesCompute);

void BM_CliqueInference(benchmark::State& state) {
  for (auto _ : state) {
    auto clique = core::infer_clique(clean_arena(), clean_degrees(), core::CliqueConfig{});
    benchmark::DoNotOptimize(clique.size());
  }
}
BENCHMARK(BM_CliqueInference);

void BM_FullInference(benchmark::State& state) {
  core::InferenceConfig config;
  config.sanitizer = sanitizer_config();
  const core::AsRankInference inference(config);
  for (auto _ : state) {
    auto result = inference.run(raw_corpus());
    benchmark::DoNotOptimize(result.graph.link_count());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(raw_corpus().size()));
}
BENCHMARK(BM_FullInference);

const core::InferenceResult& inference_result() {
  static const auto result = [] {
    core::InferenceConfig config;
    config.sanitizer = sanitizer_config();
    return core::AsRankInference(config).run(raw_corpus());
  }();
  return result;
}

/// The inferred graph as an AsGraph, for the benchmarks of its freeze.
const AsGraph& inferred_graph() {
  static const AsGraph graph = inference_result().graph.to_graph();
  return graph;
}

void BM_RecursiveCone(benchmark::State& state) {
  for (auto _ : state) {
    auto cones = core::recursive_cone(inferred_graph());
    benchmark::DoNotOptimize(cones.size());
  }
}
BENCHMARK(BM_RecursiveCone);

void BM_PpdcCone(benchmark::State& state) {
  for (auto _ : state) {
    auto cones = core::provider_peer_observed_cone(inference_result().graph,
                                                   inference_result().arena);
    benchmark::DoNotOptimize(cones.size());
  }
}
BENCHMARK(BM_PpdcCone);

void BM_MrtEncode(benchmark::State& state) {
  const auto dump = bgpsim::to_rib_dump(observation());
  for (auto _ : state) {
    std::ostringstream stream;
    mrt::write_table_dump_v2(dump, stream);
    benchmark::DoNotOptimize(stream.tellp());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(dump.rib.size()));
}
BENCHMARK(BM_MrtEncode);

/// The `medium` observation as TABLE_DUMP_V2 bytes, encoded once.
const std::string& rib_bytes() {
  static const std::string bytes = [] {
    std::ostringstream encoded;
    mrt::write_table_dump_v2(bgpsim::to_rib_dump(observation()), encoded);
    return encoded.str();
  }();
  return bytes;
}

/// Reads a byte string in place; an istringstream would copy it per pass.
class ViewBuf : public std::streambuf {
 public:
  explicit ViewBuf(const std::string& bytes) {
    char* begin = const_cast<char*>(bytes.data());
    setg(begin, begin, begin + bytes.size());
  }
};

void BM_MrtDecode(benchmark::State& state) {
  const std::string& bytes = rib_bytes();
  std::size_t entries = 0;
  for (auto _ : state) {
    ViewBuf buf(bytes);
    std::istream stream(&buf);
    auto parsed = mrt::read_table_dump_v2(stream);
    entries = parsed.rib.size();
    benchmark::DoNotOptimize(entries);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(entries));
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(bytes.size()));
}
BENCHMARK(BM_MrtDecode);

/// RIB bytes to the PathCorpus the pipeline starts from: decode, one
/// ObservedRoute per route, one PathRecord per route.
void BM_RibToCorpus(benchmark::State& state) {
  const std::string& bytes = rib_bytes();
  std::size_t records = 0;
  for (auto _ : state) {
    ViewBuf buf(bytes);
    std::istream stream(&buf);
    const auto routes = bgpsim::from_rib_dump(mrt::read_table_dump_v2(stream));
    const auto corpus = paths::PathCorpus::from_records(routes);
    records = corpus.size();
    benchmark::DoNotOptimize(records);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(records));
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(bytes.size()));
}
BENCHMARK(BM_RibToCorpus);

/// One epoch of BGP4MP updates against the `medium` observation: the diff to
/// the next evolved vintage, as bench_ingest generates it.
const std::vector<mrt::UpdateMessage>& epoch_updates() {
  static const auto updates = [] {
    auto evolving = truth();
    bgpsim::ObservationParams params;
    params.full_vps = 20;
    params.partial_vps = 5;
    bgpsim::UpdateStreamParams stream;
    stream.steps = 1;
    stream.bootstrap = false;
    stream.evolve.new_stubs = evolving.graph.as_count() / 50;
    stream.evolve.new_peerings = evolving.graph.link_count() / 40;
    return bgpsim::generate_update_stream(evolving, params, stream).front().updates;
  }();
  return updates;
}

/// An ingest epoch on a seeded table: apply one epoch of updates, then cut
/// the corpus.  Seeding (and its one sort) is outside the timed region.
void BM_ApplierCorpus(benchmark::State& state) {
  const auto& routes = observation().routes;
  const auto& updates = epoch_updates();
  obs::Registry metrics;
  std::size_t records = 0;
  for (auto _ : state) {
    state.PauseTiming();
    ingest::UpdateApplier applier(metrics);
    for (const auto& route : routes) applier.seed(route.vp, route.prefix, route.path);
    benchmark::DoNotOptimize(applier.route_count());
    state.ResumeTiming();
    for (const auto& update : updates) applier.apply(update);
    const auto corpus = applier.corpus();
    records = corpus.size();
    benchmark::DoNotOptimize(records);
  }
  state.counters["updates"] = static_cast<double>(updates.size());
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(records));
}
BENCHMARK(BM_ApplierCorpus)->Unit(benchmark::kMillisecond);

// ---------------------------------------------------------------------------
// Dense-representation microbenches (TopologyView substrate)
// ---------------------------------------------------------------------------

const std::vector<Asn>& corpus_hops() {
  static const auto hops = [] {
    std::vector<Asn> all;
    for (const auto& record : clean_corpus().records()) {
      const auto path = record.path.hops();
      all.insert(all.end(), path.begin(), path.end());
    }
    return all;
  }();
  return hops;
}

void BM_InternerBuild(benchmark::State& state) {
  for (auto _ : state) {
    auto interner = topology::AsnInterner::from_asns(corpus_hops());
    benchmark::DoNotOptimize(interner.size());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(corpus_hops().size()));
}
BENCHMARK(BM_InternerBuild);

void BM_TopologyFreeze(benchmark::State& state) {
  for (auto _ : state) {
    auto view = inferred_graph().freeze(inference_result().clique);
    benchmark::DoNotOptimize(view.link_count());
  }
}
BENCHMARK(BM_TopologyFreeze);

void BM_RecursiveConeDense(benchmark::State& state) {
  const auto& view = inference_result().graph;
  for (auto _ : state) {
    auto cones = core::recursive_cone(view, 1);
    benchmark::DoNotOptimize(cones.size());
  }
}
BENCHMARK(BM_RecursiveConeDense);

// ----------------------------------------------- BENCH_topology_view.json --
// Before/after comparison of the dense CSR kernels against the hash-map
// implementations they replaced, written as a side artifact so the
// BENCH_*.json trajectory tracks the representation change across PRs.

/// The pre-refactor cone closure: memoized post-order DFS merging
/// unordered_sets keyed by ASN.
std::size_t hash_cone_closure(const AsGraph& graph) {
  std::unordered_map<Asn, std::unordered_set<Asn>> cones;
  cones.reserve(graph.ases().size());
  std::size_t total = 0;
  struct Frame {
    Asn node;
    std::size_t next = 0;
  };
  std::vector<Frame> stack;
  for (const Asn root : graph.ases()) {
    if (cones.contains(root)) {
      total += cones.at(root).size();
      continue;
    }
    stack.push_back({root});
    while (!stack.empty()) {
      Frame& top = stack.back();
      const auto customers = graph.customers(top.node);
      if (top.next < customers.size()) {
        const Asn child = customers[top.next++];
        if (!cones.contains(child)) stack.push_back({child});
        continue;
      }
      std::unordered_set<Asn> cone{top.node};
      for (const Asn child : customers) {
        const auto& sub = cones.at(child);
        cone.insert(sub.begin(), sub.end());
      }
      cones.emplace(top.node, std::move(cone));
      stack.pop_back();
    }
    total += cones.at(root).size();
  }
  return total;
}

/// Valley-free sweep on flat translated hop arrays with precomputed per-hop
/// RelView codes — the dense counterpart of the per-hop hash lookups in
/// TorLocalSearch::violations.
std::size_t dense_valley_sweep(std::span<const std::uint8_t> codes,
                               std::span<const std::size_t> offsets) {
  constexpr std::uint8_t kNoRel = 0xff;
  std::size_t violations = 0;
  for (std::size_t p = 0; p + 1 < offsets.size(); ++p) {
    int state = 0;
    bool ok = true;
    for (std::size_t i = offsets[p]; ok && i < offsets[p + 1]; ++i) {
      switch (codes[i]) {
        case static_cast<std::uint8_t>(RelView::kProvider):
          ok = state == 0;
          break;
        case static_cast<std::uint8_t>(RelView::kPeer):
          ok = state == 0;
          state = 1;
          break;
        case static_cast<std::uint8_t>(RelView::kCustomer):
          state = 1;
          break;
        case static_cast<std::uint8_t>(RelView::kSibling):
          break;
        case kNoRel:
        default:
          ok = false;
          break;
      }
    }
    if (!ok) ++violations;
  }
  return violations;
}

template <typename Fn>
double min_time_ms(int reps, Fn&& fn) {
  double best = 0.0;
  for (int rep = 0; rep < reps; ++rep) {
    const auto start = std::chrono::steady_clock::now();
    fn();
    const double elapsed = std::chrono::duration<double, std::milli>(
                               std::chrono::steady_clock::now() - start)
                               .count();
    if (rep == 0 || elapsed < best) best = elapsed;
  }
  return best;
}

void write_topology_view_json(const std::string& path) {
  constexpr int kReps = 3;
  constexpr int kSweeps = 8;  // fixpoint-style repeated evaluation
  constexpr std::uint8_t kNoRel = 0xff;

  const AsGraph& graph = inferred_graph();
  const paths::PathCorpus corpus = inference_result().arena.materialize();
  const auto view = graph.freeze();

  const double interner_ms = min_time_ms(kReps, [] {
    auto interner = topology::AsnInterner::from_asns(corpus_hops());
    benchmark::DoNotOptimize(interner.size());
  });
  const double freeze_ms = min_time_ms(kReps, [&graph] {
    auto frozen = graph.freeze();
    benchmark::DoNotOptimize(frozen.link_count());
  });

  const double cone_dense_ms = min_time_ms(kReps, [&view] {
    auto cones = core::recursive_cone(view, 1);
    benchmark::DoNotOptimize(cones.size());
  });
  const double cone_hash_ms = min_time_ms(kReps, [&graph] {
    benchmark::DoNotOptimize(hash_cone_closure(graph));
  });

  // Valley-free fixpoint shape: the hash path re-resolves every hop per
  // sweep; the dense path translates once, then sweeps flat arrays.
  const double valley_hash_ms = min_time_ms(kReps, [&] {
    std::size_t total = 0;
    for (int sweep = 0; sweep < kSweeps; ++sweep) {
      total += baselines::TorLocalSearch::violations(graph, corpus);
    }
    benchmark::DoNotOptimize(total);
  });
  const double valley_dense_ms = min_time_ms(kReps, [&] {
    std::vector<std::uint8_t> codes;
    std::vector<std::size_t> offsets{0};
    std::vector<topology::NodeId> ids;
    for (const auto& record : corpus.records()) {
      view.interner().translate(record.path.hops(), ids);
      for (std::size_t i = 1; i < ids.size(); ++i) {
        std::uint8_t code = kNoRel;
        if (ids[i - 1] != topology::kNoNode && ids[i] != topology::kNoNode) {
          if (const auto rel = view.relationship(ids[i - 1], ids[i])) {
            code = static_cast<std::uint8_t>(*rel);
          }
        }
        codes.push_back(code);
      }
      offsets.push_back(codes.size());
    }
    std::size_t total = 0;
    for (int sweep = 0; sweep < kSweeps; ++sweep) {
      total += dense_valley_sweep(codes, offsets);
    }
    benchmark::DoNotOptimize(total);
  });

  std::ofstream os(path);
  os << "{\n  \"bench\": \"topology_view\",\n";
  os << "  \"ases\": " << view.node_count() << ",\n";
  os << "  \"links\": " << view.link_count() << ",\n";
  os << "  \"corpus_paths\": " << corpus.size() << ",\n";
  os << "  \"interner_build_ms\": " << interner_ms << ",\n";
  os << "  \"csr_freeze_ms\": " << freeze_ms << ",\n";
  os << "  \"cone_closure\": {\"dense_ms\": " << cone_dense_ms
     << ", \"hash_ms\": " << cone_hash_ms << ", \"speedup\": "
     << (cone_dense_ms > 0.0 ? cone_hash_ms / cone_dense_ms : 0.0) << "},\n";
  os << "  \"valley_free_fixpoint\": {\"dense_ms\": " << valley_dense_ms
     << ", \"hash_ms\": " << valley_hash_ms << ", \"speedup\": "
     << (valley_dense_ms > 0.0 ? valley_hash_ms / valley_dense_ms : 0.0)
     << "}\n}\n";
  std::cout << "wrote " << path << "\n";
}

// ----------------------------------------------- BENCH_snapshot_mmap.json --
// Zero-copy load path and blocked-bitset cone kernels, measured against the
// slower alternatives: full-validation read vs mmap open on a large synthetic
// snapshot, and sorted-merge vs word-AND cone intersection on its biggest
// cones.  Written as a side artifact so the speedups are tracked across PRs.

/// A complete binary p2c tree: provider of AS i is AS i/2.  Acyclic by
/// construction, with provider cones spanning whole subtrees — so the top
/// of the hierarchy has the collector-scale cones (cone(1) = everything,
/// cone(2) and cone(3) ≈ n/2) that make both load validation and cone
/// intersection expensive, without paying a topogen+inference run at this
/// size.
AsGraph make_provider_tree(std::uint32_t ases) {
  AsGraph graph;
  for (std::uint32_t i = 2; i <= ases; ++i) graph.add_p2c(Asn(i / 2), Asn(i));
  return graph;
}

void write_snapshot_mmap_json(const std::string& path) {
  constexpr int kReps = 5;
  constexpr std::uint32_t kAses = 120000;

  const auto graph = make_provider_tree(kAses);
  const auto cones = core::recursive_cone(graph);
  std::size_t cone_members = 0;
  for (const auto& [as, members] : cones) cone_members += members.size();
  const std::unordered_map<Asn, std::size_t> no_tdeg;
  const auto index =
      snapshot::build_snapshot(graph, no_tdeg, cones, {Asn(1)});

  const std::string file = "bench_snapshot_mmap.tmp.asrk";
  snapshot::write_snapshot_file(index, file);
  std::size_t file_bytes = 0;
  {
    std::ifstream in(file, std::ios::binary | std::ios::ate);
    file_bytes = static_cast<std::size_t>(in.tellg());
  }

  // Open latency: read into an owned image + full validation (the JSON's
  // historical "heap_ms") vs zero-copy mmap + table checks.  Both end in a
  // ready-to-query index; min over reps discards cold page-cache effects
  // for the comparison both paths share.
  const double heap_open_ms = min_time_ms(kReps, [&file] {
    auto loaded = snapshot::try_read_snapshot_file(file);
    benchmark::DoNotOptimize(loaded.value().as_count());
  });
  const double mmap_open_ms = min_time_ms(kReps, [&file] {
    auto mapped = snapshot::try_map_snapshot_file(file);
    benchmark::DoNotOptimize(mapped.value().as_count());
  });

  // Cone intersection: sorted-merge kernel vs bitset AND+popcount, over all
  // pairs of the largest cones (the subtree roots near the top of the
  // hierarchy — exactly the pairs a serving workload hits hardest).
  auto mapped = snapshot::try_map_snapshot_file(file).value();
  const core::ConeBitset bits(mapped.ases(), mapped.cone_offsets(),
                              mapped.cone_members(), {1024});
  std::vector<std::uint32_t> top_ids;
  for (std::uint32_t asn = 1; asn <= 9 && asn <= kAses; ++asn) {
    top_ids.push_back(*mapped.node_id(Asn(asn)));
  }
  const double sorted_intersect_ms = min_time_ms(kReps, [&] {
    std::size_t total = 0;
    std::vector<Asn> out;
    for (const auto a : top_ids) {
      const auto cone_a = mapped.cone(mapped.asn_at(a));
      for (const auto b : top_ids) {
        const auto cone_b = mapped.cone(mapped.asn_at(b));
        out.clear();
        std::set_intersection(cone_a.begin(), cone_a.end(), cone_b.begin(),
                              cone_b.end(), std::back_inserter(out));
        total += out.size();
      }
    }
    benchmark::DoNotOptimize(total);
  });
  const double bitset_intersect_ms = min_time_ms(kReps, [&] {
    std::size_t total = 0;
    for (const auto a : top_ids) {
      for (const auto b : top_ids) {
        total += bits.intersect_ids(a, b).size();
      }
    }
    benchmark::DoNotOptimize(total);
  });
  std::remove(file.c_str());

  std::ofstream os(path);
  os << "{\n  \"bench\": \"snapshot_mmap\",\n";
  os << "  \"hardware_threads\": " << std::thread::hardware_concurrency()
     << ",\n";
  os << "  \"build_type\": \"" << ASRANK_BUILD_TYPE << "\",\n";
  os << "  \"git_sha\": \"" << ASRANK_GIT_SHA << "\",\n";
  os << "  \"ases\": " << mapped.as_count() << ",\n";
  os << "  \"links\": " << mapped.link_count() << ",\n";
  os << "  \"cone_members\": " << cone_members << ",\n";
  os << "  \"file_bytes\": " << file_bytes << ",\n";
  os << "  \"open\": {\"heap_ms\": " << heap_open_ms
     << ", \"mmap_ms\": " << mmap_open_ms << ", \"speedup\": "
     << (mmap_open_ms > 0.0 ? heap_open_ms / mmap_open_ms : 0.0) << "},\n";
  os << "  \"cone_intersect\": {\"sorted_ms\": " << sorted_intersect_ms
     << ", \"bitset_ms\": " << bitset_intersect_ms << ", \"bitset_rows\": "
     << bits.row_count() << ", \"bitset_bytes\": " << bits.memory_bytes()
     << ", \"speedup\": "
     << (bitset_intersect_ms > 0.0 ? sorted_intersect_ms / bitset_intersect_ms
                                   : 0.0)
     << "}\n}\n";
  std::cout << "wrote " << path << "\n";
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  // Build every shared fixture before any timed loop runs.
  (void)truth();
  (void)observation();
  (void)raw_corpus();
  (void)clean_corpus();
  (void)clean_degrees();
  (void)inference_result();
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  write_topology_view_json("BENCH_topology_view.json");
  write_snapshot_mmap_json("BENCH_snapshot_mmap.json");
  return 0;
}
