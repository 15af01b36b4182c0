// Serving-layer throughput: lookups/sec per query type against a frozen
// snapshot, the derived queries timed once over distinct operands.
// Not a paper artefact — this is the engineering harness for src/snapshot +
// src/serve: it freezes a topogen graph into an ASRK1 snapshot, drives a
// QueryEngine with a deterministic query mix, verifies answers against the
// direct graph/index computation, and emits machine-readable JSON so the
// BENCH_*.json trajectory tracks serving performance across PRs.
//
// A second epoch, the topology one topogen::evolve step later, times
// CONEDIFF's kernel: QueryEngine::cone_minus in both directions over the
// 100 largest cones (repeated) and once over every AS of either epoch.
//
//     bench_query_serving [total_ases] [seed] [json_out]
//
// Defaults: 20000 42 BENCH_query_serving.json
// Exits non-zero if any timed derived answer is wrong: a cone intersection
// that differs from std::set_intersection over the two index cones, a cone
// difference that differs from std::set_difference, or a non-empty clique
// path that is not a provider chain ending in the clique.
#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <iterator>
#include <map>
#include <utility>
#include <fstream>
#include <functional>
#include <iostream>
#include <random>
#include <span>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/cones.h"
#include "obs/metrics.h"
#include "serve/query_engine.h"
#include "snapshot/snapshot.h"
#include "topogen/topogen.h"
#include "util/rng.h"

namespace {

using namespace asrank;

struct Throughput {
  std::size_t ops = 0;
  double seconds = 0.0;
  [[nodiscard]] double per_sec() const { return seconds > 0.0 ? ops / seconds : 0.0; }
};

Throughput measure(std::size_t ops, const std::function<void(std::size_t)>& op) {
  const auto start = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < ops; ++i) op(i);
  const auto elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start);
  return {ops, elapsed.count()};
}

void emit(std::ostream& os, const std::string& name, const Throughput& t,
          bool& first) {
  if (!first) os << ",\n";
  first = false;
  os << "    \"" << name << "\": {\"ops\": " << t.ops
     << ", \"lookups_per_sec\": " << static_cast<std::uint64_t>(t.per_sec()) << "}";
}

/// A QueryEngine over `truth` frozen into a snapshot (transit degree =
/// customer count, provider-free ASes as the clique).
serve::QueryEngine freeze(const topogen::GroundTruth& truth, obs::Registry& registry) {
  const auto& graph = truth.graph;
  std::unordered_map<Asn, std::size_t> tdeg;
  for (const Asn as : graph.ases()) tdeg[as] = graph.customers(as).size();
  return serve::QueryEngine(
      snapshot::build_snapshot(graph, tdeg, core::recursive_cone(graph),
                               graph.provider_free_ases()),
      &registry);
}

}  // namespace

int main(int argc, char** argv) {
  std::size_t total_ases = 20000;
  std::uint64_t seed = 42;
  std::string json_out = "BENCH_query_serving.json";
  if (argc > 1) total_ases = std::strtoull(argv[1], nullptr, 10);
  if (argc > 2) seed = std::strtoull(argv[2], nullptr, 10);
  if (argc > 3) json_out = argv[3];

  auto params = topogen::GenParams::preset("large");
  params.total_ases = total_ases;
  params.seed = seed;
  const auto truth = topogen::generate(params);
  const auto& graph = truth.graph;

  std::unordered_map<Asn, std::size_t> tdeg;
  for (const Asn as : graph.ases()) tdeg[as] = graph.customers(as).size();
  const auto cones = core::recursive_cone(graph);
  const auto clique = graph.provider_free_ases();

  // Freeze, serialize, and reload — timing the snapshot lifecycle too.
  const auto t0 = std::chrono::steady_clock::now();
  const auto built = snapshot::build_snapshot(graph, tdeg, cones, clique);
  const auto t1 = std::chrono::steady_clock::now();
  std::stringstream bytes(std::ios::in | std::ios::out | std::ios::binary);
  snapshot::write_snapshot(built, bytes);
  const auto t2 = std::chrono::steady_clock::now();
  const std::size_t snapshot_bytes = bytes.str().size();
  auto index = snapshot::read_snapshot(bytes);
  const auto t3 = std::chrono::steady_clock::now();
  const auto ms = [](auto a, auto b) {
    return std::chrono::duration<double, std::milli>(b - a).count();
  };

  std::cout << "== query serving (" << graph.as_count() << " ASes, "
            << graph.link_count() << " links, seed " << seed << ") ==\n";
  std::cout << "snapshot: build " << ms(t0, t1) << " ms, write " << ms(t1, t2)
            << " ms (" << snapshot_bytes << " bytes), load+validate "
            << ms(t2, t3) << " ms\n";

  // Deterministic query mix: uniform ASes plus link endpoints for the
  // relationship lookups, heavy (large-cone) ASes for the derived queries.
  std::mt19937_64 rng(seed);
  const std::vector<Asn> all(index.ases().begin(), index.ases().end());
  const auto links = graph.links();
  std::vector<Asn> heavy;
  for (const auto& entry : index.top(64)) heavy.push_back(entry.as);

  // Spot-check correctness before trusting the numbers.
  for (std::size_t i = 0; i < 1000; ++i) {
    const auto& link = links[rng() % links.size()];
    if (index.relationship(link.a, link.b) != graph.view(link.a, link.b)) {
      std::cerr << "FAIL: snapshot disagrees with graph on " << link.a.str()
                << "|" << link.b.str() << "\n";
      return 1;
    }
  }

  // A bench-local registry keeps the measured engine's metric series out of
  // the process-global registry (and vice versa).
  obs::Registry registry;
  serve::QueryEngine engine(std::move(index), &registry);
  const std::size_t n_direct = 200000;

  // Build the engine's lazy cone bitset before timing, so that no timed op
  // pays for it (only the first cone intersection builds it).
  (void)engine.cone_intersection(heavy[0], heavy[1]);

  std::map<std::string, Throughput> per_type;
  per_type["relationship"] = measure(n_direct, [&](std::size_t i) {
    const auto& link = links[(i * 2654435761u) % links.size()];
    (void)engine.relationship(link.a, link.b);
  });
  per_type["rank"] = measure(n_direct, [&](std::size_t i) {
    (void)engine.rank(all[(i * 2654435761u) % all.size()]);
  });
  per_type["cone_size"] = measure(n_direct, [&](std::size_t i) {
    (void)engine.cone_size(all[(i * 2654435761u) % all.size()]);
  });
  per_type["in_cone"] = measure(n_direct, [&](std::size_t i) {
    (void)engine.in_cone(heavy[i % heavy.size()], all[(i * 40503u) % all.size()]);
  });
  per_type["neighbor_set"] = measure(n_direct / 4, [&](std::size_t i) {
    (void)engine.providers(all[(i * 2654435761u) % all.size()]);
  });

  // Derived queries, each timed once over distinct operands: intersections
  // of large cones and clique paths from multihomed ASes (the expensive,
  // representative cases).
  const std::size_t n_derived = 2000;
  std::vector<std::pair<Asn, Asn>> heavy_pairs;
  for (std::size_t i = 0; i < heavy.size() && heavy_pairs.size() < n_derived; ++i) {
    for (std::size_t j = i + 1; j < heavy.size() && heavy_pairs.size() < n_derived; ++j) {
      heavy_pairs.emplace_back(heavy[i], heavy[j]);
    }
  }
  std::vector<Asn> multihomed(all);
  std::sort(multihomed.begin(), multihomed.end(), [&](Asn a, Asn b) {
    const auto pa = graph.providers(a).size(), pb = graph.providers(b).size();
    return pa != pb ? pa > pb : a < b;
  });
  multihomed.resize(std::min<std::size_t>(n_derived, multihomed.size()));

  std::vector<serve::AsnList> intersections(heavy_pairs.size());
  per_type["cone_intersect"] = measure(heavy_pairs.size(), [&](std::size_t i) {
    intersections[i] =
        engine.cone_intersection(heavy_pairs[i].first, heavy_pairs[i].second);
  });
  std::vector<serve::AsnList> paths(multihomed.size());
  per_type["path_to_clique"] = measure(multihomed.size(), [&](std::size_t i) {
    paths[i] = engine.path_to_clique(multihomed[i]);
  });

  // CONEDIFF: epoch B is A one evolution step later.  Each AS's diff is
  // two cone_minus calls (added in B, removed in B).
  auto truth_b = truth;
  util::Rng evolve_rng(seed);
  topogen::evolve(truth_b, evolve_rng, {});
  serve::QueryEngine engine_b = freeze(truth_b, registry);
  const auto& index_a = engine.index();
  const auto& index_b = engine_b.index();
  std::vector<Asn> diff_top;
  for (const auto& entry : index_a.top(100)) diff_top.push_back(entry.as);
  std::vector<Asn> diff_all;
  std::set_union(index_a.ases().begin(), index_a.ases().end(), index_b.ases().begin(),
                 index_b.ases().end(), std::back_inserter(diff_all));
  struct Diff {
    std::vector<Asn> added;
    std::vector<Asn> removed;
  };
  const auto time_diffs = [&](const std::vector<Asn>& ases, std::size_t rounds,
                              std::vector<Diff>& out) {
    out.assign(ases.size(), {});
    return measure(2 * rounds * ases.size(), [&](std::size_t i) {
      const std::size_t k = (i / 2) % ases.size();
      const Asn as = ases[k];
      if (i % 2 == 0) {
        out[k].added = engine_b.cone_minus(as, index_a.cone(as));
      } else {
        out[k].removed = engine.cone_minus(as, index_b.cone(as));
      }
    });
  };
  std::vector<Diff> top_diffs, all_diffs;
  per_type["cone_diff_top100"] = time_diffs(diff_top, 50, top_diffs);
  per_type["cone_diff_all"] = time_diffs(diff_all, 1, all_diffs);

  // Check every timed answer against the index directly.
  const auto& served = engine.index();
  const auto clique_members = served.clique();
  std::size_t mismatches = 0;
  std::size_t chains = 0;
  for (std::size_t i = 0; i < heavy_pairs.size(); ++i) {
    const auto cone_a = served.cone(heavy_pairs[i].first);
    const auto cone_b = served.cone(heavy_pairs[i].second);
    std::vector<Asn> want;
    std::set_intersection(cone_a.begin(), cone_a.end(), cone_b.begin(), cone_b.end(),
                          std::back_inserter(want));
    if (*intersections[i] != want) {
      std::cerr << "FAIL: cone_intersection(" << heavy_pairs[i].first.str() << ", "
                << heavy_pairs[i].second.str() << ") != set_intersection\n";
      ++mismatches;
    }
  }
  const auto difference = [](std::span<const Asn> a, std::span<const Asn> b) {
    std::vector<Asn> out;
    std::set_difference(a.begin(), a.end(), b.begin(), b.end(), std::back_inserter(out));
    return out;
  };
  std::size_t diffs_checked = 0;
  const auto check_diffs = [&](const std::vector<Asn>& ases, const std::vector<Diff>& got) {
    for (std::size_t k = 0; k < ases.size(); ++k) {
      const auto cone_a = index_a.cone(ases[k]);
      const auto cone_b = index_b.cone(ases[k]);
      ++diffs_checked;
      if (got[k].added != difference(cone_b, cone_a) ||
          got[k].removed != difference(cone_a, cone_b)) {
        std::cerr << "FAIL: cone_minus(" << ases[k].str() << ") != set_difference\n";
        ++mismatches;
      }
    }
  };
  check_diffs(diff_top, top_diffs);
  check_diffs(diff_all, all_diffs);
  for (std::size_t i = 0; i < multihomed.size(); ++i) {
    const auto& path = *paths[i];
    if (path.empty()) continue;
    ++chains;
    bool ok = path.front() == multihomed[i] &&
              std::find(clique_members.begin(), clique_members.end(), path.back()) !=
                  clique_members.end();
    for (std::size_t k = 0; ok && k + 1 < path.size(); ++k) {
      ok = served.relationship(path[k], path[k + 1]) == RelView::kProvider;
    }
    if (!ok) {
      std::cerr << "FAIL: path_to_clique(" << multihomed[i].str()
                << ") is not a provider chain into the clique\n";
      ++mismatches;
    }
  }

  for (const auto& [name, t] : per_type) {
    std::cout << "  " << name << ": " << static_cast<std::uint64_t>(t.per_sec())
              << " lookups/sec\n";
  }
  std::cout << "derived answers checked: " << heavy_pairs.size() << " intersections, "
            << diffs_checked << " cone diffs, " << chains
            << " non-empty clique paths; mismatches: " << mismatches << "\n";

  std::ofstream json(json_out);
  json << "{\n  \"bench\": \"query_serving\",\n";
  json << "  \"total_ases\": " << graph.as_count() << ",\n";
  json << "  \"links\": " << graph.link_count() << ",\n";
  json << "  \"seed\": " << seed << ",\n";
  json << "  \"hardware_threads\": " << std::thread::hardware_concurrency() << ",\n";
  json << "  \"build_type\": \"" << ASRANK_BUILD_TYPE << "\",\n";
  json << "  \"git_sha\": \"" << ASRANK_GIT_SHA << "\",\n";
  json << "  \"cone_diff\": {\"epoch_b_ases\": " << index_b.as_count()
       << ", \"top_ases\": " << diff_top.size() << ", \"top_rounds\": 50"
       << ", \"all_ases\": " << diff_all.size() << "},\n";
  json << "  \"snapshot\": {\"bytes\": " << snapshot_bytes
       << ", \"build_ms\": " << ms(t0, t1) << ", \"write_ms\": " << ms(t1, t2)
       << ", \"load_ms\": " << ms(t2, t3) << "},\n";
  json << "  \"query_types\": {\n";
  bool first = true;
  for (const auto& [name, t] : per_type) emit(json, name, t, first);
  json << "\n  },\n  \"derived_mismatches\": " << mismatches << "\n}\n";
  std::cout << "wrote " << json_out << "\n";

  return mismatches == 0 ? 0 : 1;
}
