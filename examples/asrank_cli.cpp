// asrank_cli — end-to-end command-line workflow over files, mirroring how
// the CAIDA pipeline is driven in practice:
//
//   asrank_cli generate --preset medium --seed 42 --out truth.as-rel
//   asrank_cli observe  --preset medium --seed 42 --mrt rib.mrt
//   asrank_cli infer    --mrt rib.mrt --out inferred.as-rel
//   asrank_cli infer    --pipe paths.txt --out inferred.as-rel
//   asrank_cli cones    --as-rel inferred.as-rel --mrt rib.mrt --method ppdc --out cones.ppdc
//   asrank_cli rank     --as-rel inferred.as-rel --mrt rib.mrt --top 15
//   asrank_cli validate --inferred inferred.as-rel --truth truth.as-rel
//   asrank_cli snapshot --as-rel inferred.as-rel --mrt rib.mrt --out run.asrk
//   asrank_cli serve    --snapshot run.asrk --port 7464
//   asrank_cli query    --port 7464 --op rank --a 3356
//
// Every artifact is a documented interchange format: .as-rel and .ppdc-ases
// (CAIDA text formats), MRT TABLE_DUMP_V2 (binary RIB), "prefix|path" pipe
// tables, or ASRK1 binary snapshots (docs/FORMATS.md).
#include <algorithm>
#include <chrono>
#include <csignal>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <utility>

#include "algo/registry.h"
#include "bgpsim/collector.h"
#include "bgpsim/observation.h"
#include "bgpsim/update_stream.h"
#include "core/asrank.h"
#include "core/cones.h"
#include "core/hierarchy.h"
#include "core/ranking.h"
#include "ingest/epoch_builder.h"
#include "ingest/update_applier.h"
#include "mrt/bgp4mp.h"
#include "obs/log.h"
#include "mrt/table_dump_v2.h"
#include "mrt/text_table.h"
#include "paths/arena.h"
#include "serve/client.h"
#include "serve/cluster_client.h"
#include "serve/cluster_map.h"
#include "serve/query_engine.h"
#include "serve/server.h"
#include "snapshot/snapshot.h"
#include "topogen/topogen.h"
#include "topology/graph_diff.h"
#include "topology/serialization.h"
#include "topology/topology_view.h"
#include "util/strings.h"
#include "util/table.h"
#include "util/thread_pool.h"
#include "validation/ppv.h"

namespace {

using namespace asrank;

/// Bad invocation (unknown command/flag, missing value): exit code 2, as
/// opposed to runtime failures (unreadable file, refused connection): 1.
struct UsageError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// Minimal --flag value argument parser.  Flags in kBooleanFlags take no
/// value ("--log-json"); everything else is --flag value.
class Args {
 public:
  Args(int argc, char** argv, int first) {
    for (int i = first; i < argc; ++i) {
      std::string key = argv[i];
      if (key.rfind("--", 0) != 0) {
        throw UsageError("expected --flag, got '" + key + "'");
      }
      key = key.substr(2);
      if (is_boolean(key)) {
        values_[key] = "true";
        continue;
      }
      if (i + 1 >= argc) throw UsageError("missing value for --" + key);
      values_[key] = argv[++i];
    }
  }

  [[nodiscard]] static bool is_boolean(const std::string& key) {
    return key == "log-json" || key == "bootstrap" || key == "follow" ||
           key == "flush-on-ts" || key == "metrics";
  }

  [[nodiscard]] std::optional<std::string> get(const std::string& key) const {
    const auto it = values_.find(key);
    if (it == values_.end()) return std::nullopt;
    return it->second;
  }
  [[nodiscard]] std::string require(const std::string& key) const {
    const auto value = get(key);
    if (!value) throw std::runtime_error("missing required --" + key);
    return *value;
  }
  [[nodiscard]] std::string get_or(const std::string& key, const std::string& fallback) const {
    return get(key).value_or(fallback);
  }
  [[nodiscard]] std::uint64_t get_u64(const std::string& key, std::uint64_t fallback) const {
    const auto value = get(key);
    if (!value) return fallback;
    const auto parsed = util::parse_unsigned<std::uint64_t>(*value);
    if (!parsed) {
      throw UsageError("--" + key + " wants an unsigned integer, got '" + *value + "'");
    }
    return *parsed;
  }

  /// Throws UsageError naming the first flag neither in `accepted` nor
  /// global (--log-level, --log-json).
  void check_accepted(const std::set<std::string_view>& accepted) const {
    for (const auto& [key, value] : values_) {
      if (key != "log-level" && key != "log-json" && !accepted.contains(key)) {
        throw UsageError("unknown flag --" + key);
      }
    }
  }

 private:
  std::map<std::string, std::string> values_;
};

std::ofstream open_out(const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  if (!out) throw std::runtime_error("cannot open for writing: " + path);
  return out;
}

std::ifstream open_in(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot open for reading: " + path);
  return in;
}

topogen::GroundTruth generate_truth(const Args& args) {
  auto params = topogen::GenParams::preset(args.get_or("preset", "medium"));
  params.seed = args.get_u64("seed", 42);
  // Adversarial scenario knobs (EXPERIMENTS.md): both default off.
  params.hybrid_link_fraction =
      std::strtod(args.get_or("hybrid-fraction", "0").c_str(), nullptr);
  params.route_leaker_fraction =
      std::strtod(args.get_or("leaker-fraction", "0").c_str(), nullptr);
  return topogen::generate(params);
}

bgpsim::Observation observe_world(const topogen::GroundTruth& truth, const Args& args) {
  bgpsim::ObservationParams params;
  params.seed = args.get_u64("seed", 42) + 1;
  params.full_vps = args.get_u64("full-vps", 30);
  params.partial_vps = args.get_u64("partial-vps", 10);
  return bgpsim::observe(truth, params);
}

/// Resolve a --algorithm value (one name, or a comma list for snapshot and
/// ingest builds) to canonical registry names.  Unknown names are usage
/// errors — exit 2 with the registered-name list, same as an unknown --op.
std::vector<std::string> algorithm_list(const std::string& spec) {
  std::vector<std::string> out;
  for (const auto token : util::split(spec, ',')) {
    auto canonical = algo::resolve(util::trim(token));
    if (!canonical.ok()) throw UsageError(canonical.error().context);
    if (std::find(out.begin(), out.end(), canonical.value()) == out.end()) {
      out.push_back(std::move(canonical).value());
    }
  }
  if (out.empty()) throw UsageError("--algorithm needs at least one name");
  return out;
}

/// Build one single-algorithm snapshot part: infer from the corpus, freeze
/// recursive cones over the inferred graph and the corpus transit degrees.
/// "asrank" keeps its own clique and hands over its view as is; the
/// baselines use provider-free ASes, and their AsGraph is frozen once.
snapshot::SnapshotIndex build_algorithm_part(const std::string& name,
                                             const paths::PathCorpus& corpus,
                                             const core::Degrees& degrees,
                                             std::size_t threads) {
  topology::TopologyView view;
  std::vector<Asn> clique;
  if (name == "asrank") {
    core::InferenceConfig config;
    config.threads = threads;
    auto result = core::AsRankInference(config).run(corpus);
    view = std::move(result.graph);
    clique = std::move(result.clique);
  } else {
    algo::AlgorithmOptions options;
    options.threads = threads;
    auto algorithm = algo::create(name, options);
    if (!algorithm.ok()) throw UsageError(algorithm.error().context);
    AsGraph graph = algorithm.value()->infer(corpus);
    // The baselines promise nothing about provider-cycle freedom, but the
    // recursive cone closure (and so the snapshot) requires a DAG; impose
    // the same rank-order repair the asrank pipeline applies (step 11).
    core::break_provider_cycles(graph, degrees);
    clique = graph.provider_free_ases();
    view = graph.freeze();
  }
  const auto cones = core::recursive_cone(view, threads);
  return snapshot::build_snapshot(view, degrees, cones, clique);
}

/// The observed cone ("observed" = BGP-observed, else provider/peer-observed)
/// of a raw corpus.  Its arena runs no sanitizer stage, so the descent walk
/// sees every hop as read: prepending, loops and reserved ASNs stay.
ConeMap observed_cone(const std::string& method, const topology::TopologyView& view,
                      const paths::PathCorpus& corpus, std::size_t threads) {
  paths::SanitizerConfig raw;
  raw.compress_prepending = false;
  raw.discard_loops = false;
  raw.discard_reserved = false;
  util::ThreadPool pool(threads);
  const auto arena = paths::PathArena::build(corpus, raw, pool);
  return method == "observed" ? core::bgp_observed_cone(view, arena, threads)
                              : core::provider_peer_observed_cone(view, arena, threads);
}

/// Load a path corpus from --mrt (binary) or --pipe (text) input.
paths::PathCorpus load_corpus(const Args& args) {
  if (const auto mrt_path = args.get("mrt")) {
    auto in = open_in(*mrt_path);
    const auto dump = mrt::read_table_dump_v2(in);
    return paths::PathCorpus::from_records(bgpsim::from_rib_dump(dump));
  }
  if (const auto pipe_path = args.get("pipe")) {
    auto in = open_in(*pipe_path);
    paths::PathCorpus corpus;
    for (const auto& route : mrt::parse_pipe_table(in)) {
      // Pipe tables carry no VP column; the first hop is the VP's AS.
      if (route.path.empty()) continue;
      corpus.add(route.path.first(), route.prefix, route.path);
    }
    return corpus;
  }
  throw std::runtime_error("need --mrt <file> or --pipe <file> input");
}

int cmd_generate(const Args& args) {
  const auto truth = generate_truth(args);
  auto out = open_out(args.require("out"));
  write_as_rel(truth.graph, out);
  if (const auto ppdc_path = args.get("ppdc")) {
    auto ppdc_out = open_out(*ppdc_path);
    write_ppdc(core::recursive_cone(truth.graph), ppdc_out);
  }
  std::cerr << "wrote " << truth.graph.as_count() << " ASes, "
            << truth.graph.link_count() << " links\n";
  return 0;
}

int cmd_observe(const Args& args) {
  const auto truth = generate_truth(args);
  const auto observation = observe_world(truth, args);
  if (const auto mrt_path = args.get("mrt")) {
    auto out = open_out(*mrt_path);
    mrt::write_table_dump_v2(bgpsim::to_rib_dump(observation), out);
  } else if (const auto pipe_path = args.get("pipe")) {
    auto out = open_out(*pipe_path);
    std::vector<mrt::TextRoute> routes;
    routes.reserve(observation.routes.size());
    for (const auto& route : observation.routes) {
      routes.push_back({route.prefix, route.path, true});
    }
    mrt::write_pipe_table(routes, out);
  } else {
    throw std::runtime_error("need --mrt <file> or --pipe <file> output");
  }
  std::cerr << "wrote " << observation.routes.size() << " routes from "
            << observation.vps.size() << " VPs\n";
  return 0;
}

int cmd_infer(const Args& args) {
  const auto corpus = load_corpus(args);
  const auto algorithms = algorithm_list(args.get_or("algorithm", "asrank"));
  if (algorithms.size() != 1) {
    throw UsageError("infer takes one --algorithm (snapshot accepts a list)");
  }
  if (algorithms[0] != "asrank") {
    // Baselines run through the registry; they have no audit/clique output.
    algo::AlgorithmOptions options;
    options.threads = args.get_u64("threads", 0);
    auto algorithm = algo::create(algorithms[0], options);
    if (!algorithm.ok()) throw UsageError(algorithm.error().context);
    const AsGraph graph = algorithm.value()->infer(corpus);
    auto out = open_out(args.require("out"));
    write_as_rel(graph, out);
    const auto counts = graph.link_counts();
    std::cerr << algorithms[0] << ": inferred " << counts.p2c << " c2p + "
              << counts.p2p << " p2p links\n";
    return 0;
  }
  core::InferenceConfig config;
  config.threads = args.get_u64("threads", 0);  // 0 = all hardware threads
  if (const auto ixps = args.get("ixp")) {
    for (const auto token : util::split(*ixps, ',')) {
      if (const auto asn = Asn::parse(token)) config.sanitizer.ixp_asns.insert(*asn);
    }
  }
  const auto result = core::AsRankInference(config).run(corpus);
  const AsGraph graph = result.graph.to_graph();
  auto out = open_out(args.require("out"));
  write_as_rel(graph, out);

  const auto counts = graph.link_counts();
  std::cerr << "inferred " << counts.p2c << " c2p + " << counts.p2p << " p2p links; clique";
  for (const Asn as : result.clique) std::cerr << " AS" << as.value();
  std::cerr << "\nsanitize: " << result.audit.sanitize.input_records << " -> "
            << result.audit.sanitize.output_records << " records; poisoned discarded "
            << result.audit.poisoned_discarded << "; acyclic "
            << (result.audit.p2c_acyclic ? "yes" : "NO") << "\n";
  return 0;
}

int cmd_cones(const Args& args) {
  auto graph_in = open_in(args.require("as-rel"));
  const AsGraph graph = read_as_rel(graph_in);
  const std::string method = args.get_or("method", "ppdc");
  const std::size_t threads = args.get_u64("threads", 0);  // 0 = all hardware threads
  const ConeMap cones = method == "recursive"
                            ? core::recursive_cone(graph, threads)
                            : observed_cone(method, graph.freeze(), load_corpus(args), threads);
  auto out = open_out(args.require("out"));
  write_ppdc(cones, out);
  std::cerr << "wrote " << cones.size() << " cones (" << method << ")\n";
  return 0;
}

int cmd_rank(const Args& args) {
  auto graph_in = open_in(args.require("as-rel"));
  const AsGraph graph = read_as_rel(graph_in);
  const auto corpus = load_corpus(args);
  const std::size_t threads = args.get_u64("threads", 0);  // 0 = all hardware threads
  const auto degrees = core::Degrees::compute(corpus, threads);
  const auto cones = observed_cone("ppdc", graph.freeze(), corpus, threads);
  const auto hierarchy = core::analyze_hierarchy(graph, graph.provider_free_ases());

  util::TableWriter table({"rank", "AS", "cone", "transit degree", "class"});
  for (const auto& entry : core::top_n(cones, degrees, args.get_u64("top", 15))) {
    table.add_row({std::to_string(entry.rank), "AS" + entry.as.str(),
                   util::fmt_count(entry.cone_size), util::fmt_count(entry.transit_degree),
                   std::string(to_string(hierarchy.tiers.at(entry.as)))});
  }
  table.render(std::cout);
  return 0;
}

int cmd_validate(const Args& args) {
  if (const auto spec = args.get("algorithm")) {
    // Comparison mode: infer the same corpus under every named algorithm
    // and score each against ground truth (the EXPERIMENTS.md PPV tables).
    const auto algorithms = algorithm_list(*spec);
    auto truth_in = open_in(args.require("truth"));
    const AsGraph truth = read_as_rel(truth_in);
    const auto corpus = load_corpus(args);
    const std::size_t threads = args.get_u64("threads", 0);
    util::TableWriter table({"algorithm", "links", "c2p PPV", "p2p PPV",
                             "accuracy", "flips", "phantom"});
    for (const auto& name : algorithms) {
      AsGraph inferred;
      if (name == "asrank") {
        core::InferenceConfig config;
        config.threads = threads;
        inferred = core::AsRankInference(config).run(corpus).graph.to_graph();
      } else {
        algo::AlgorithmOptions options;
        options.threads = threads;
        auto algorithm = algo::create(name, options);
        if (!algorithm.ok()) throw UsageError(algorithm.error().context);
        inferred = algorithm.value()->infer(corpus);
      }
      const auto accuracy = validation::evaluate_against_truth(inferred, truth);
      table.add_row({name, util::fmt_count(accuracy.compared),
                     util::fmt_pct(accuracy.c2p.ppv()),
                     util::fmt_pct(accuracy.p2p.ppv()),
                     util::fmt_pct(accuracy.accuracy()),
                     util::fmt_count(accuracy.direction_errors),
                     util::fmt_count(accuracy.unknown_links)});
    }
    table.render(std::cout);
    return 0;
  }
  auto inferred_in = open_in(args.require("inferred"));
  auto truth_in = open_in(args.require("truth"));
  const AsGraph inferred = read_as_rel(inferred_in);
  const AsGraph truth = read_as_rel(truth_in);
  const auto accuracy = validation::evaluate_against_truth(inferred, truth);
  util::TableWriter table({"metric", "value"});
  table.add_row({"links compared", util::fmt_count(accuracy.compared)});
  table.add_row({"c2p PPV", util::fmt_pct(accuracy.c2p.ppv())});
  table.add_row({"p2p PPV", util::fmt_pct(accuracy.p2p.ppv())});
  table.add_row({"overall accuracy", util::fmt_pct(accuracy.accuracy())});
  table.add_row({"direction flips", util::fmt_count(accuracy.direction_errors)});
  table.add_row({"phantom links", util::fmt_count(accuracy.unknown_links)});
  table.add_row({"siblings excluded", util::fmt_count(accuracy.s2s_links)});
  table.render(std::cout);
  return 0;
}

int cmd_diff(const Args& args) {
  auto before_in = open_in(args.require("before"));
  auto after_in = open_in(args.require("after"));
  const AsGraph before = read_as_rel(before_in);
  const AsGraph after = read_as_rel(after_in);
  const auto diff = diff_graphs(before, after);
  util::TableWriter table({"change", "count"});
  table.add_row({"links added", util::fmt_count(diff.added.size())});
  table.add_row({"links removed", util::fmt_count(diff.removed.size())});
  table.add_row({"relationship changed", util::fmt_count(diff.changed.size())});
  table.add_row({"unchanged", util::fmt_count(diff.unchanged)});
  table.add_row({"annotation stability", util::fmt_pct(diff.stability())});
  table.render(std::cout);
  for (const auto& change : diff.changed) {
    std::cout << "  AS" << change.before.a.value() << "-AS" << change.before.b.value()
              << ": " << to_string(change.before.type) << " -> "
              << to_string(change.after.type) << "\n";
  }
  return 0;
}

int cmd_hierarchy(const Args& args) {
  auto graph_in = open_in(args.require("as-rel"));
  const AsGraph graph = read_as_rel(graph_in);
  std::vector<Asn> clique;
  if (const auto members = args.get("clique")) {
    for (const auto token : util::split(*members, ',')) {
      if (const auto asn = Asn::parse(token)) clique.push_back(*asn);
    }
    std::sort(clique.begin(), clique.end());
  } else {
    clique = graph.provider_free_ases();
  }
  const auto summary = core::analyze_hierarchy(graph, clique);
  const auto depths = core::hierarchy_depths(graph);
  std::size_t max_depth = 0;
  for (const auto& [as, depth] : depths) max_depth = std::max(max_depth, depth);

  util::TableWriter table({"metric", "value"});
  table.add_row({"ASes", util::fmt_count(graph.as_count())});
  table.add_row({"links", util::fmt_count(graph.link_count())});
  table.add_row({"clique / provider-free roots", util::fmt_count(summary.clique)});
  table.add_row({"transit ASes", util::fmt_count(summary.transit)});
  table.add_row({"leaf providers", util::fmt_count(summary.leaf_providers)});
  table.add_row({"stub ASes", util::fmt_count(summary.stubs)});
  table.add_row({"hierarchy depth", std::to_string(max_depth)});
  table.add_row({"mean providers (multihoming)", util::fmt(summary.mean_providers, 2)});
  table.add_row({"p2p share of links", util::fmt_pct(summary.p2p_share)});
  table.render(std::cout);
  return 0;
}

int cmd_updates(const Args& args) {
  auto truth = generate_truth(args);
  const std::size_t steps = args.get_u64("steps", 0);
  const bool bootstrap = args.get("bootstrap").has_value();

  if (steps == 0 && !bootstrap) {
    // Legacy single-step mode: one evolution, one diff.
    const auto before = observe_world(truth, args);
    util::Rng rng(args.get_u64("seed", 42) + 1000);
    topogen::EvolveParams evolve_params;
    evolve_params.new_stubs = truth.graph.as_count() / 50;
    evolve_params.new_peerings = truth.graph.link_count() / 40;
    topogen::evolve(truth, rng, evolve_params);
    const auto after = observe_world(truth, args);

    const auto updates =
        bgpsim::diff_observations(before, after, before.routes.empty() ? 0 : 1);
    auto out = open_out(args.require("out"));
    for (const auto& update : updates) mrt::write_update(update, out);
    if (const auto rib_path = args.get("rib")) {
      auto rib_out = open_out(*rib_path);
      mrt::write_table_dump_v2(bgpsim::to_rib_dump(before), rib_out);
    }
    std::cerr << "wrote " << updates.size() << " update messages\n";
    return 0;
  }

  // Stream mode: a multi-step timestamped feed for the ingest pipeline.
  bgpsim::ObservationParams obs_params;
  obs_params.seed = args.get_u64("seed", 42) + 1;
  obs_params.full_vps = args.get_u64("full-vps", 30);
  obs_params.partial_vps = args.get_u64("partial-vps", 10);

  if (const auto rib_path = args.get("rib")) {
    // Base table before any step (what a non-bootstrap consumer seeds from).
    const auto base = bgpsim::observe(truth, obs_params);
    auto rib_out = open_out(*rib_path);
    mrt::write_table_dump_v2(bgpsim::to_rib_dump(base), rib_out);
  }

  bgpsim::UpdateStreamParams stream_params;
  stream_params.steps = steps;
  stream_params.seed = args.get_u64("seed", 42) + 1000;
  stream_params.bootstrap = bootstrap;
  stream_params.base_timestamp =
      static_cast<std::uint32_t>(args.get_u64("base-ts", 1367193600));
  stream_params.step_seconds =
      static_cast<std::uint32_t>(args.get_u64("step-seconds", 60));
  stream_params.evolve.new_stubs = truth.graph.as_count() / 50;
  stream_params.evolve.new_peerings = truth.graph.link_count() / 40;

  const auto stream = bgpsim::generate_update_stream(truth, obs_params, stream_params);
  auto out = open_out(args.require("out"));
  std::size_t total = 0;
  for (const auto& step : stream) {
    for (const auto& update : step.updates) mrt::write_update(update, out);
    total += step.updates.size();
  }
  std::cerr << "wrote " << total << " update messages across " << stream.size()
            << " timestamped steps\n";
  return 0;
}

int cmd_replay(const Args& args) {
  auto rib_in = open_in(args.require("rib"));
  auto collector = bgpsim::Collector::from_rib_dump(mrt::read_table_dump_v2(rib_in));
  auto updates_in = open_in(args.require("updates"));
  const auto updates = mrt::read_updates(updates_in);
  for (const auto& update : updates) collector.apply(update);
  auto out = open_out(args.require("out"));
  mrt::write_table_dump_v2(collector.snapshot(), out);
  std::cerr << "replayed " << updates.size() << " updates over "
            << collector.peers().size() << " peers; table now holds "
            << collector.route_count() << " routes (" << collector.ignored_updates()
            << " updates ignored)\n";
  return 0;
}

// Build an ASRK1 snapshot from text/MRT artifacts.  With a path corpus the
// pipeline's transit degrees and observed cones are frozen; without one the
// snapshot falls back to recursive cones and graph-derived degrees (customer
// count), which is exact for generated ground truth.
int cmd_snapshot(const Args& args) {
  if (const auto spec = args.get("algorithm")) {
    // Multi-algorithm build: infer each named algorithm from the path
    // corpus and merge the per-algorithm indexes into one tagged snapshot
    // (the first name becomes the primary slot the daemon defaults to).
    const auto algorithms = algorithm_list(*spec);
    const std::size_t threads = args.get_u64("threads", 0);
    const auto corpus = load_corpus(args);
    const auto degrees = core::Degrees::compute(corpus, threads);
    std::vector<std::pair<std::string, snapshot::SnapshotIndex>> parts;
    parts.reserve(algorithms.size());
    for (const auto& name : algorithms) {
      parts.emplace_back(name,
                         build_algorithm_part(name, corpus, degrees, threads));
    }
    auto combined = snapshot::combine_snapshots(std::move(parts));
    if (!combined.ok()) throw std::runtime_error(combined.error().message());
    snapshot::write_snapshot_file(combined.value(), args.require("out"));
    std::cerr << "froze " << combined.value().as_count() << " ASes under "
              << algorithms.size() << " algorithm section(s) (";
    for (std::size_t i = 0; i < algorithms.size(); ++i) {
      std::cerr << (i == 0 ? "" : ", ") << algorithms[i];
    }
    std::cerr << ") -> " << args.require("out") << "\n";
    return 0;
  }
  auto graph_in = open_in(args.require("as-rel"));
  const AsGraph graph = read_as_rel(graph_in);
  const topology::TopologyView view = graph.freeze();
  const std::size_t threads = args.get_u64("threads", 0);  // 0 = all hardware threads

  std::optional<paths::PathCorpus> corpus;
  if (args.get("mrt") || args.get("pipe")) corpus = load_corpus(args);

  ConeMap cones;
  std::string method = args.get_or("method", corpus ? "ppdc" : "recursive");
  if (const auto ppdc_path = args.get("ppdc")) {
    auto ppdc_in = open_in(*ppdc_path);
    cones = read_ppdc(ppdc_in);
    method = "ppdc-file";
  } else if (method == "recursive") {
    cones = core::recursive_cone(view, threads);
  } else if (corpus) {
    cones = observed_cone(method, view, *corpus, threads);
  } else {
    throw std::runtime_error("--method " + method + " needs --mrt or --pipe input");
  }

  std::unordered_map<Asn, std::size_t> transit;
  if (corpus) {
    const auto degrees = core::Degrees::compute(*corpus, threads);
    for (const Asn as : graph.ases()) transit[as] = degrees.transit_degree(as);
  } else {
    for (const Asn as : graph.ases()) transit[as] = graph.customers(as).size();
  }

  std::vector<Asn> clique;
  if (const auto members = args.get("clique")) {
    for (const auto token : util::split(*members, ',')) {
      if (const auto asn = Asn::parse(token)) clique.push_back(*asn);
    }
  } else {
    clique = graph.provider_free_ases();
  }

  const auto index = snapshot::build_snapshot(view, transit, cones, clique);
  snapshot::write_snapshot_file(index, args.require("out"));
  std::cerr << "froze " << index.as_count() << " ASes, " << index.link_count()
            << " links, " << cones.size() << " cones (" << method << "), clique "
            << index.clique().size() << " -> " << args.require("out") << "\n";
  return 0;
}

int cmd_serve(const Args& args) {
  const std::string snapshot_path = args.require("snapshot");

  serve::SnapshotRegistryConfig registry_config;
  registry_config.retention = args.get_u64("retention", 4);
  // --mmap=0 reads the file into an owned image and fully re-validates it.
  registry_config.mmap_load = args.get_u64("mmap", 1) != 0;
  registry_config.cone_bitset.min_cone_size = args.get_u64("cone-bitset-min", 256);
  serve::SnapshotRegistry registry(registry_config);

  auto loaded = registry.load_file(snapshot_path, args.get_or("epoch", ""));
  if (!loaded.ok()) throw std::runtime_error(loaded.error().message());
  const auto& index = loaded.value().engine->index();
  std::cerr << "loaded snapshot epoch '" << loaded.value().label << "' ("
            << (index.mmap_backed() ? "mmap" : "owned") << "): "
            << index.as_count() << " ASes, " << index.link_count()
            << " links, clique " << index.clique().size() << "\n";

  serve::ServerConfig config;
  config.host = args.get_or("host", "127.0.0.1");
  config.port = static_cast<std::uint16_t>(args.get_u64("port", 7464));
  config.threads = args.get_u64("threads", 0);  // 0 = all hardware threads
  config.idle_timeout_ms = static_cast<int>(args.get_u64("idle-timeout-ms", 60000));
  config.query_deadline_ms = static_cast<int>(args.get_u64("deadline-ms", 5000));
  config.max_connections = args.get_u64("max-conns", 256);
  // SIGHUP re-reads the serving snapshot path (or --reload-path override).
  config.reload_path = args.get_or("reload-path", snapshot_path);
  config.reload_label = args.get_or("epoch", "");
  serve::Server server(registry, config);
  server.install_signal_handlers();
  std::cerr << "asrankd " << ASRANK_VERSION << " listening on " << config.host << ":"
            << server.port() << " (" << server.worker_threads() << " workers)\n";
  server.run();
  std::cerr << "asrankd: clean shutdown after " << server.connections_served()
            << " connections\n" << registry.current()->render_stats();
  return 0;
}

/// Unwrap a client Result at the CLI boundary (exit code 1 on error).
template <typename T>
T need(Result<T> result) {
  if (!result.ok()) throw std::runtime_error(result.error().message());
  return std::move(result).value();
}

void need_void(Result<void> result) {
  if (!result.ok()) throw std::runtime_error(result.error().message());
}

/// One query op against the scoped surface both serve::Client and
/// serve::ClusterClient expose (the scope carries epoch + algorithm; no
/// mutable client state).  The single divergence is `metrics`, which is
/// inherently per-endpoint and thus monolithic-only.
template <typename ClientT>
int run_query_op(ClientT& client, const std::string& op, const Args& args,
                 const serve::QueryScope& scope) {
  const auto as_arg = [&args](const char* key) {
    const auto asn = Asn::parse(args.require(key));
    if (!asn) throw std::runtime_error(std::string("malformed ASN in --") + key);
    return *asn;
  };
  const auto print_list = [](const std::vector<Asn>& list) {
    for (std::size_t i = 0; i < list.size(); ++i) {
      std::cout << (i == 0 ? "" : " ") << list[i].value();
    }
    std::cout << "\n";
  };

  if (op == "ping") {
    need_void(client.try_ping());
    std::cout << "pong\n";
  } else if (op == "rel") {
    const auto view = need(client.try_relationship(as_arg("a"), as_arg("b"), scope));
    std::cout << (view ? to_string(*view) : "none") << "\n";
  } else if (op == "rank") {
    const auto rank = need(client.try_rank(as_arg("a"), scope));
    std::cout << (rank ? std::to_string(*rank) : "unranked") << "\n";
  } else if (op == "conesize") {
    std::cout << need(client.try_cone_size(as_arg("a"), scope)) << "\n";
  } else if (op == "cone") {
    print_list(need(client.try_cone(as_arg("a"), scope)));
  } else if (op == "incone") {
    std::cout << (need(client.try_in_cone(as_arg("a"), as_arg("b"), scope)) ? "yes" : "no")
              << "\n";
  } else if (op == "providers") {
    print_list(need(client.try_providers(as_arg("a"), scope)));
  } else if (op == "customers") {
    print_list(need(client.try_customers(as_arg("a"), scope)));
  } else if (op == "peers") {
    print_list(need(client.try_peers(as_arg("a"), scope)));
  } else if (op == "top") {
    util::TableWriter table({"rank", "AS", "cone", "transit degree"});
    const auto entries =
        need(client.try_top(static_cast<std::uint32_t>(args.get_u64("n", 15)), scope));
    for (const auto& entry : entries) {
      table.add_row({std::to_string(entry.rank), "AS" + entry.as.str(),
                     util::fmt_count(entry.cone_size),
                     util::fmt_count(entry.transit_degree)});
    }
    table.render(std::cout);
  } else if (op == "intersect") {
    print_list(need(client.try_cone_intersection(as_arg("a"), as_arg("b"), scope)));
  } else if (op == "cliquepath") {
    print_list(need(client.try_path_to_clique(as_arg("a"), scope)));
  } else if (op == "clique") {
    print_list(need(client.try_clique(scope)));
  } else if (op == "stats") {
    std::cout << need(client.try_stats_text(scope));
  } else if (op == "metrics") {
    if constexpr (requires { client.try_metrics_text(); }) {
      std::cout << need(client.try_metrics_text());
    } else {
      throw UsageError(
          "--op metrics is per-endpoint; use `asrank_cli metrics host:port` "
          "per member or `cluster-status ... --metrics` for client metrics");
    }
  } else if (op == "epochs") {
    for (const auto& label : need(client.try_epochs())) std::cout << label << "\n";
  } else if (op == "algos") {
    for (const auto& name : need(client.try_algos(scope))) std::cout << name << "\n";
  } else if (op == "disagree") {
    const auto first = algorithm_list(args.require("first"));
    const auto second = algorithm_list(args.require("second"));
    if (first.size() != 1 || second.size() != 1) {
      throw UsageError("disagree compares exactly two algorithms");
    }
    const auto report = need(client.try_disagree(
        first[0], second[0],
        static_cast<std::uint32_t>(args.get_u64("limit", 0)), scope));
    const auto rel_text = [](const std::optional<RelView>& rel) {
      return rel ? std::string(to_string(*rel)) : std::string("none");
    };
    for (const auto& row : report.rows) {
      std::cout << "AS" << row.a.value() << "-AS" << row.b.value() << ": "
                << rel_text(row.first) << " vs " << rel_text(row.second) << "\n";
    }
    std::cerr << report.total << " disagreement(s), " << report.rows.size()
              << " shown\n";
  } else if (op == "conediff") {
    const auto diff = need(client.try_cone_diff(as_arg("a"), args.require("ea"),
                                                args.require("eb")));
    for (const Asn as : diff.added) std::cout << "+" << as.value() << "\n";
    for (const Asn as : diff.removed) std::cout << "-" << as.value() << "\n";
  } else {
    throw UsageError("unknown --op '" + op + "'");
  }
  return 0;
}

/// ClusterMap + ClusterClient from the shared --cluster/--slots/--replication/
/// --fanout flags (used by `query --cluster` and `cluster-status`).
serve::ClusterClient make_cluster_client(const std::string& spec, const Args& args) {
  serve::ClusterMapConfig map_config;
  map_config.slots = args.get_u64("slots", map_config.slots);
  map_config.replication = args.get_u64("replication", map_config.replication);
  auto map = need(serve::ClusterMap::parse(spec, map_config));
  serve::ClusterClientConfig config;
  config.max_fanout = args.get_u64("fanout", config.max_fanout);
  return serve::ClusterClient(std::move(map), std::move(config));
}

int cmd_query(const Args& args) {
  const std::string op = args.require("op");
  serve::QueryScope scope{args.get_or("epoch", ""), ""};
  if (const auto spec = args.get("algorithm")) {
    const auto algorithms = algorithm_list(*spec);
    if (algorithms.size() != 1) throw UsageError("query takes one --algorithm");
    scope.algorithm = algorithms[0];
  }
  if (const auto cluster = args.get("cluster")) {
    serve::ClusterClient client = make_cluster_client(*cluster, args);
    return run_query_op(client, op, args, scope);
  }
  serve::Client client =
      need(serve::Client::dial(args.get_or("host", "127.0.0.1"),
                               static_cast<std::uint16_t>(args.get_u64("port", 7464))));
  return run_query_op(client, op, args, scope);
}

// Probe every member of a cluster (endpoint list as positional arg or
// --cluster) and print breaker state, reachability, and resident epoch per
// endpoint, then the resolved cluster-wide epoch (or the typed skew/
// unavailable error).  --metrics appends the client-side asrank_cluster_*
// Prometheus exposition.
int cmd_cluster_status(const std::optional<std::string>& target, const Args& args) {
  const std::string spec = target ? *target : args.require("cluster");
  serve::ClusterClient client = make_cluster_client(spec, args);
  util::TableWriter table({"endpoint", "state", "reachable", "epoch", "error"});
  for (const auto& row : client.probe_endpoints()) {
    table.add_row({row.endpoint, std::string(serve::to_string(row.state)),
                   row.reachable ? "yes" : "no", row.current_epoch, row.error});
  }
  table.render(std::cout);
  std::cout << "slots: " << client.map().slot_count()
            << ", replication: " << client.map().replication() << "\n";
  const auto epoch = client.try_resolved_epoch();
  if (epoch.ok()) {
    std::cout << "cluster epoch: " << epoch.value() << "\n";
  } else {
    std::cout << "cluster epoch: unresolved (" << epoch.error().message() << ")\n";
  }
  if (args.get("metrics")) std::cout << client.metrics().render_prometheus();
  return 0;
}

std::pair<std::string, std::uint16_t> parse_target(const std::string& target);

// Ask a running asrankd (loopback only) to hot-load a snapshot file.
int cmd_reload(const std::optional<std::string>& target, const Args& args) {
  const auto [host, port] =
      target ? parse_target(*target)
             : std::pair<std::string, std::uint16_t>{
                   args.get_or("host", "127.0.0.1"),
                   static_cast<std::uint16_t>(args.get_u64("port", 7464))};
  serve::Client client = need(serve::Client::dial(host, port));
  const auto info =
      need(client.try_reload(args.require("snapshot"), args.get_or("epoch", "")));
  std::cout << "reloaded epoch '" << info.label << "' (" << info.ases << " ASes)\n";
  return 0;
}

/// Split "host:port" (":port" optional, default 7464).
std::pair<std::string, std::uint16_t> parse_target(const std::string& target) {
  const auto colon = target.rfind(':');
  if (colon == std::string::npos) return {target, 7464};
  const std::string host = target.substr(0, colon);
  const auto port = std::strtoul(target.c_str() + colon + 1, nullptr, 10);
  if (host.empty() || port == 0 || port > 65535) {
    throw UsageError("malformed <host:port> '" + target + "'");
  }
  return {host, static_cast<std::uint16_t>(port)};
}

// Scrape a running asrankd's Prometheus exposition, like
// `curl host:port/metrics` would against an HTTP daemon.
int cmd_metrics(const std::optional<std::string>& target, const Args& args) {
  const auto [host, port] =
      target ? parse_target(*target)
             : std::pair<std::string, std::uint16_t>{
                   args.get_or("host", "127.0.0.1"),
                   static_cast<std::uint16_t>(args.get_u64("port", 7464))};
  serve::Client client = need(serve::Client::dial(host, port));
  std::cout << need(client.try_metrics_text());
  return 0;
}

/// SIGINT/SIGTERM flag for the long-running ingest loop (which deliberately
/// does NOT use Server::install_signal_handlers: the ingest loop — not the
/// embedded server — owns shutdown, so it can cut a final epoch first).
volatile std::sig_atomic_t g_ingest_stop = 0;

extern "C" void ingest_stop_handler(int) { g_ingest_stop = 1; }

// Long-running streaming ingest: tail a BGP4MP update feed, maintain the
// route table, and periodically emit fresh epochs — to disk (--out-dir),
// into an embedded asrankd (--serve-port), and/or into a separate daemon
// via loopback RELOAD (--target host:port, needs --out-dir).
int cmd_ingest(const Args& args) {
  const std::string updates_path = args.require("updates");
  const bool follow = args.get("follow").has_value();
  if (follow && updates_path == "-") {
    throw UsageError("--follow tails a seekable file, not stdin");
  }
  const std::string out_dir = args.get_or("out-dir", "");
  const auto target = args.get("target");
  const bool serve = args.get("serve-port").has_value();
  if (target && out_dir.empty()) {
    throw UsageError("--target needs --out-dir (the daemon reloads from a file path)");
  }
  if (!serve && !target && out_dir.empty()) {
    throw UsageError("need an epoch sink: --serve-port, --out-dir, and/or --target");
  }

  ingest::EpochBuilderConfig builder_config;
  builder_config.inference.threads = args.get_u64("threads", 0);
  builder_config.cone_threads = args.get_u64("threads", 0);
  // Extra algorithm sections per emitted epoch.  EpochBuilder runs
  // AsRankInference, so asrank stays the primary slot; the rest re-infer
  // from the live corpus at each flush and ride along as tagged sections.
  const auto algorithms = algorithm_list(args.get_or("algorithm", "asrank"));
  if (algorithms[0] != "asrank") {
    throw UsageError("ingest's epoch builder runs asrank; list it first "
                     "(e.g. --algorithm asrank," + algorithms[0] + ")");
  }
  const std::vector<std::string> extra_algos(algorithms.begin() + 1,
                                             algorithms.end());
  const std::size_t infer_threads = args.get_u64("threads", 0);

  ingest::EpochBuilder builder(builder_config);
  ingest::UpdateApplier applier;

  if (const auto rib_path = args.get("rib")) {
    auto rib_in = open_in(*rib_path);
    for (const auto& route : bgpsim::from_rib_dump(mrt::read_table_dump_v2(rib_in))) {
      applier.seed(route.vp, route.prefix, route.path);
    }
    std::cerr << "ingest: seeded " << applier.route_count() << " routes from "
              << *rib_path << "\n";
  }

  const std::uint64_t flush_n = args.get_u64("flush-every-n", 0);
  const std::uint64_t flush_ms = args.get_u64("flush-every-ms", 0);
  const bool flush_ts = args.get("flush-on-ts").has_value();
  // With no trigger armed, default to a count policy so the loop still cuts
  // epochs instead of buffering forever.
  ingest::FlushPolicy policy(
      flush_n == 0 && flush_ms == 0 && !flush_ts ? 10000 : flush_n, flush_ms,
      flush_ts);
  const std::string label_format = args.get_or("epoch-label-format", "epoch-%N");

  serve::SnapshotRegistryConfig registry_config;
  registry_config.retention = args.get_u64("retention", 8);
  serve::SnapshotRegistry registry(registry_config);
  std::unique_ptr<serve::Server> server;
  std::thread server_thread;
  if (serve) {
    serve::ServerConfig server_config;
    server_config.host = args.get_or("serve-host", "127.0.0.1");
    server_config.port = static_cast<std::uint16_t>(args.get_u64("serve-port", 7474));
    server_config.threads = args.get_u64("serve-threads", 2);
    server = std::make_unique<serve::Server>(registry, server_config);
    server_thread = std::thread([&server] { server->run(); });
    std::cerr << "ingest: serving on " << server_config.host << ":" << server->port()
              << " (" << server_config.threads << " workers)\n";
  }

  const auto now_ms = [] {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
  };
  const std::uint64_t poll_ms = std::max<std::uint64_t>(1, args.get_u64("poll-ms", 200));
  const auto sleep_poll = [poll_ms] {
    for (std::uint64_t slept = 0; slept < poll_ms && !g_ingest_stop; slept += 20) {
      std::this_thread::sleep_for(
          std::chrono::milliseconds(std::min<std::uint64_t>(20, poll_ms - slept)));
    }
  };

  std::uint32_t last_ts = 0;
  const auto flush = [&](const char* reason) {
    // Nothing new since the last cut (and at least one epoch exists): no-op.
    if (policy.pending() == 0 && builder.epochs_built() > 0) return;
    if (applier.route_count() == 0) {
      policy.flushed(now_ms());
      return;  // empty table — an epoch with zero ASes helps nobody
    }
    ingest::EpochBuildInfo info;
    const auto corpus = applier.corpus();
    auto built = builder.build(corpus, &info);
    if (!built.ok()) {
      obs::log_warn("ingest epoch build failed",
                    {{"reason", reason}, {"error", built.error().context}});
      policy.flushed(now_ms());  // back off; retry at the next boundary
      return;
    }
    if (!extra_algos.empty()) {
      const auto degrees = core::Degrees::compute(corpus, infer_threads);
      std::vector<std::pair<std::string, snapshot::SnapshotIndex>> parts;
      parts.emplace_back("asrank", std::move(built).value());
      for (const auto& name : extra_algos) {
        parts.emplace_back(
            name, build_algorithm_part(name, corpus, degrees, infer_threads));
      }
      built = snapshot::combine_snapshots(std::move(parts));
      if (!built.ok()) {
        obs::log_warn("ingest epoch combine failed",
                      {{"reason", reason}, {"error", built.error().context}});
        policy.flushed(now_ms());
        return;
      }
    }
    const std::string label =
        ingest::expand_epoch_label(label_format, info.sequence, last_ts);
    std::string snapshot_path;
    if (!out_dir.empty()) {
      snapshot_path = out_dir + "/" + label + ".asrk";
      snapshot::write_snapshot_file(built.value(), snapshot_path);
    }
    if (serve) {
      auto installed = registry.install(label, std::move(built).value());
      if (!installed.ok()) {
        obs::log_warn("ingest epoch install failed",
                      {{"epoch", label}, {"error", installed.error().context}});
      }
    }
    if (target) {
      const auto [host, port] = parse_target(*target);
      auto client = serve::Client::dial(host, port);
      Result<serve::ReloadInfo> pushed =
          client.ok() ? client.value().try_reload(snapshot_path, label)
                      : Result<serve::ReloadInfo>(client.take_error());
      if (!pushed.ok()) {
        obs::log_warn("ingest remote reload failed",
                      {{"target", *target}, {"error", pushed.error().context}});
      }
    }
    applier.mark();
    policy.flushed(now_ms());
    std::cerr << "ingest: epoch '" << label << "' (" << reason << "): "
              << info.build_micros << " us\n";
  };

  g_ingest_stop = 0;
  std::signal(SIGINT, ingest_stop_handler);
  std::signal(SIGTERM, ingest_stop_handler);
  policy.flushed(now_ms());  // arm the interval trigger from "now", not 0

  std::ifstream file_in;
  std::istream* in = &std::cin;
  if (updates_path != "-") {
    file_in = open_in(updates_path);
    in = &file_in;
  }
  mrt::UpdateReader reader(*in);

  int exit_code = 0;
  while (!g_ingest_stop) {
    const std::streampos pos = in->tellg();
    auto next = reader.next();
    if (!next.ok()) {
      if (follow && next.error().code == ErrorCode::kTruncated) {
        // Partially written record: rewind to its start and wait for the
        // writer to finish it.
        in->clear();
        if (pos != std::streampos(-1)) in->seekg(pos);
        if (policy.due(now_ms())) flush("interval");
        sleep_poll();
        continue;
      }
      std::cerr << "ingest: stream error: " << next.error().message() << "\n";
      exit_code = 1;
      break;
    }
    if (!next.value().has_value()) {  // clean EOF
      if (follow) {
        in->clear();
        if (pos != std::streampos(-1)) in->seekg(pos);
        if (policy.due(now_ms())) flush("interval");
        sleep_poll();
        continue;
      }
      break;
    }
    const mrt::UpdateMessage message = std::move(*std::move(next).value());
    if (policy.due_before(message.timestamp)) flush("timestamp");
    applier.apply(message);
    policy.applied(message.timestamp);
    last_ts = message.timestamp;
    if (policy.due(now_ms())) flush("batch");
  }

  flush("final");

  if (server && !g_ingest_stop && exit_code == 0 && !follow) {
    std::cerr << "ingest: stream complete; serving until SIGINT/SIGTERM\n";
    while (!g_ingest_stop) sleep_poll();
  }
  if (server) {
    server->stop();
    server_thread.join();
  }

  const auto& rstats = reader.stats();
  const auto& astats = applier.stats();
  std::cerr << "ingest: " << (exit_code == 0 ? "clean shutdown" : "stopped on error")
            << ": " << rstats.records << " records ("
            << rstats.updates << " updates, " << rstats.skipped() << " skipped), "
            << astats.announced << " announced / " << astats.withdrawn
            << " withdrawn (" << astats.as_set_rejected << " AS_SET rejected), "
            << builder.epochs_built() << " epochs emitted\n";
  return exit_code;
}

/// The flags each command accepts, one row per command, mirroring usage().
/// main() rejects any other flag before dispatch, so a misspelt flag is a
/// usage error instead of a silent default.
const std::map<std::string_view, std::set<std::string_view>> kCommandFlags = {
    {"generate", {"out", "ppdc", "preset", "seed", "hybrid-fraction", "leaker-fraction"}},
    {"observe", {"mrt", "pipe", "preset", "seed", "full-vps", "partial-vps",
                 "hybrid-fraction", "leaker-fraction"}},
    {"infer", {"mrt", "pipe", "out", "ixp", "algorithm", "threads"}},
    {"cones", {"as-rel", "out", "method", "mrt", "pipe", "threads"}},
    {"rank", {"as-rel", "mrt", "pipe", "top", "threads"}},
    {"validate", {"inferred", "truth", "mrt", "pipe", "algorithm", "threads"}},
    {"hierarchy", {"as-rel", "clique"}},
    {"diff", {"before", "after"}},
    {"updates", {"out", "rib", "preset", "seed", "full-vps", "partial-vps",
                 "hybrid-fraction", "leaker-fraction", "steps", "bootstrap", "base-ts",
                 "step-seconds"}},
    {"ingest", {"updates", "rib", "follow", "poll-ms", "flush-every-n", "flush-every-ms",
                "flush-on-ts", "epoch-label-format", "out-dir", "serve-port", "serve-host",
                "serve-threads", "target", "threads", "retention", "algorithm"}},
    {"replay", {"rib", "updates", "out"}},
    {"snapshot", {"as-rel", "out", "ppdc", "mrt", "pipe", "method", "clique", "algorithm",
                  "threads"}},
    {"serve", {"snapshot", "host", "port", "threads", "epoch", "retention",
               "idle-timeout-ms", "deadline-ms", "max-conns", "reload-path", "mmap",
               "cone-bitset-min"}},
    {"query", {"op", "host", "port", "a", "b", "n", "epoch", "algorithm", "cluster", "slots",
               "replication", "fanout", "ea", "eb", "first", "second", "limit"}},
    {"cluster-status", {"cluster", "slots", "replication", "fanout", "metrics"}},
    {"reload", {"host", "port", "snapshot", "epoch"}},
    {"metrics", {"host", "port"}},
};

void usage(std::ostream& os) {
  os <<
      "usage: asrank_cli <command> [--flag value ...]\n"
      "commands:\n"
      "  generate --out F.as-rel [--ppdc F.ppdc] [--preset P] [--seed N]\n"
      "           [--hybrid-fraction X] [--leaker-fraction X] (adversarial scenarios)\n"
      "  observe  (--mrt F | --pipe F) [--preset P] [--seed N] [--full-vps N] [--partial-vps N]\n"
      "           [--hybrid-fraction X] [--leaker-fraction X] (must match generate)\n"
      "  infer    (--mrt F | --pipe F) --out F.as-rel [--ixp a,b,c] [--threads N]\n"
      "           [--algorithm NAME] (default asrank)\n"
      "  cones    --as-rel F --out F.ppdc [--method recursive|ppdc|observed] [--mrt F | --pipe F]\n"
      "           [--threads N]\n"
      "  rank     --as-rel F (--mrt F | --pipe F) [--top N] [--threads N]\n"
      "  validate --inferred F.as-rel --truth F.as-rel\n"
      "           or: --truth F.as-rel (--mrt F | --pipe F) --algorithm a,b,c [--threads N]\n"
      "           (per-algorithm PPV comparison against ground truth)\n"
      "  hierarchy --as-rel F [--clique a,b,c]\n"
      "  diff     --before F.as-rel --after F.as-rel\n"
      "  updates  --out F.updates [--rib F.mrt] [--preset P] [--seed N]\n"
      "           [--full-vps N] [--partial-vps N] [--hybrid-fraction X] [--leaker-fraction X]\n"
      "           [--steps N] [--bootstrap] [--base-ts N] [--step-seconds N]\n"
      "           (--steps/--bootstrap emit a timestamped multi-step stream)\n"
      "  ingest   --updates F|- [--rib F.mrt] [--follow] [--poll-ms N]\n"
      "           [--flush-every-n N] [--flush-every-ms N] [--flush-on-ts]\n"
      "           [--epoch-label-format FMT] [--out-dir D] [--serve-port N]\n"
      "           [--serve-host H] [--serve-threads N] [--target host:port]\n"
      "           [--threads N] [--retention N] [--algorithm asrank,b,c]\n"
      "           long-running: BGP4MP updates in, fresh served epochs out\n"
      "  replay   --rib F.mrt --updates F.updates --out F2.mrt\n"
      "  snapshot --as-rel F --out F.asrk [--ppdc F | --mrt F | --pipe F]\n"
      "           [--method recursive|ppdc|observed] [--clique a,b,c] [--threads N]\n"
      "           or: --out F.asrk (--mrt F | --pipe F) --algorithm a,b,c [--threads N]\n"
      "           (multi-algorithm snapshot; first name is the primary slot)\n"
      "  serve    --snapshot F.asrk [--host H] [--port N] [--threads N]\n"
      "           [--epoch LABEL] [--retention N] [--idle-timeout-ms N]\n"
      "           [--deadline-ms N] [--max-conns N] [--reload-path F]\n"
      "           [--mmap 0|1] [--cone-bitset-min N]\n"
      "           (SIGHUP hot-reloads the snapshot; old epochs stay queryable)\n"
      "  query    --op OP [--host H] [--port N] [--a ASN] [--b ASN] [--n N]\n"
      "           [--epoch LABEL] (answer from a named resident epoch)\n"
      "           [--algorithm NAME] (answer from a named algorithm section)\n"
      "           [--cluster host:port,host:port,...] (sharded cluster instead\n"
      "           of one server; with [--slots N] [--replication N] [--fanout N])\n"
      "           OP: ping rel rank conesize cone incone providers customers\n"
      "               peers top intersect cliquepath clique stats metrics\n"
      "               epochs algos conediff (--a ASN --ea EPOCH --eb EPOCH)\n"
      "               disagree (--first ALGO --second ALGO [--limit N])\n"
      "  cluster-status (host:port,host:port,... | --cluster host:port,...)\n"
      "           [--slots N] [--replication N] [--fanout N]\n"
      "           [--metrics] probe every member: breaker state, reachability,\n"
      "           resident epoch, and the resolved cluster-wide epoch\n"
      "  reload   [host:port | --host H --port N] --snapshot F.asrk [--epoch LABEL]\n"
      "           hot-load a snapshot into a running asrankd (loopback only)\n"
      "  metrics  [host:port] (default 127.0.0.1:7464; or --host H --port N)\n"
      "           print a running asrankd's Prometheus metrics\n"
      "  help     print this usage\n"
      "global flags (every command):\n"
      "  --log-level trace|debug|info|warn|error|off   (default info)\n"
      "  --log-json                                    JSON-lines log output\n"
      "  --version                                     print version and exit\n"
      "exit codes: 0 success, 1 runtime error, 2 usage error\n";
  os << "registered algorithms: " << algo::names_csv()
     << " (docs/ALGORITHMS.md)\n";
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    usage(std::cerr);
    return 2;
  }
  const std::string command = argv[1];
  if (command == "help" || command == "--help" || command == "-h") {
    usage(std::cout);
    return 0;
  }
  if (command == "--version" || command == "version") {
    std::cout << "asrank_cli " << ASRANK_VERSION << "\n";
    return 0;
  }
  try {
    // `metrics`, `reload`, and `cluster-status` accept one optional
    // positional <host:port[,host:port...]> before flags.
    std::optional<std::string> target;
    int first_flag = 2;
    if ((command == "metrics" || command == "reload" ||
         command == "cluster-status") &&
        argc > 2 && std::string(argv[2]).rfind("--", 0) != 0) {
      target = argv[2];
      first_flag = 3;
    }
    const Args args(argc, argv, first_flag);
    if (const auto accepted = kCommandFlags.find(command); accepted != kCommandFlags.end()) {
      args.check_accepted(accepted->second);
    }
    // Logging flags apply before any command body and override the
    // ASRANK_LOG / ASRANK_LOG_JSON environment.
    if (const auto level_text = args.get("log-level")) {
      const auto level = obs::parse_log_level(*level_text);
      if (!level) throw UsageError("bad --log-level '" + *level_text + "'");
      obs::Logger::global().set_level(*level);
    }
    if (args.get("log-json")) obs::Logger::global().set_json(true);
    if (command == "generate") return cmd_generate(args);
    if (command == "observe") return cmd_observe(args);
    if (command == "infer") return cmd_infer(args);
    if (command == "cones") return cmd_cones(args);
    if (command == "rank") return cmd_rank(args);
    if (command == "validate") return cmd_validate(args);
    if (command == "hierarchy") return cmd_hierarchy(args);
    if (command == "diff") return cmd_diff(args);
    if (command == "updates") return cmd_updates(args);
    if (command == "ingest") return cmd_ingest(args);
    if (command == "replay") return cmd_replay(args);
    if (command == "snapshot") return cmd_snapshot(args);
    if (command == "serve") return cmd_serve(args);
    if (command == "query") return cmd_query(args);
    if (command == "reload") return cmd_reload(target, args);
    if (command == "metrics") return cmd_metrics(target, args);
    if (command == "cluster-status") return cmd_cluster_status(target, args);
    std::cerr << "asrank_cli: unknown command '" << command
              << "' (try 'asrank_cli help')\n";
    return 2;
  } catch (const UsageError& error) {
    std::cerr << "asrank_cli " << command << ": " << error.what()
              << " (try 'asrank_cli help')\n";
    return 2;
  } catch (const std::exception& error) {
    std::cerr << "asrank_cli " << command << ": " << error.what() << "\n";
    return 1;
  }
}
