// Helpers shared by the two serving workloads: blocking probes, request
// rendering, in-process replays through the engine and both dispatch rails,
// the reply byte-equality check, and the runtime/generator layer metrics.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>

#include <unistd.h>

#include <array>
#include <chrono>
#include <stdexcept>
#include <thread>

#include "obs/metrics.h"
#include "runtime/ebr.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "serve/snapshot_registry.h"
#include "serve/wire_ops.h"
#include "workloads.h"

namespace perfbench {

namespace serve = asrank::serve;
using asrank::Asn;

std::vector<std::uint8_t> probe(std::uint16_t port,
                                   const std::vector<std::uint8_t>& payload) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) throw std::runtime_error("socket failed");
  struct Closer {
    int fd;
    ~Closer() { ::close(fd); }
  } closer{fd};
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    throw std::runtime_error("probe connect failed");
  }
  serve::write_frame(fd, payload);
  std::uint8_t marker = 0;
  if (!serve::read_exact(fd, &marker, 1, 10000) || marker != serve::kBinaryMarker) {
    throw std::runtime_error("probe: no binary reply");
  }
  return serve::read_frame_body(fd, 10000);
}

std::unique_ptr<LoadGen> connect_load(std::uint16_t port, std::size_t binary_conns,
                                      std::size_t text_conns, Result& result) {
  // Let connections closed just before (the set-up probes) finish closing,
  // so no worker is still awake for them.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  const Exposition before = scrape();
  auto gen = std::make_unique<LoadGen>(port, binary_conns, text_conns);
  const double steals =
      delta(before, scrape(), "asrankd_runtime_admission_steals_total");
  result.metrics["runtime.admission_steals"] = steals;
  result.stamp["admission_steals"] = std::to_string(static_cast<std::uint64_t>(steals));
  return gen;
}

std::size_t ask(serve::QueryEngine& engine, const MixRequest& request,
                serve::QueryEngine* diff_from, serve::QueryEngine* diff_to) {
  const Asn a(request.a), b(request.b);
  switch (request.op) {
    case MixOp::kConeSize: return engine.cone_size(a);
    case MixOp::kRank: return engine.rank(a).value_or(0);
    case MixOp::kRelationship: return engine.relationship(a, b).has_value();
    case MixOp::kProviders: return engine.providers(a).size();
    case MixOp::kConeIntersect: return engine.cone_intersection(a, b)->size();
    case MixOp::kPathToClique: return engine.path_to_clique(a)->size();
    case MixOp::kCone: return engine.cone(a).size();
    case MixOp::kInCone: return engine.in_cone(a, b);
    case MixOp::kTop: return engine.top(request.n).size();
    case MixOp::kConeDiff:
      if (diff_from == nullptr || diff_to == nullptr) return 0;
      return diff_to->cone_minus(a, diff_from->cone(a)).size() +
             diff_from->cone_minus(a, diff_to->cone(a)).size();
  }
  return 0;
}

std::vector<std::string> served_epochs(std::uint16_t port) {
  const auto reply = probe(port, serve::wire::request(serve::Op::kEpochs).take());
  if (reply.empty() || reply[0] != 0) throw std::runtime_error("EPOCHS failed");
  auto labels = serve::wire::decode_labels(std::span(reply).subspan(1));
  if (!labels.ok()) throw std::runtime_error("EPOCHS reply undecodable");
  return std::move(labels).value();
}

LoadRequest render(const Mix& mix, const MixRequest& request, bool text) {
  LoadRequest load;
  load.op = static_cast<std::uint8_t>(request.op);
  load.text = text;
  if (text) {
    const std::string line = mix.text(request) + "\n";
    load.bytes.assign(line.begin(), line.end());
  } else {
    load.bytes = mix.frame(request);
  }
  return load;
}

RequestSource stream(Mix& mix) {
  return [&mix](bool text) { return render(mix, mix.next(), text); };
}

std::vector<MixRequest> draw(Mix mix, std::size_t count) {
  std::vector<MixRequest> out;
  out.reserve(count);
  for (std::size_t i = 0; i < count; ++i) out.push_back(mix.next());
  return out;
}

std::vector<std::pair<std::string, double>> replay_engine(
    serve::SnapshotRegistry& registry, const Mix& mix,
    const std::vector<MixRequest>& requests) {
  const auto current = registry.current();
  const auto scoped = mix.params().scope_epoch.empty()
                          ? current
                          : registry.epoch(mix.params().scope_epoch);
  const auto diff_from = mix.params().diff_from.empty()
                             ? current
                             : registry.epoch(mix.params().diff_from);
  const auto diff_to =
      mix.params().diff_to.empty() ? current : registry.epoch(mix.params().diff_to);
  if (!current || !scoped || !diff_from || !diff_to) {
    throw std::runtime_error("replay: an epoch of the mix is not resident");
  }
  std::array<double, kMixOpCount> total_us{};
  std::array<std::size_t, kMixOpCount> count{};
  std::size_t sink = 0;
  for (const auto& request : requests) {
    const auto t0 = Clock::now();
    sink += ask(request.scoped ? *scoped : *current, request, diff_from.get(), diff_to.get());
    const auto i = static_cast<std::size_t>(request.op);
    total_us[i] += micros_between(t0, Clock::now());
    ++count[i];
  }
  if (sink == 0) throw std::runtime_error("replay: every answer was empty");
  std::vector<std::pair<std::string, double>> out;
  for (std::size_t i = 0; i < kMixOpCount; ++i) {
    out.emplace_back(std::string(op_name(static_cast<MixOp>(i))),
                     count[i] == 0 ? 0.0 : total_us[i] / static_cast<double>(count[i]));
  }
  return out;
}

std::vector<double> replay_dispatch(serve::SnapshotRegistry& registry, const Mix& mix,
                                    const std::vector<MixRequest>& drawn, bool text) {
  std::vector<LoadRequest> requests;
  requests.reserve(drawn.size());
  for (const auto& request : drawn) requests.push_back(render(mix, request, text));
  std::vector<double> out;
  asrank::runtime::ebr::Guard guard(registry.reclaim_domain());
  const auto view = registry.read_view();
  for (const auto& request : requests) {
    const auto t0 = Clock::now();
    if (text) {
      const std::string_view line(reinterpret_cast<const char*>(request.bytes.data()),
                                  request.bytes.size() - 1);
      const auto reply = serve::handle_text_request(view, line);
      if (reply.empty()) throw std::runtime_error("empty text reply");
    } else {
      const auto reply =
          serve::handle_binary_request(view, std::span(request.bytes).subspan(5));
      if (reply.empty()) throw std::runtime_error("empty binary reply");
    }
    out.push_back(micros_between(t0, Clock::now()));
  }
  return out;
}

std::size_t check_samples(serve::SnapshotRegistry& registry,
                          const std::vector<Sample>& samples) {
  std::size_t mismatches = 0;
  for (const auto& sample : samples) {
    const LoadRequest& request = sample.request;
    std::vector<std::uint8_t> expected;
    if (request.text) {
      const std::string_view line(reinterpret_cast<const char*>(request.bytes.data()),
                                  request.bytes.size() - 1);
      const std::string reply = serve::handle_text_request(registry, line) + "\n";
      expected.assign(reply.begin(), reply.end());
    } else {
      const auto payload =
          serve::handle_binary_request(registry, std::span(request.bytes).subspan(5));
      expected.push_back(serve::kBinaryMarker);
      const auto len = static_cast<std::uint32_t>(payload.size());
      for (int shift = 0; shift < 32; shift += 8) {
        expected.push_back(static_cast<std::uint8_t>((len >> shift) & 0xFF));
      }
      expected.insert(expected.end(), payload.begin(), payload.end());
    }
    if (expected != sample.response) ++mismatches;
  }
  return mismatches;
}

void runtime_layers(const Exposition& before, const Exposition& after,
                    std::uint64_t requests, Result& result) {
  const auto d = [&](std::string_view family, std::string_view filter = {}) {
    return delta(before, after, family, filter);
  };
  const double per_1k = requests == 0 ? 0.0 : 1000.0 / static_cast<double>(requests);
  const double tasks = d("asrankd_runtime_task_latency_micros_count");
  result.metrics["runtime.task_latency_us"] =
      tasks == 0 ? 0.0 : d("asrankd_runtime_task_latency_micros_sum") / tasks;
  result.metrics["runtime.parks_per_1k"] = d("asrankd_runtime_parks_total") * per_1k;
  result.metrics["runtime.wakeups_per_1k"] = d("asrankd_runtime_wakeups_total") * per_1k;
  result.metrics["runtime.steals_per_1k"] =
      d("asrankd_runtime_admission_steals_total") * per_1k;

  const double lookups =
      d("asrankd_query_latency_micros_count", "type=\"cone_intersect\"") +
      d("asrankd_query_latency_micros_count", "type=\"path_to_clique\"");
  const double hits = d("asrankd_query_cache_hits_total", "type=\"cone_intersect\"") +
                      d("asrankd_query_cache_hits_total", "type=\"path_to_clique\"");
  result.metrics["serve.cache_lookups"] = lookups;
  result.metrics["serve.cache_hit_ratio"] = lookups == 0 ? 0.0 : hits / lookups;
  const double kernels = d("asrankd_cone_kernel_total");
  result.metrics["serve.cone_kernel_calls"] = kernels;
  result.metrics["serve.bitset_share"] =
      kernels == 0 ? 0.0 : d("asrankd_cone_kernel_total", "kernel=\"bitset\"") / kernels;
}

void generator_layers(const LoadResult& load, Result& result) {
  const double late_p99 = quantile(load.lateness_us, 0.99);
  result.metrics["gen.lateness_p99_us"] = late_p99;
  result.metrics["gen.backlog_max"] = static_cast<double>(load.backlog_max);
  // A generator that could not keep its own schedule measures itself, not
  // the server: flag it in the stamp.
  result.stamp["generator_behind"] = late_p99 > 1000.0 ? "yes" : "no";
}

}  // namespace perfbench
