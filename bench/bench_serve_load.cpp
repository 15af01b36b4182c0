// Serving-runtime load harness: drives asrankd's task runtime with many
// concurrent keep-alive connections, each cycling connect → k binary
// CONE_SIZE requests → close, and records per-request latency percentiles
// and throughput into BENCH_serve_load.json.  Not a paper artefact: this is
// the engineering harness for the runtime (src/runtime +
// src/serve/server.cpp); the BENCH trajectory tracks serving tail latency
// across PRs.
//
//     bench_serve_load [connections] [duration_ms] [json_out] [total_ases]
//
// Defaults: 1000 2000 BENCH_serve_load.json 5000
//
// The load generator is single-threaded and non-blocking on purpose — it
// reuses runtime::Reactor, so thousands of in-flight connections cost one
// generator thread and the measured process is the server, not the bench.
// Request latency is stamped from connect() initiation for a connection's
// first request (admission/adoption wait is part of serving latency) and
// from just before the write for subsequent requests on the same
// connection. Connections the server never got to within the window are
// reported as `unanswered` rather than silently dropped from the stats.
//
// Exits non-zero unless the server answered at least one request and no
// connection failed.
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/resource.h>
#include <sys/socket.h>

#include <arpa/inet.h>
#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "core/cones.h"
#include "obs/metrics.h"
#include "runtime/reactor.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "serve/snapshot_registry.h"
#include "snapshot/snapshot.h"
#include "topogen/topogen.h"

namespace {

using namespace asrank;
using Clock = std::chrono::steady_clock;

constexpr int kRequestsPerConnection = 8;

double to_micros(Clock::duration d) {
  return std::chrono::duration<double, std::micro>(d).count();
}

/// One binary CONE_SIZE frame, ready to write: marker + u32 LE len + payload.
std::vector<std::uint8_t> cone_size_frame(Asn as) {
  serve::WireWriter writer;
  writer.u8(static_cast<std::uint8_t>(serve::Op::kConeSize));
  writer.u32(as.value());
  const auto payload = writer.take();
  std::vector<std::uint8_t> frame;
  frame.reserve(5 + payload.size());
  frame.push_back(serve::kBinaryMarker);
  const auto len = static_cast<std::uint32_t>(payload.size());
  frame.push_back(static_cast<std::uint8_t>(len & 0xFF));
  frame.push_back(static_cast<std::uint8_t>((len >> 8) & 0xFF));
  frame.push_back(static_cast<std::uint8_t>((len >> 16) & 0xFF));
  frame.push_back(static_cast<std::uint8_t>((len >> 24) & 0xFF));
  frame.insert(frame.end(), payload.begin(), payload.end());
  return frame;
}

struct LoadStats {
  std::vector<double> latencies_us;  ///< one sample per completed exchange
  std::uint64_t responses = 0;
  std::uint64_t connects = 0;
  std::uint64_t errors = 0;
  std::uint64_t unanswered = 0;  ///< requests in flight when the window closed
};

/// A virtual client: non-blocking connect, then a closed loop of
/// kRequestsPerConnection request/response exchanges, then reconnect.
class LoadConn final : public runtime::IoHandler {
 public:
  LoadConn(runtime::Reactor& reactor, std::uint16_t port,
           const std::vector<std::vector<std::uint8_t>>& frames,
           std::size_t frame_seed, LoadStats& stats, const Clock::time_point& deadline)
      : reactor_(reactor),
        port_(port),
        frames_(frames),
        next_frame_(frame_seed % frames.size()),
        stats_(stats),
        deadline_(deadline) {}

  ~LoadConn() { teardown(/*count_inflight=*/false); }

  void start() { connect(); }

  /// Close out at the end of the measurement window; an exchange that never
  /// completed is tallied as unanswered, not as a latency sample.
  void finish() { teardown(/*count_inflight=*/true); }

  void on_io(std::uint32_t events) override {
    if (fd_ < 0) return;
    if (state_ == State::kConnecting && (events & runtime::Reactor::kWrite) != 0) {
      int err = 0;
      socklen_t len = sizeof err;
      ::getsockopt(fd_, SOL_SOCKET, SO_ERROR, &err, &len);
      if (err != 0) {
        fail();
        return;
      }
      ++stats_.connects;
      state_ = State::kSending;
      reactor_.modify(fd_, runtime::Reactor::kRead);
      begin_request(/*first_on_connection=*/true);
      return;
    }
    if (state_ == State::kSending && (events & runtime::Reactor::kWrite) != 0) {
      pump_write();
    }
    if (state_ == State::kReceiving && (events & runtime::Reactor::kRead) != 0) {
      pump_read();
    }
  }

 private:
  enum class State { kIdle, kConnecting, kSending, kReceiving };

  void connect() {
    fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK, 0);
    if (fd_ < 0) {
      ++stats_.errors;
      return;
    }
    int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port_);
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    // First-request latency includes connect + admission + adoption: the
    // queue wait a real client would feel is part of serving latency.
    t0_ = Clock::now();
    const int rc = ::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr);
    if (rc != 0 && errno != EINPROGRESS) {
      fail();
      return;
    }
    state_ = State::kConnecting;
    requests_done_ = 0;
    if (!reactor_.add(fd_, runtime::Reactor::kWrite, this)) fail();
  }

  void begin_request(bool first_on_connection) {
    if (!first_on_connection) t0_ = Clock::now();
    wbuf_ = &frames_[next_frame_];
    next_frame_ = (next_frame_ + 1) % frames_.size();
    wpos_ = 0;
    rbuf_.clear();
    state_ = State::kSending;
    inflight_ = true;
    pump_write();
  }

  void pump_write() {
    while (wpos_ < wbuf_->size()) {
      const ssize_t n =
          ::write(fd_, wbuf_->data() + wpos_, wbuf_->size() - wpos_);
      if (n > 0) {
        wpos_ += static_cast<std::size_t>(n);
        continue;
      }
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        reactor_.modify(fd_, runtime::Reactor::kRead | runtime::Reactor::kWrite);
        return;
      }
      fail();
      return;
    }
    state_ = State::kReceiving;
    reactor_.modify(fd_, runtime::Reactor::kRead);
    pump_read();  // the response may already be readable
  }

  void pump_read() {
    char buf[4096];
    while (true) {
      const ssize_t n = ::read(fd_, buf, sizeof buf);
      if (n > 0) {
        rbuf_.insert(rbuf_.end(), buf, buf + n);
        continue;
      }
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
      fail();  // EOF or error mid-response
      return;
    }
    if (rbuf_.size() < 5) return;
    const std::uint32_t len = static_cast<std::uint32_t>(rbuf_[1]) |
                              (static_cast<std::uint32_t>(rbuf_[2]) << 8) |
                              (static_cast<std::uint32_t>(rbuf_[3]) << 16) |
                              (static_cast<std::uint32_t>(rbuf_[4]) << 24);
    if (rbuf_.size() < 5u + len) return;

    inflight_ = false;
    ++stats_.responses;
    stats_.latencies_us.push_back(to_micros(Clock::now() - t0_));
    ++requests_done_;

    if (Clock::now() >= deadline_) {
      teardown(/*count_inflight=*/false);
      return;
    }
    if (requests_done_ >= kRequestsPerConnection) {
      // Cycle the connection: admission and adoption stay on the measured
      // path for the whole window.
      teardown(/*count_inflight=*/false);
      connect();
      return;
    }
    begin_request(/*first_on_connection=*/false);
  }

  void fail() {
    ++stats_.errors;
    teardown(/*count_inflight=*/false);
  }

  void teardown(bool count_inflight) {
    if (count_inflight && (inflight_ || state_ == State::kConnecting)) {
      ++stats_.unanswered;
    }
    inflight_ = false;
    if (fd_ >= 0) {
      reactor_.remove(fd_);
      ::close(fd_);
      fd_ = -1;
    }
    state_ = State::kIdle;
  }

  runtime::Reactor& reactor_;
  std::uint16_t port_;
  const std::vector<std::vector<std::uint8_t>>& frames_;
  std::size_t next_frame_;
  LoadStats& stats_;
  const Clock::time_point& deadline_;

  int fd_ = -1;
  State state_ = State::kIdle;
  const std::vector<std::uint8_t>* wbuf_ = nullptr;
  std::size_t wpos_ = 0;
  std::vector<std::uint8_t> rbuf_;
  Clock::time_point t0_{};
  int requests_done_ = 0;
  bool inflight_ = false;
};

double percentile(std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  const auto idx = static_cast<std::size_t>(p * (sorted.size() - 1));
  return sorted[idx];
}

struct LoadResult {
  LoadStats stats;
  double seconds = 0.0;
  double p50 = 0.0, p99 = 0.0, p999 = 0.0;
  [[nodiscard]] double qps() const {
    return seconds > 0.0 ? stats.responses / seconds : 0.0;
  }
};

LoadResult run_load(serve::SnapshotRegistry& snapshots, std::size_t connections,
                    int duration_ms,
                    const std::vector<std::vector<std::uint8_t>>& frames) {
  serve::ServerConfig config;
  config.port = 0;  // ephemeral
  config.threads = 0;  // hardware concurrency
  config.backlog = static_cast<int>(std::max<std::size_t>(connections, 256));
  config.idle_timeout_ms = 60000;
  config.query_deadline_ms = 30000;
  config.max_connections = 0;  // the bench controls concurrency, not shedding
  serve::Server server(snapshots, config);
  std::thread server_thread([&server] { server.run(); });

  runtime::Reactor reactor;
  LoadStats stats;
  stats.latencies_us.reserve(connections * 64);
  Clock::time_point deadline = Clock::now() + std::chrono::milliseconds(duration_ms);

  std::vector<std::unique_ptr<LoadConn>> conns;
  conns.reserve(connections);
  const auto start = Clock::now();
  deadline = start + std::chrono::milliseconds(duration_ms);
  for (std::size_t i = 0; i < connections; ++i) {
    conns.push_back(std::make_unique<LoadConn>(reactor, server.port(), frames, i,
                                               stats, deadline));
    conns.back()->start();
    // Interleave connect bursts with event processing so the SYN flood
    // cannot outrun the accept loop.
    if (i % 64 == 63) reactor.poll_once(0);
  }
  while (Clock::now() < deadline) {
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
                          deadline - Clock::now())
                          .count();
    reactor.poll_once(static_cast<int>(std::clamp<long long>(left, 1, 50)));
  }
  for (auto& conn : conns) conn->finish();
  const auto elapsed = std::chrono::duration<double>(Clock::now() - start);

  server.stop();
  server_thread.join();

  LoadResult result;
  result.stats = std::move(stats);
  result.seconds = elapsed.count();
  std::sort(result.stats.latencies_us.begin(), result.stats.latencies_us.end());
  result.p50 = percentile(result.stats.latencies_us, 0.50);
  result.p99 = percentile(result.stats.latencies_us, 0.99);
  result.p999 = percentile(result.stats.latencies_us, 0.999);
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  std::size_t connections = 1000;
  int duration_ms = 2000;
  std::string json_out = "BENCH_serve_load.json";
  std::size_t total_ases = 5000;
  if (argc > 1) connections = std::strtoull(argv[1], nullptr, 10);
  if (argc > 2) duration_ms = static_cast<int>(std::strtol(argv[2], nullptr, 10));
  if (argc > 3) json_out = argv[3];
  if (argc > 4) total_ases = std::strtoull(argv[4], nullptr, 10);

  // Thousands of sockets (bench side + server side) live in this process.
  rlimit nofile{};
  if (::getrlimit(RLIMIT_NOFILE, &nofile) == 0 && nofile.rlim_cur < nofile.rlim_max) {
    nofile.rlim_cur = nofile.rlim_max;
    ::setrlimit(RLIMIT_NOFILE, &nofile);
  }

  const unsigned hardware_threads = std::max(1u, std::thread::hardware_concurrency());

  auto params = topogen::GenParams::preset("medium");
  params.total_ases = total_ases;
  params.seed = 42;
  const auto truth = topogen::generate(params);
  const auto& graph = truth.graph;
  std::unordered_map<Asn, std::size_t> tdeg;
  for (const Asn as : graph.ases()) tdeg[as] = graph.customers(as).size();
  auto index =
      snapshot::build_snapshot(graph, tdeg, core::recursive_cone(graph),
                               graph.provider_free_ases());
  const std::vector<Asn> all(index.ases().begin(), index.ases().end());

  obs::Registry metrics;
  serve::SnapshotRegistry snapshots({}, &metrics);
  if (!snapshots.install("bench", std::move(index)).ok()) {
    std::cerr << "FAIL: snapshot install failed\n";
    return 1;
  }

  // A deterministic pool of prebuilt request frames the connections rotate
  // through (uniform ASes — CONE_SIZE is a direct index lookup, so the bench
  // measures the runtime, not the query).
  std::mt19937_64 rng(42);
  std::vector<std::vector<std::uint8_t>> frames;
  frames.reserve(1024);
  for (int i = 0; i < 1024; ++i) {
    frames.push_back(cone_size_frame(all[rng() % all.size()]));
  }

  std::cout << "== serve load (" << connections << " connections, " << duration_ms
            << " ms, " << graph.as_count() << " ASes, " << hardware_threads
            << " hardware threads) ==\n";

  const auto load = run_load(snapshots, connections, duration_ms, frames);
  std::cout << "task: " << load.stats.responses << " responses, "
            << static_cast<std::uint64_t>(load.qps()) << " qps, p50 " << load.p50
            << " us, p99 " << load.p99 << " us, p999 " << load.p999 << " us ("
            << load.stats.errors << " errors, " << load.stats.unanswered
            << " unanswered)\n";

  std::ofstream json(json_out);
  json << "{\n  \"bench\": \"serve_load\",\n";
  json << "  \"hardware_threads\": " << hardware_threads << ",\n";
  json << "  \"build_type\": \"" << ASRANK_BUILD_TYPE << "\",\n";
  json << "  \"git_sha\": \"" << ASRANK_GIT_SHA << "\",\n";
  json << "  \"connections\": " << connections << ",\n";
  json << "  \"requests_per_connection\": " << kRequestsPerConnection << ",\n";
  json << "  \"duration_ms\": " << duration_ms << ",\n";
  json << "  \"ases\": " << graph.as_count() << ",\n";
  json << "  \"modes\": {\n";
  json << "    \"task\": {\"responses\": " << load.stats.responses
       << ", \"connects\": " << load.stats.connects
       << ", \"errors\": " << load.stats.errors
       << ", \"unanswered\": " << load.stats.unanswered
       << ", \"qps\": " << static_cast<std::uint64_t>(load.qps())
       << ", \"p50_us\": " << load.p50 << ", \"p99_us\": " << load.p99
       << ", \"p999_us\": " << load.p999 << "}\n  }\n}\n";
  std::cout << "wrote " << json_out << "\n";

  if (load.stats.responses == 0 || load.stats.errors != 0) {
    std::cerr << "FAIL: " << load.stats.responses << " responses, "
              << load.stats.errors << " errors\n";
    return 1;
  }
  return 0;
}
