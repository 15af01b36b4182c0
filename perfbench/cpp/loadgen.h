// Single-threaded socket load generator for the serving workloads.  It is
// written on plain epoll, not on the library's runtime::Reactor, so a change
// to the runtime moves the server's numbers and never the generator's.
//
// Open loop: request k is due at start + k / rate whether or not earlier
// requests were answered; it waits in a backlog until a connection of its
// rail is idle, and its latency is timed from when it was due.  Closed loop:
// every connection sends its next request as soon as the previous reply
// arrives.  Requests are drawn from a RequestSource as they are issued, so a
// run never sends a replay of an earlier stretch of its own load.
//
// A request that fails (an error reply, a reset connection, or no reply by
// the end of the drain) counts as missing every latency limit: when it was
// due inside the measured window its latency is +inf in its slot, and it is
// never counted as completed.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <vector>

#include "harness.h"

namespace perfbench {

struct LoadRequest {
  std::vector<std::uint8_t> bytes;  ///< binary frame, or text line with '\n'
  bool text = false;
  std::uint8_t op = 0;  ///< MixOp, for per-op breakdowns
};

/// Makes the next request for a connection of one rail (`text` = the text
/// rail).  Called from the generator thread as each request is issued.
using RequestSource = std::function<LoadRequest(bool text)>;

/// Per-request timestamps of the measured window (kept for the trace).
struct RequestTiming {
  std::uint64_t seq = 0;
  std::uint8_t op = 0;
  bool text = false;
  Clock::time_point due, sent, done;
};

struct Sample {
  LoadRequest request;
  std::vector<std::uint8_t> response;
};

/// Equal slices of a measured window.  Latency percentiles and the closed
/// loop's rate are taken per slot and reported as the median over slots, so
/// one transient stall moves one slot, not the run's figure.
inline constexpr std::size_t kSlots = 10;

/// Latency recorded for a failed request.
inline constexpr double kFailedLatencyUs = std::numeric_limits<double>::infinity();

struct LoadResult {
  std::vector<double> latency_us;   ///< due -> reply (or kFailedLatencyUs), measured window
  std::vector<std::uint8_t> slot;   ///< slot of each latency sample's due time
  std::vector<std::uint64_t> completed_per_slot = std::vector<std::uint64_t>(kSlots, 0);
  std::vector<double> slot_steal;   ///< steal share each slot saw (harness.h)
  std::size_t stolen_slots = 0;     ///< slots left out of the last slot figure
  std::vector<double> rtt_us;       ///< sent -> good reply, measured window
  std::vector<double> lateness_us;  ///< how late the generator noticed a due request
  std::vector<RequestTiming> timings;  ///< measured window, when tracing
  std::size_t backlog_max = 0;
  std::uint64_t attempted = 0;      ///< every request issued (warm-up included)
  std::uint64_t error_replies = 0;  ///< status byte 1 / "ERR ..."
  std::uint64_t resets = 0;         ///< connection lost with a request in flight
  std::uint64_t unanswered = 0;     ///< no reply by the end of the drain grace
  std::uint64_t completed = 0;      ///< good replies inside the measured window
  std::uint64_t response_bytes = 0; ///< good reply bytes inside the measured window
  double window_seconds = 0.0;
  std::vector<Sample> samples;

  [[nodiscard]] std::uint64_t failed() const noexcept {
    return error_replies + resets + unanswered;
  }
  /// Median over unstolen slots of each slot's latency quantile q.
  [[nodiscard]] double slot_latency(double q);
  /// Median over unstolen slots of completed replies per second.
  [[nodiscard]] double slot_rate();
};

struct OpenLoopConfig {
  double rate_qps = 1000.0;
  double warmup_seconds = 0.5;
  double seconds = 5.0;
  std::size_t sample_every = 0;  ///< keep every n-th reply for checking (0 = none)
  bool keep_timings = false;
  /// Called about once a millisecond from the generator thread (gauge
  /// sampling in the traced run).
  std::function<void()> on_tick;
};

class LoadGen {
 public:
  /// Connects `binary_conns` + `text_conns` loopback connections to `port`.
  LoadGen(std::uint16_t port, std::size_t binary_conns, std::size_t text_conns);
  ~LoadGen();
  LoadGen(const LoadGen&) = delete;
  LoadGen& operator=(const LoadGen&) = delete;

  /// Open loop: request k is drawn when it falls due, for the text rail
  /// when k is the last of each round of one request per connection.
  [[nodiscard]] LoadResult open_loop(const RequestSource& next, const OpenLoopConfig& config);
  /// Closed loop: each connection draws its next request of its own rail.
  [[nodiscard]] LoadResult closed_loop(const RequestSource& next, double seconds);

 private:
  struct Conn;
  enum class Pumped { kNothing, kReply, kLost };
  void connect_one(Conn& conn);
  void close_one(Conn& conn);
  /// Start sending `request` (sequence `seq`) on `conn`.
  void send(Conn& conn, LoadRequest request, std::uint64_t seq, Clock::time_point due);
  /// Pump reads/writes after an epoll event.  kReply: the reply completed
  /// (conn.rbuf holds it).  kLost: the connection dropped with a request in
  /// flight; it has been dialled again, idle.
  Pumped pump(Conn& conn, std::uint32_t events);

  std::uint16_t port_;
  std::size_t binary_conns_;
  int epoll_fd_ = -1;
  std::vector<std::unique_ptr<Conn>> conns_;
};

}  // namespace perfbench
