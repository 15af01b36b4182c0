// asrankd — the snapshot-query daemon.
//
// One task-scheduled runtime serves every connection.  run() keeps the
// accept loop (bound in the constructor so ephemeral port 0 works in tests)
// inline on the calling thread; accepted sockets flow through a bounded
// lock-free MPMC admission queue to per-core workers (runtime::TaskScheduler).
// Each worker owns an edge-notified reactor (epoll on Linux, poll fallback)
// and drives resumable per-connection state machines — read-frame → decode
// → execute → write — parked on the reactor between steps, so thousands of
// idle connections cost no threads.  Snapshot lookups run under
// epoch-based-reclamation guards (SnapshotRegistry::ReadView): the hot path
// never bumps a shared_ptr refcount.
//
// A connection interleaves length-prefixed binary frames and newline text
// commands (protocol.h).  One dispatcher, handle_binary_request, answers
// both: a text line is tokenized into the binary request a Client would
// send and its response rendered back to one "OK ..." / "ERR ..." line.
// Idle timeouts, query deadlines and max-connection shedding apply to every
// connection.  Shutdown is cooperative and signal-safe: stop() — or the
// SIGINT/SIGTERM handler installed by install_signal_handlers() — writes to
// a self-pipe; the accept loop drains, every worker is woken through its
// reactor, and run() returns after in-flight requests complete.
//
// The server serves a SnapshotRegistry, not a single engine: queries default
// to the current epoch, may name any resident epoch, and SIGHUP (or the
// RELOAD command from a loopback peer) hot-swaps a new snapshot in without
// dropping in-flight queries (see snapshot_registry.h).
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "obs/metrics.h"
#include "runtime/mpmc_queue.h"
#include "runtime/scheduler.h"
#include "serve/snapshot_registry.h"

namespace asrank::serve {

struct ServerConfig {
  std::string host = "127.0.0.1";
  std::uint16_t port = 7464;  ///< 0 = kernel-assigned (see Server::port())
  /// Worker count; 0 = hardware concurrency (the resolved value is logged at
  /// startup and exported as asrankd_worker_threads).
  std::size_t threads = 4;
  int backlog = 64;
  /// Close a keep-alive connection after this long with no request bytes.
  /// <= 0 disables.  Also bounds the worker poll tick (capped at 200ms), so
  /// a small idle timeout tightens shutdown latency too.
  int idle_timeout_ms = 60000;
  /// Budget for reading the rest of a request once its first byte arrived.
  /// <= 0 disables.
  int query_deadline_ms = 5000;
  /// Admission bound on simultaneously-open connections; further accepts
  /// are shed with one "ERR shedding" line.  0 disables.
  std::size_t max_connections = 256;
  /// Snapshot path re-read on SIGHUP ("" disables SIGHUP reloads).
  std::string reload_path;
  /// Epoch label for SIGHUP reloads ("" = derive from reload_path).
  std::string reload_label;
};

class Server {
 public:
  /// Binds and listens immediately; throws ProtocolError on failure.  The
  /// registry must outlive the server.
  Server(SnapshotRegistry& registry, ServerConfig config);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// The actually-bound port (resolves config.port == 0).
  [[nodiscard]] std::uint16_t port() const noexcept { return port_; }

  /// Serve until stop() (or a handled signal) is observed.  Blocking.
  void run();

  /// Request shutdown.  Thread-safe, idempotent, and safe to call before or
  /// during run().
  void stop() noexcept;

  /// Route SIGINT/SIGTERM to stop() and SIGHUP to a reload of
  /// config.reload_path, via a self-pipe write (async-signal-safe).  Only
  /// one server per process may install.
  void install_signal_handlers();

  /// Connections accepted so far (for tests and the daemon's exit log).
  [[nodiscard]] std::uint64_t connections_served() const noexcept {
    return connections_.load(std::memory_order_relaxed);
  }

  /// The worker poll tick derived from idle_timeout_ms (exposed so tests
  /// can assert shutdown latency stays under one tick).
  [[nodiscard]] int poll_tick_ms() const noexcept { return poll_tick_ms_; }

  /// Resolved worker count (config.threads, with 0 mapped to hardware
  /// concurrency at construction).
  [[nodiscard]] std::size_t worker_threads() const noexcept { return threads_; }

 private:
  // Admission-queue entry; `hint` is the worker the acceptor nominated
  // (round-robin) — any worker may pop it, a mismatch is counted as a steal.
  struct Admission {
    int fd = -1;
    bool local = false;
    std::uint32_t hint = 0;
  };
  class TaskConn;
  struct WorkerCtx;

  void accept_loop();
  /// Refuse `fd` at the admission limit: one "ERR shedding" line, then close.
  void shed(int fd);
  bool drain_admissions(std::size_t worker);
  void adopt_connection(std::size_t worker, const Admission& admission);
  void conn_timer_fired(std::size_t worker, std::uint64_t conn_id,
                        std::uint32_t kind);
  void close_worker_connections(std::size_t worker);

  SnapshotRegistry& registry_;
  ServerConfig config_;
  std::size_t threads_ = 1;  ///< resolved worker count
  int listen_fd_ = -1;
  int stop_pipe_[2] = {-1, -1};  ///< signal/stop commands to accept loop
  std::uint16_t port_ = 0;
  int poll_tick_ms_ = 200;
  std::atomic<std::uint64_t> connections_{0};
  std::atomic<std::size_t> active_connections_{0};

  // Daemon counters in the registry's obs::Registry (resolved at bind time).
  obs::Counter* connections_total_;       ///< asrankd_connections_total
  obs::Counter* frames_total_;            ///< asrankd_frames_total
  obs::Counter* text_commands_total_;     ///< asrankd_text_commands_total
  obs::Counter* protocol_errors_total_;   ///< asrankd_protocol_errors_total
  obs::Counter* shed_total_;              ///< asrankd_connections_shed_total
  obs::Counter* idle_timeouts_total_;     ///< asrankd_idle_timeouts_total
  obs::Counter* deadline_timeouts_total_; ///< asrankd_deadline_timeouts_total
  obs::Counter* admission_steals_total_;  ///< asrankd_runtime_admission_steals_total

  /// Why a connection closed: clean EOF, QUIT, idle timeout, read deadline,
  /// server shutdown, peer reset, or any other framing/socket error.
  enum class CloseReason : std::uint8_t {
    kEof, kQuit, kIdle, kDeadline, kShutdown, kPeerReset, kError
  };
  /// asrankd_connections_closed_total{reason=...}, indexed by CloseReason:
  /// every adopted or queued connection counts once when it closes.
  std::array<obs::Counter*, 7> closed_total_{};
  void count_close(CloseReason reason) noexcept {
    closed_total_[static_cast<std::size_t>(reason)]->inc();
  }

  // Runtime state, alive for the duration of run().
  std::unique_ptr<runtime::TaskScheduler> scheduler_;
  std::unique_ptr<runtime::BoundedMpmcQueue<Admission>> admissions_;
  std::vector<std::unique_ptr<WorkerCtx>> worker_ctx_;
  std::uint32_t next_hint_ = 0;  ///< round-robin worker hint (accept thread only)
};

/// Decode and execute one binary request payload; always returns a response
/// payload (status byte first), never throws for malformed requests.
/// `local_peer` gates the RELOAD opcode (loopback connections only).  The
/// view-taking overload is the hot path: the caller must hold an EBR guard
/// on the registry's reclaim_domain() (see SnapshotRegistry::ReadView); the
/// registry-taking overload pins a transient guard itself.
[[nodiscard]] std::vector<std::uint8_t> handle_binary_request(
    const SnapshotRegistry::ReadView& view, std::span<const std::uint8_t> payload,
    bool local_peer = true);
[[nodiscard]] std::vector<std::uint8_t> handle_binary_request(
    SnapshotRegistry& registry, std::span<const std::uint8_t> payload,
    bool local_peer = true);

/// Execute one text-mode command line; returns the full response text
/// (possibly multi-line for STATS, "."-terminated), without trailing
/// newline.  The line is tokenized into the binary request a Client would
/// send (scoped by "@<epoch>" / "@<algorithm>" prefixes) and answered by
/// handle_binary_request; only HELP and PING are answered locally, and QUIT
/// is the caller's business (it closes the connection).  Guard discipline
/// matches handle_binary_request above.
[[nodiscard]] std::string handle_text_request(const SnapshotRegistry::ReadView& view,
                                              std::string_view line,
                                              bool local_peer = true);
[[nodiscard]] std::string handle_text_request(SnapshotRegistry& registry,
                                              std::string_view line,
                                              bool local_peer = true);

}  // namespace asrank::serve
