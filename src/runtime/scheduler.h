#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "obs/metrics.h"
#include "runtime/reactor.h"
#include "runtime/timer_queue.h"

namespace asrank::runtime {

struct TaskSchedulerConfig {
  /// 0 = hardware concurrency.
  std::size_t workers = 0;
  /// Upper bound on how long a worker parks with no timers pending.
  int tick_ms = 200;
};

/// Per-core worker scheduler: each worker owns an edge-notified Reactor and a
/// TimerQueue, and runs a single-threaded event loop over them. Another
/// thread reaches a worker only through `notify(worker)`, which makes the
/// worker run its next pass (and so its `on_pass` hook) promptly; any state a
/// worker's callbacks touch is single-threaded once that worker owns it.
///
/// The embedding layer (the serve daemon) drives connection state machines
/// from reactor callbacks and uses the hooks for lifecycle and per-pass work
/// such as draining a shared admission queue.
class TaskScheduler {
 public:
  struct Hooks {
    /// Runs on the worker thread before the first pass.
    std::function<void(std::size_t worker)> on_start;
    /// Runs on the worker thread after the loop exits.
    std::function<void(std::size_t worker)> on_stop;
    /// Runs every pass after timers; return true if it did work (suppresses
    /// parking this pass). A notify() is seen by the next pass that starts.
    std::function<bool(std::size_t worker)> on_pass;
    /// Fired timer checkpoints: (worker, id, kind).
    std::function<void(std::size_t worker, std::uint64_t id, std::uint32_t kind)>
        on_timer;
  };

  TaskScheduler(TaskSchedulerConfig config, obs::Registry* registry);
  ~TaskScheduler();

  TaskScheduler(const TaskScheduler&) = delete;
  TaskScheduler& operator=(const TaskScheduler&) = delete;

  [[nodiscard]] std::size_t worker_count() const noexcept { return workers_.size(); }

  /// Spawns the worker threads. Call at most once.
  void start(Hooks hooks);

  /// Requests shutdown and wakes every worker. Idempotent, thread-safe.
  void stop() noexcept;

  /// Joins the worker threads (after stop()).
  void join();

  /// Makes the worker start another pass: it will not park before running
  /// on_pass once more, and is woken if it is parked now. Notifies before
  /// that pass coalesce. Safe from any thread.
  void notify(std::size_t worker) noexcept;

  /// The worker's reactor/timers. Only the worker thread itself may use
  /// these (except Reactor::wake).
  Reactor& reactor(std::size_t worker) { return workers_[worker]->reactor; }
  TimerQueue& timers(std::size_t worker) { return workers_[worker]->timers; }

  [[nodiscard]] bool stopping() const noexcept {
    return stop_.load(std::memory_order_acquire);
  }

 private:
  struct Worker {
    std::atomic<bool> sleeping{false};
    std::atomic<bool> notified{false};
    Reactor reactor;
    TimerQueue timers;
    std::thread thread;
    obs::Counter* parks_total = nullptr;
  };

  void worker_main(std::size_t index);

  TaskSchedulerConfig config_;
  std::vector<std::unique_ptr<Worker>> workers_;
  Hooks hooks_;
  std::atomic<bool> stop_{false};
  bool started_ = false;
  bool joined_ = false;
};

}  // namespace asrank::runtime
