#include "runtime/scheduler.h"

#include <string>

#include "util/thread_pool.h"

namespace asrank::runtime {

TaskScheduler::TaskScheduler(TaskSchedulerConfig config, obs::Registry* registry)
    : config_(config) {
  std::size_t n = util::resolve_threads(config_.workers);
  workers_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    auto w = std::make_unique<Worker>();
    w->parks_total = &registry->counter(
        "asrankd_runtime_parks_total", "idle reactor parks (no tasks, no io) per worker",
        {{"worker", std::to_string(i)}});
    workers_.push_back(std::move(w));
  }
  registry->gauge("asrankd_runtime_workers", "worker threads in the task scheduler")
      .set(static_cast<std::int64_t>(n));
}

TaskScheduler::~TaskScheduler() {
  stop();
  join();
}

void TaskScheduler::start(Hooks hooks) {
  hooks_ = std::move(hooks);
  started_ = true;
  for (std::size_t i = 0; i < workers_.size(); ++i) {
    workers_[i]->thread = std::thread([this, i] { worker_main(i); });
  }
}

void TaskScheduler::stop() noexcept {
  stop_.store(true, std::memory_order_release);
  for (auto& w : workers_) w->reactor.wake();
}

void TaskScheduler::join() {
  if (!started_ || joined_) return;
  for (auto& w : workers_) {
    if (w->thread.joinable()) w->thread.join();
  }
  joined_ = true;
}

void TaskScheduler::notify(std::size_t worker) noexcept {
  Worker& w = *workers_[worker];
  // Pairs with the park protocol in worker_main: either the worker's
  // post-announce re-check sees the flag and skips the park, or we see
  // sleeping==true and wake the reactor.
  w.notified.store(true, std::memory_order_seq_cst);
  if (w.sleeping.load(std::memory_order_seq_cst)) w.reactor.wake();
}

void TaskScheduler::worker_main(std::size_t index) {
  Worker& w = *workers_[index];
  if (hooks_.on_start) hooks_.on_start(index);
  while (!stop_.load(std::memory_order_acquire)) {
    // Clearing by exchange reads the notifier's store, so whatever it
    // published before notify() is visible to this pass's on_pass.
    w.notified.exchange(false, std::memory_order_acq_rel);

    auto now = TimerQueue::Clock::now();
    bool did_work = w.timers.expire(now, [&](std::uint64_t id, std::uint32_t kind) {
                      if (hooks_.on_timer) hooks_.on_timer(index, id, kind);
                    }) != 0;

    if (hooks_.on_pass) did_work |= hooks_.on_pass(index);

    if (stop_.load(std::memory_order_acquire)) break;

    int timeout = 0;
    if (!did_work) {
      timeout = w.timers.poll_timeout_ms(TimerQueue::Clock::now(), config_.tick_ms);
    }
    if (timeout > 0) {
      // Park protocol: announce intent to sleep, then re-check the flag.
      // A notify() that set it before reading `sleeping` is either seen by
      // this re-check or sees sleeping==true and wakes the reactor.
      w.sleeping.store(true, std::memory_order_seq_cst);
      if (w.notified.load(std::memory_order_seq_cst) ||
          stop_.load(std::memory_order_acquire)) {
        w.sleeping.store(false, std::memory_order_relaxed);
        continue;
      }
      int events = w.reactor.poll_once(timeout);
      w.sleeping.store(false, std::memory_order_relaxed);
      if (events == 0) w.parks_total->inc();
    } else {
      w.reactor.poll_once(0);
    }
  }
  if (hooks_.on_stop) hooks_.on_stop(index);
}

}  // namespace asrank::runtime
