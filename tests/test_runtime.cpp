// Unit and stress tests for the task-serving runtime primitives
// (src/runtime): the bounded MPMC admission queue, the timer heap, the
// reactor (both backends), epoch-based reclamation, and the per-core
// TaskScheduler with its notify/park handshake. The stress tests are
// deliberately small enough to run under ThreadSanitizer in CI (the .github
// tsan job) yet still exercise real cross-thread interleavings.
#include <gtest/gtest.h>

#include <fcntl.h>
#include <poll.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <set>
#include <thread>
#include <vector>

#include "core/cones.h"
#include "obs/metrics.h"
#include "runtime/ebr.h"
#include "runtime/mpmc_queue.h"
#include "runtime/reactor.h"
#include "runtime/scheduler.h"
#include "runtime/timer_queue.h"
#include "serve/snapshot_registry.h"
#include "snapshot/snapshot.h"

namespace asrank::runtime {
namespace {

using namespace std::chrono_literals;

// ------------------------------------------------------------ MPMC queue --

TEST(BoundedMpmcQueue, CapacityRoundsUpToPowerOfTwo) {
  EXPECT_EQ(BoundedMpmcQueue<int>(1).capacity(), 2u);
  EXPECT_EQ(BoundedMpmcQueue<int>(2).capacity(), 2u);
  EXPECT_EQ(BoundedMpmcQueue<int>(3).capacity(), 4u);
  EXPECT_EQ(BoundedMpmcQueue<int>(256).capacity(), 256u);
  EXPECT_EQ(BoundedMpmcQueue<int>(300).capacity(), 512u);
}

TEST(BoundedMpmcQueue, FifoAndFullEmptyBoundaries) {
  BoundedMpmcQueue<int> queue(4);
  EXPECT_EQ(queue.try_pop(), std::nullopt);
  for (int i = 0; i < 4; ++i) EXPECT_TRUE(queue.try_push(i));
  EXPECT_FALSE(queue.try_push(99));  // full
  for (int i = 0; i < 4; ++i) {
    auto v = queue.try_pop();
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(*v, i);
  }
  EXPECT_EQ(queue.try_pop(), std::nullopt);
  // The ring is reusable across laps.
  EXPECT_TRUE(queue.try_push(42));
  EXPECT_EQ(queue.try_pop(), 42);
}

TEST(BoundedMpmcQueue, MultiProducerMultiConsumerStress) {
  constexpr int kProducers = 3;
  constexpr int kConsumers = 3;
  constexpr int kPerProducer = 4000;
  BoundedMpmcQueue<std::uint64_t> queue(64);

  std::atomic<std::uint64_t> popped_sum{0};
  std::atomic<int> popped_count{0};
  std::uint64_t pushed_sum = 0;

  std::vector<std::thread> threads;
  for (int p = 0; p < kProducers; ++p) {
    threads.emplace_back([&queue, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        const std::uint64_t value =
            static_cast<std::uint64_t>(p) * kPerProducer + i + 1;
        while (!queue.try_push(value)) std::this_thread::yield();
      }
    });
  }
  for (int c = 0; c < kConsumers; ++c) {
    threads.emplace_back([&queue, &popped_sum, &popped_count] {
      while (popped_count.load(std::memory_order_relaxed) <
             kProducers * kPerProducer) {
        auto v = queue.try_pop();
        if (!v.has_value()) {
          std::this_thread::yield();
          continue;
        }
        popped_sum.fetch_add(*v, std::memory_order_relaxed);
        popped_count.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (auto& t : threads) t.join();

  for (int p = 0; p < kProducers; ++p) {
    for (int i = 0; i < kPerProducer; ++i) {
      pushed_sum += static_cast<std::uint64_t>(p) * kPerProducer + i + 1;
    }
  }
  EXPECT_EQ(popped_count.load(), kProducers * kPerProducer);
  EXPECT_EQ(popped_sum.load(), pushed_sum);
  EXPECT_EQ(queue.try_pop(), std::nullopt);
}

// ------------------------------------------------------------ timer heap --

TEST(TimerQueue, PollTimeoutClampsAndRoundsUp) {
  TimerQueue timers;
  const auto now = TimerQueue::Clock::now();
  EXPECT_EQ(timers.poll_timeout_ms(now, 200), 200);  // empty -> cap

  timers.schedule(now + 1500us, 1, 0);
  // 1.5ms rounds up to 2 so the worker does not wake just before the
  // deadline and spin.
  EXPECT_EQ(timers.poll_timeout_ms(now, 200), 2);
  EXPECT_EQ(timers.poll_timeout_ms(now, 1), 1);  // capped
  EXPECT_EQ(timers.poll_timeout_ms(now + 5ms, 200), 0);  // past due
}

TEST(TimerQueue, ExpireFiresDueEntriesInDeadlineOrder) {
  TimerQueue timers;
  const auto now = TimerQueue::Clock::now();
  timers.schedule(now + 30ms, 3, 0);
  timers.schedule(now + 10ms, 1, 7);
  timers.schedule(now + 20ms, 2, 0);

  std::vector<std::uint64_t> fired;
  std::uint32_t kind_seen = 0;
  EXPECT_EQ(timers.expire(now + 25ms,
                          [&](std::uint64_t id, std::uint32_t kind) {
                            fired.push_back(id);
                            if (id == 1) kind_seen = kind;
                          }),
            2u);
  EXPECT_EQ(fired, (std::vector<std::uint64_t>{1, 2}));
  EXPECT_EQ(kind_seen, 7u);
  EXPECT_EQ(timers.size(), 1u);

  // The callback may re-schedule (lazy-cancellation pattern).
  timers.expire(now + 35ms, [&](std::uint64_t id, std::uint32_t) {
    if (id == 3) timers.schedule(now + 50ms, 3, 0);
  });
  EXPECT_EQ(timers.size(), 1u);
  EXPECT_EQ(timers.poll_timeout_ms(now + 50ms, 200), 0);
}

// --------------------------------------------------------------- reactor --

class PipeEcho : public IoHandler {
 public:
  explicit PipeEcho(int fd) : fd_(fd) {}
  void on_io(std::uint32_t events) override {
    events_ |= events;
    if ((events & Reactor::kRead) != 0) {
      char buf[64];
      // Edge-triggered contract: drain until EAGAIN.
      while (::read(fd_, buf, sizeof buf) > 0) ++reads_;
    }
  }
  [[nodiscard]] std::uint32_t events() const { return events_; }
  [[nodiscard]] int reads() const { return reads_; }

 private:
  int fd_;
  std::uint32_t events_ = 0;
  int reads_ = 0;
};

class ReactorBackends : public ::testing::TestWithParam<bool> {};

TEST_P(ReactorBackends, DispatchesReadinessAndHonorsRemove) {
  const bool force_poll = GetParam();
  Reactor reactor(force_poll);
  if (!force_poll && !reactor.epoll_backed()) GTEST_SKIP() << "no epoll";

  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  // Non-blocking read end so the ET drain loop terminates at EAGAIN.
  ASSERT_EQ(::fcntl(fds[0], F_SETFL, ::fcntl(fds[0], F_GETFL) | O_NONBLOCK), 0);
  PipeEcho echo(fds[0]);
  ASSERT_TRUE(reactor.add(fds[0], Reactor::kRead, &echo));
  EXPECT_EQ(reactor.watched(), 1u);

  EXPECT_EQ(reactor.poll_once(0), 0);  // nothing ready yet

  ASSERT_EQ(::write(fds[1], "x", 1), 1);
  int dispatched = 0;
  for (int i = 0; i < 100 && dispatched == 0; ++i) dispatched = reactor.poll_once(10);
  EXPECT_EQ(dispatched, 1);
  EXPECT_NE(echo.events() & Reactor::kRead, 0u);
  EXPECT_GE(echo.reads(), 1);

  reactor.remove(fds[0]);
  EXPECT_EQ(reactor.watched(), 0u);
  ASSERT_EQ(::write(fds[1], "y", 1), 1);
  EXPECT_EQ(reactor.poll_once(0), 0);  // removed fds are not dispatched

  ::close(fds[0]);
  ::close(fds[1]);
}

TEST_P(ReactorBackends, CrossThreadWakeInterruptsPoll) {
  const bool force_poll = GetParam();
  Reactor reactor(force_poll);
  if (!force_poll && !reactor.epoll_backed()) GTEST_SKIP() << "no epoll";

  const auto start = std::chrono::steady_clock::now();
  std::thread waker([&reactor] {
    std::this_thread::sleep_for(20ms);
    reactor.wake();
  });
  // Without the wake this would block for the full 5s.
  EXPECT_EQ(reactor.poll_once(5000), 0);
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_LT(elapsed, 2s);
  waker.join();

  // Coalesced wakes do not leave the reactor permanently hot.
  reactor.wake();
  reactor.wake();
  EXPECT_EQ(reactor.poll_once(0), 0);
  EXPECT_EQ(reactor.poll_once(0), 0);
}

INSTANTIATE_TEST_SUITE_P(Backends, ReactorBackends, ::testing::Values(false, true),
                         [](const auto& info) {
                           return info.param ? "poll" : "epoll";
                         });

// ------------------------------------------------------------------- EBR --

TEST(Ebr, NoReclamationWhileAReaderIsPinned) {
  ebr::Domain domain;
  std::atomic<int> reclaimed{0};

  auto* reader_slot = domain.acquire_slot();
  {
    ebr::Guard guard(domain, *reader_slot);
    domain.retire([&reclaimed] { reclaimed.fetch_add(1); });
    EXPECT_EQ(domain.pending(), 1u);
    // However often we try, a pinned reader from before the retire blocks
    // reclamation.
    for (int i = 0; i < 10; ++i) EXPECT_EQ(domain.try_advance(), 0u);
    EXPECT_EQ(reclaimed.load(), 0);
  }
  // Reader quiesced: a few advances (epoch must move twice past the
  // retirement epoch) now free the object.
  std::size_t freed = 0;
  for (int i = 0; i < 10 && freed == 0; ++i) freed = domain.try_advance();
  EXPECT_EQ(freed, 1u);
  EXPECT_EQ(reclaimed.load(), 1);
  EXPECT_EQ(domain.pending(), 0u);
  domain.release_slot(reader_slot);
}

TEST(Ebr, SlowPathGuardAcquiresAndReleasesTransientSlot) {
  ebr::Domain domain;
  std::atomic<int> reclaimed{0};
  {
    ebr::Guard guard(domain);
    domain.retire([&reclaimed] { reclaimed.fetch_add(1); });
    for (int i = 0; i < 10; ++i) EXPECT_EQ(domain.try_advance(), 0u);
  }
  std::size_t freed = 0;
  for (int i = 0; i < 10 && freed == 0; ++i) freed = domain.try_advance();
  EXPECT_EQ(freed, 1u);
  EXPECT_EQ(reclaimed.load(), 1);
}

TEST(Ebr, DomainDestructorRunsLeftoverReclaimers) {
  std::atomic<int> reclaimed{0};
  {
    ebr::Domain domain;
    domain.retire([&reclaimed] { reclaimed.fetch_add(1); });
    domain.retire([&reclaimed] { reclaimed.fetch_add(1); });
  }
  EXPECT_EQ(reclaimed.load(), 2);
}

TEST(Ebr, StressReadersNeverObserveAFreedObject) {
  // Writer repeatedly swaps a published pointer and retires the old target;
  // readers dereference under a guard. A use-after-free here is what TSan /
  // ASan exist to catch; the functional assertion is that every reader sees
  // a live value and everything is eventually reclaimed.
  constexpr int kReaders = 3;
  constexpr int kSwaps = 400;

  ebr::Domain domain;
  std::atomic<std::uint64_t*> published{new std::uint64_t(0)};
  std::atomic<bool> done{false};
  std::atomic<int> bad_reads{0};

  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&] {
      auto* slot = domain.acquire_slot();
      while (!done.load(std::memory_order_acquire)) {
        ebr::Guard guard(domain, *slot);
        const std::uint64_t* p = published.load(std::memory_order_acquire);
        // Values are generation numbers; a freed object would be poisoned or
        // fault under sanitizers.
        if (*p > kSwaps) bad_reads.fetch_add(1);
      }
      domain.release_slot(slot);
    });
  }

  std::size_t reclaimed = 0;
  for (std::uint64_t gen = 1; gen <= kSwaps; ++gen) {
    auto* fresh = new std::uint64_t(gen);
    auto* old = published.exchange(fresh, std::memory_order_acq_rel);
    domain.retire([old] { delete old; });
    reclaimed += domain.try_advance();
  }
  done.store(true, std::memory_order_release);
  for (auto& t : readers) t.join();

  // Everything retires eventually once readers quiesce.
  for (int i = 0; i < 20 && domain.pending() > 0; ++i) {
    reclaimed += domain.try_advance();
  }
  EXPECT_EQ(domain.pending(), 0u);
  EXPECT_EQ(reclaimed, static_cast<std::size_t>(kSwaps));
  EXPECT_EQ(bad_reads.load(), 0);
  delete published.load();
}

// --------------------------------------------------------- TaskScheduler --

TEST(TaskScheduler, NotifyWakesAParkedWorkerWithinOneTick) {
  constexpr int kTickMs = 200;
  constexpr int kRounds = 100;
  obs::Registry metrics;
  TaskSchedulerConfig config;
  config.workers = 1;
  config.tick_ms = kTickMs;
  TaskScheduler scheduler(config, &metrics);

  // The notifier publishes a round number, then notifies; on_pass reports
  // the round it saw. A lost wakeup shows as a round that takes a full tick.
  std::atomic<int> published{0};
  std::atomic<int> observed{0};
  TaskScheduler::Hooks hooks;
  hooks.on_pass = [&](std::size_t) {
    observed.store(published.load(std::memory_order_relaxed),
                   std::memory_order_release);
    return false;  // no work: the worker parks for a whole tick
  };
  scheduler.start(std::move(hooks));

  std::chrono::steady_clock::duration slowest{};
  std::thread notifier([&] {
    for (int round = 1; round <= kRounds; ++round) {
      // Even rounds let the worker settle into its park, so notify() must
      // wake the reactor; odd rounds race the worker's park announcement.
      if (round % 2 == 0) std::this_thread::sleep_for(2ms);
      const auto start = std::chrono::steady_clock::now();
      published.store(round, std::memory_order_relaxed);
      scheduler.notify(0);
      const auto deadline = start + 5s;
      while (observed.load(std::memory_order_acquire) < round &&
             std::chrono::steady_clock::now() < deadline) {
        std::this_thread::yield();
      }
      slowest = std::max(slowest, std::chrono::steady_clock::now() - start);
    }
  });
  notifier.join();
  EXPECT_EQ(observed.load(), kRounds);
  EXPECT_LT(std::chrono::duration_cast<std::chrono::milliseconds>(slowest).count(),
            kTickMs / 4);

  scheduler.stop();
  scheduler.join();
  // A wake-pipe return dispatches no I/O, so each woken park is counted.
  EXPECT_GE(metrics.counter("asrankd_runtime_parks_total", "", {{"worker", "0"}}).value(),
            1u);
}

TEST(TaskScheduler, NotifyBetweenPassAndParkIsNotLost) {
  // A notify that lands after a pass cleared the flag but before the worker
  // announces its park must cost one more pass, not a tick. An on_pass that
  // notifies its own worker lands in that window every time.
  constexpr int kTickMs = 200;
  constexpr int kPasses = 20;
  obs::Registry metrics;
  TaskSchedulerConfig config;
  config.workers = 1;
  config.tick_ms = kTickMs;
  TaskScheduler scheduler(config, &metrics);

  std::atomic<int> passes{0};
  TaskScheduler::Hooks hooks;
  hooks.on_pass = [&](std::size_t worker) {
    if (passes.fetch_add(1) + 1 < kPasses) scheduler.notify(worker);
    return false;
  };
  const auto start = std::chrono::steady_clock::now();
  scheduler.start(std::move(hooks));
  const auto deadline = start + 10s;
  while (passes.load() < kPasses && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(1ms);
  }
  const auto elapsed = std::chrono::steady_clock::now() - start;
  scheduler.stop();
  scheduler.join();
  EXPECT_GE(passes.load(), kPasses);
  EXPECT_LT(std::chrono::duration_cast<std::chrono::milliseconds>(elapsed).count(),
            kTickMs / 4);
}

TEST(TaskScheduler, FiresTimerCheckpointsViaHook) {
  obs::Registry metrics;
  TaskSchedulerConfig config;
  config.workers = 1;
  config.tick_ms = 5;
  TaskScheduler scheduler(config, &metrics);

  std::atomic<std::uint64_t> fired_id{0};
  std::atomic<std::uint32_t> fired_kind{0};
  TaskScheduler::Hooks hooks;
  // Timers are worker-owned: schedule from the worker's own on_start.
  hooks.on_start = [&scheduler](std::size_t worker) {
    scheduler.timers(worker).schedule(TimerQueue::Clock::now() + 10ms, 42, 7);
  };
  hooks.on_timer = [&](std::size_t, std::uint64_t id, std::uint32_t kind) {
    fired_id.store(id);
    fired_kind.store(kind);
  };
  scheduler.start(std::move(hooks));

  const auto deadline = std::chrono::steady_clock::now() + 5s;
  while (fired_id.load() == 0 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(1ms);
  }
  EXPECT_EQ(fired_id.load(), 42u);
  EXPECT_EQ(fired_kind.load(), 7u);

  scheduler.stop();
  scheduler.join();
}

TEST(TaskScheduler, StopAndJoinAreIdempotent) {
  obs::Registry metrics;
  TaskSchedulerConfig config;
  config.workers = 2;
  config.tick_ms = 5;
  {
    TaskScheduler never_started(config, &metrics);
    never_started.stop();
    never_started.join();  // nothing to join; the destructor stops again
  }

  TaskScheduler scheduler(config, &metrics);
  ASSERT_EQ(scheduler.worker_count(), 2u);
  std::atomic<int> started{0};
  std::atomic<int> stopped{0};
  TaskScheduler::Hooks hooks;
  hooks.on_start = [&](std::size_t) { started.fetch_add(1); };
  hooks.on_stop = [&](std::size_t) { stopped.fetch_add(1); };
  scheduler.start(std::move(hooks));
  scheduler.stop();
  scheduler.stop();
  scheduler.join();
  scheduler.join();
  EXPECT_TRUE(scheduler.stopping());
  EXPECT_EQ(started.load(), 2);
  EXPECT_EQ(stopped.load(), 2);
  EXPECT_EQ(metrics.gauge("asrankd_runtime_workers").value(), 2);
}

// ----------------------------------------- registry torture (EBR + RCU) --

snapshot::SnapshotIndex small_index(std::uint32_t leaf) {
  AsGraph graph;
  graph.add_p2p(Asn(1), Asn(2));
  graph.add_p2c(Asn(1), Asn(3));
  graph.add_p2c(Asn(2), Asn(3));
  graph.add_p2c(Asn(3), Asn(leaf));
  const std::unordered_map<Asn, std::size_t> tdeg = {
      {Asn(1), 2}, {Asn(2), 2}, {Asn(3), 1}};
  return snapshot::build_snapshot(graph, tdeg, core::recursive_cone(graph),
                                  {Asn(1), Asn(2)});
}

TEST(RegistryTorture, EbrGuardedReadersSurviveConcurrentInstallAndEvict) {
  constexpr int kReaders = 3;
  constexpr int kInstalls = 60;

  obs::Registry metrics;
  serve::SnapshotRegistryConfig config;
  config.retention = 2;  // force evictions while readers hold views
  serve::SnapshotRegistry registry(config, &metrics);
  ASSERT_TRUE(registry.install("seed", small_index(4)).ok());

  std::atomic<bool> done{false};
  std::atomic<int> failures{0};
  std::atomic<std::uint64_t> reads{0};

  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&] {
      auto* slot = registry.reclaim_domain().acquire_slot();
      while (!done.load(std::memory_order_acquire)) {
        ebr::Guard guard(registry.reclaim_domain(), *slot);
        const auto view = registry.read_view();
        auto* engine = view.current();
        if (engine == nullptr) {
          failures.fetch_add(1);
          continue;
        }
        // cone(1) is {1,3,4} or {1,3,<leaf>} depending on the resident
        // generation; it must always be 3 ASes rooted at 1.
        const auto cone = engine->cone(Asn(1));
        if (cone.size() != 3 || cone.front() != Asn(1)) failures.fetch_add(1);
        if (view.epoch_count() == 0 || view.epochs().empty()) failures.fetch_add(1);
        reads.fetch_add(1);
      }
      registry.reclaim_domain().release_slot(slot);
    });
  }

  for (int i = 0; i < kInstalls; ++i) {
    // Alternate labels so retention (2) keeps evicting the older one.
    const std::string label = i % 2 == 0 ? "flip" : "flop";
    auto installed =
        registry.install(label, small_index(5 + static_cast<std::uint32_t>(i % 3)));
    if (!installed.ok()) failures.fetch_add(1);
    registry.reclaim_pass();
    std::this_thread::sleep_for(1ms);
  }
  done.store(true, std::memory_order_release);
  for (auto& t : readers) t.join();

  // All readers quiesced: the backlog drains completely.
  for (int i = 0; i < 20 && registry.reclaim_domain().pending() > 0; ++i) {
    registry.reclaim_pass();
  }
  EXPECT_EQ(registry.reclaim_domain().pending(), 0u);
  EXPECT_EQ(failures.load(), 0);
  EXPECT_GT(reads.load(), 0u);
  // Retired generations were actually freed, not just parked.
  EXPECT_GT(metrics
                .counter("asrankd_snapshot_generations_reclaimed_total",
                         "Retired snapshot generations freed after reader quiesce")
                .value(),
            0u);
}

}  // namespace
}  // namespace asrank::runtime
