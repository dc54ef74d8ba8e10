// Tests for the coroutine runtime: Task<T> semantics, the EventLoop
// executor, the hierarchical timer wheel behind sleep_for, the awaitable
// AsyncQueue, and the BufferPool lease/return contract. These suites also
// run under the TSan CI leg — the spawn storms and cross-thread handoffs
// here are the data-race coverage for the async serving core.

#include <gtest/gtest.h>

#include <atomic>
#include <barrier>
#include <chrono>
#include <cstdint>
#include <latch>
#include <mutex>
#include <random>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#if defined(__linux__)
#include <sched.h>
#endif

#include "runtime/buffer_pool.hpp"
#include "runtime/event_loop.hpp"
#include "runtime/task.hpp"

namespace {

using wavekey::runtime::AsyncQueue;
using wavekey::runtime::BufferPool;
using wavekey::runtime::EventLoop;
using wavekey::runtime::PooledBuffer;
using wavekey::runtime::Task;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// --- Task<T> ----------------------------------------------------------------

Task<int> forty_two() { co_return 42; }

Task<int> add_via_children(int a, int b) {
  // Nested awaits: symmetric transfer through two child frames.
  const int x = co_await forty_two();
  co_return a + b + x - 42;
}

Task<void> throws_logic_error() {
  throw std::logic_error("boom");
  co_return;  // unreachable; marks the function as a coroutine
}

Task<void> observe(Task<int> child, int* out) { *out = co_await std::move(child); }

Task<void> catch_child(int* caught) {
  try {
    co_await throws_logic_error();
  } catch (const std::logic_error&) {
    *caught = 1;
  }
}

TEST(TaskCoroutine, LazyStartAndValueDelivery) {
  EventLoop loop(1);
  int out = 0;
  ASSERT_TRUE(loop.spawn(observe(forty_two(), &out)));
  loop.close();
  loop.drain();
  EXPECT_EQ(out, 42);
}

TEST(TaskCoroutine, NestedAwaitsPropagateValues) {
  EventLoop loop(1);
  int out = 0;
  ASSERT_TRUE(loop.spawn(observe(add_via_children(10, 20), &out)));
  loop.close();
  loop.drain();
  EXPECT_EQ(out, 30);
}

TEST(TaskCoroutine, ExceptionsRethrowInAwaiter) {
  EventLoop loop(1);
  int caught = 0;
  ASSERT_TRUE(loop.spawn(catch_child(&caught)));
  loop.close();
  loop.drain();
  EXPECT_EQ(caught, 1);
}

TEST(TaskCoroutine, UnawaitedTaskIsDestroyedCleanly) {
  // A lazy task that is never started must free its frame on destruction
  // (verified by ASan when that leg runs; here it must simply not crash).
  Task<int> t = forty_two();
  EXPECT_TRUE(t.valid());
}

// --- EventLoop --------------------------------------------------------------

Task<void> bump(std::atomic<int>* n) {
  n->fetch_add(1, std::memory_order_relaxed);
  co_return;
}

TEST(EventLoop, SpawnStormCompletesEveryTask) {
  constexpr int kTasks = 10'000;
  std::atomic<int> ran{0};
  EventLoop loop(4);
  // Spawn from several plain threads to exercise the cross-thread post path.
  std::vector<std::thread> producers;
  for (int p = 0; p < 4; ++p) {
    producers.emplace_back([&] {
      for (int i = 0; i < kTasks / 4; ++i) ASSERT_TRUE(loop.spawn(bump(&ran)));
    });
  }
  for (auto& t : producers) t.join();
  loop.close();
  loop.drain();
  EXPECT_EQ(ran.load(), kTasks);
  const auto stats = loop.stats();
  EXPECT_EQ(stats.spawned, static_cast<std::uint64_t>(kTasks));
  EXPECT_EQ(stats.completed, static_cast<std::uint64_t>(kTasks));
  EXPECT_EQ(stats.active, 0u);
}

TEST(EventLoop, ClosedLoopRefusesSpawns) {
  EventLoop loop(1);
  loop.close();
  std::atomic<int> ran{0};
  EXPECT_FALSE(loop.spawn(bump(&ran)));
  loop.drain();
  EXPECT_EQ(ran.load(), 0);
  EXPECT_EQ(loop.stats().spawned, 0u);
}

Task<void> sleeper(EventLoop* loop, double seconds, std::atomic<int>* done) {
  co_await loop->sleep_for(seconds);
  done->fetch_add(1, std::memory_order_relaxed);
}

TEST(EventLoop, SleepForWaitsApproximatelyTheRequestedTime) {
  EventLoop loop(2);
  std::atomic<int> done{0};
  const auto start = Clock::now();
  ASSERT_TRUE(loop.spawn(sleeper(&loop, 0.05, &done)));
  loop.close();
  loop.drain();
  const double elapsed = seconds_since(start);
  EXPECT_EQ(done.load(), 1);
  EXPECT_GE(elapsed, 0.05);       // never early
  EXPECT_LT(elapsed, 1.0);        // and not absurdly late (CI-safe bound)
  const auto stats = loop.stats();
  EXPECT_EQ(stats.timers_scheduled, 1u);
  EXPECT_EQ(stats.timers_fired, 1u);
}

TEST(EventLoop, NonPositiveSleepResumesInline) {
  EventLoop loop(1);
  std::atomic<int> done{0};
  ASSERT_TRUE(loop.spawn(sleeper(&loop, 0.0, &done)));
  ASSERT_TRUE(loop.spawn(sleeper(&loop, -1.0, &done)));
  loop.close();
  loop.drain();
  EXPECT_EQ(done.load(), 2);
  EXPECT_EQ(loop.stats().timers_scheduled, 0u);  // no wheel traffic at all
}

Task<void> record_order(EventLoop* loop, double seconds, int id, std::mutex* mu,
                        std::vector<int>* order) {
  co_await loop->sleep_for(seconds);
  std::lock_guard<std::mutex> lock(*mu);
  order->push_back(id);
}

TEST(EventLoop, TimersFireInDeadlineOrder) {
  // Deadlines land in different wheel levels (2 ms in L0, 20 ms and 60 ms in
  // L1) and are scheduled in reverse order; a single worker then observes
  // expiry order, proving placement + cascade ordering.
  EventLoop loop(1);
  std::mutex mu;
  std::vector<int> order;
  ASSERT_TRUE(loop.spawn(record_order(&loop, 0.060, 3, &mu, &order)));
  ASSERT_TRUE(loop.spawn(record_order(&loop, 0.020, 2, &mu, &order)));
  ASSERT_TRUE(loop.spawn(record_order(&loop, 0.002, 1, &mu, &order)));
  loop.close();
  loop.drain();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventLoop, ManyConcurrentSleepersAllFire) {
  // 2k sleepers parked at once on 2 threads: concurrency is bounded by the
  // wheel, not the worker count. Spread across wheel levels.
  constexpr int kSleepers = 2'000;
  EventLoop loop(2);
  std::atomic<int> done{0};
  for (int i = 0; i < kSleepers; ++i) {
    ASSERT_TRUE(loop.spawn(sleeper(&loop, 0.001 + 0.00005 * (i % 900), &done)));
  }
  loop.close();
  loop.drain();
  EXPECT_EQ(done.load(), kSleepers);
  EXPECT_EQ(loop.stats().timers_fired, static_cast<std::uint64_t>(kSleepers));
}

// --- EventLoop: spin-then-park scheduling ----------------------------------

Task<void> hold_until(std::atomic<bool>* entered, std::atomic<bool>* release) {
  entered->store(true);
  while (!release->load()) std::this_thread::yield();
  co_return;
}

TEST(EventLoop, PostsToABusyWorkerIssueNoWake) {
  // The only worker is inside a task, so nobody is parked or spinning: a
  // post has no one to wake and must skip the futex notify entirely.
  EventLoop loop(1);
  std::atomic<bool> entered{false};
  std::atomic<bool> release{false};
  ASSERT_TRUE(loop.spawn(hold_until(&entered, &release)));
  while (!entered.load()) std::this_thread::yield();
  const std::uint64_t wakes_before = loop.stats().wakes;
  std::atomic<int> ran{0};
  for (int i = 0; i < 100; ++i) ASSERT_TRUE(loop.spawn(bump(&ran)));
  EXPECT_EQ(loop.stats().wakes, wakes_before);
  release.store(true);
  loop.close();
  loop.drain();
  EXPECT_EQ(ran.load(), 100);
  const auto stats = loop.stats();
  EXPECT_EQ(stats.spawned, stats.completed);
}

TEST(EventLoop, NoLostWakeupAcrossTheSpinBound) {
  // Producers on plain threads post with gaps below, near and above the
  // spinner's bound, so posts land while a worker spins, while it hands the
  // role back, and while every worker is parked. A lost wakeup would leave
  // a task queued forever and hang drain().
  constexpr int kProducers = 4;
  constexpr int kTasks = 20'000;
  EventLoop loop(2);
  std::atomic<int> ran{0};
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      std::mt19937 rng(0x5EED0000u + static_cast<unsigned>(p));
      constexpr std::chrono::microseconds kGaps[] = {std::chrono::microseconds(0),
                                                     std::chrono::microseconds(25),
                                                     std::chrono::microseconds(100)};
      for (int i = 0; i < kTasks / kProducers; ++i) {
        const auto until = Clock::now() + kGaps[rng() % 3];
        while (Clock::now() < until) {
        }
        ASSERT_TRUE(loop.spawn(bump(&ran)));
      }
    });
  }
  for (auto& t : producers) t.join();
  loop.close();
  loop.drain();
  EXPECT_EQ(ran.load(), kTasks);
  const auto stats = loop.stats();
  EXPECT_EQ(stats.spawned, static_cast<std::uint64_t>(kTasks));
  EXPECT_EQ(stats.spawned, stats.completed);
}

Task<void> meet(std::latch* rendezvous) {
  rendezvous->arrive_and_wait();
  co_return;
}

TEST(EventLoop, TwoBlockingTasksRunConcurrently) {
  // Each task blocks its worker until the other one runs. Between rounds
  // one worker is typically spinning and the other parked, so both posts
  // skip the wake; if the worker that takes the first task left the second
  // queued without waking the parked one (no chain wake), this would hang.
  constexpr int kRounds = 1'000;
  EventLoop loop(2);
  for (int round = 0; round < kRounds; ++round) {
    std::latch rendezvous(2);
    ASSERT_TRUE(loop.spawn(meet(&rendezvous)));
    ASSERT_TRUE(loop.spawn(meet(&rendezvous)));
    loop.drain();
  }
  loop.close();
  loop.drain();
  EXPECT_EQ(loop.stats().completed, 2u * kRounds);
}

TEST(EventLoop, SingleCpuAffinityNeverSpins) {
  // A loop built by a thread pinned to one CPU has no CPU to spare for the
  // posting thread, so its workers must keep the park-only path.
  bool pinned = false;
  std::uint64_t spin_hits = 0;
  std::uint64_t completed = 0;
  std::thread one_cpu_thread([&] {
#if defined(__linux__)
    cpu_set_t current;
    CPU_ZERO(&current);
    if (sched_getaffinity(0, sizeof(current), &current) != 0) return;
    int cpu = 0;
    while (cpu < CPU_SETSIZE && !CPU_ISSET(cpu, &current)) ++cpu;
    if (cpu == CPU_SETSIZE) return;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    if (sched_setaffinity(0, sizeof(one), &one) != 0) return;
    pinned = true;
    EventLoop loop(1);
    std::atomic<int> ran{0};
    for (int i = 0; i < 1'000; ++i) {
      if (!loop.spawn(bump(&ran))) return;
      loop.drain();
      // Let the worker go idle before the next post, so a worker that did
      // spin would be spinning when the post arrives.
      std::this_thread::sleep_for(std::chrono::microseconds(20));
    }
    loop.close();
    loop.drain();
    spin_hits = loop.stats().spin_hits;
    completed = loop.stats().completed;
#endif
  });
  one_cpu_thread.join();
  if (!pinned) GTEST_SKIP() << "sched_setaffinity is unavailable";
  EXPECT_EQ(completed, 1'000u);
  EXPECT_EQ(spin_hits, 0u);
}

// --- EventLoop: the ready ring, spawn/close and self-destroying roots --------

Task<void> wait_at_gate(std::atomic<bool>* entered, std::latch* gate) {
  entered->store(true);
  gate->wait();
  co_return;
}

Task<void> count_run(std::atomic<int>* runs) {
  runs->fetch_add(1, std::memory_order_relaxed);
  co_return;
}

TEST(EventLoop, FullRingSpillsAndRunsEveryTaskOnce) {
  // The only worker is held inside a task, so every post below stays
  // queued: the ring fills and the last 1000 posts spill to the list. The
  // worker must drain both once released, each task exactly once.
  constexpr std::size_t kTasks = EventLoop::kReadyCapacity + 1'000;
  EventLoop loop(1);
  std::atomic<bool> entered{false};
  std::latch gate(1);
  ASSERT_TRUE(loop.spawn(wait_at_gate(&entered, &gate)));
  while (!entered.load()) std::this_thread::yield();
  std::vector<std::atomic<int>> runs(kTasks);
  for (auto& r : runs) ASSERT_TRUE(loop.spawn(count_run(&r)));
  gate.count_down();
  loop.close();
  loop.drain();
  for (std::size_t i = 0; i < kTasks; ++i) ASSERT_EQ(runs[i].load(), 1) << "task " << i;
  const auto stats = loop.stats();
  EXPECT_EQ(stats.spawned, kTasks + 1);
  EXPECT_EQ(stats.spawned, stats.completed);
  EXPECT_EQ(stats.active, 0u);
}

TEST(EventLoop, SpawnRacingCloseIsLinearizable) {
  // Four threads spawn while a fifth closes the loop. Every accepted spawn
  // runs exactly once, a refused one never runs, and no spawn that started
  // after close() returned is accepted.
  constexpr int kSpawners = 4;
  constexpr int kPerSpawner = 20'000;
  constexpr int kRounds = 5;
  for (int round = 0; round < kRounds; ++round) {
    EventLoop loop(2);
    std::vector<std::atomic<int>> runs(kSpawners * kPerSpawner);
    std::vector<std::vector<char>> accepted(kSpawners, std::vector<char>(kPerSpawner, 0));
    std::atomic<int> total_accepted{0};
    std::atomic<bool> close_returned{false};
    std::atomic<int> accepted_after_close{0};
    std::vector<std::thread> spawners;
    for (int p = 0; p < kSpawners; ++p) {
      spawners.emplace_back([&, p] {
        for (int i = 0; i < kPerSpawner; ++i) {
          const bool after = close_returned.load();
          if (!loop.spawn(count_run(&runs[p * kPerSpawner + i]))) break;
          accepted[p][i] = 1;
          total_accepted.fetch_add(1);
          if (after) accepted_after_close.fetch_add(1);
        }
      });
    }
    std::thread closer([&] {
      while (total_accepted.load() < 1'000 * (round + 1)) std::this_thread::yield();
      loop.close();
      close_returned.store(true);
    });
    for (auto& t : spawners) t.join();
    closer.join();
    loop.drain();
    EXPECT_EQ(accepted_after_close.load(), 0);
    int ran = 0;
    for (int p = 0; p < kSpawners; ++p) {
      for (int i = 0; i < kPerSpawner; ++i) {
        ASSERT_EQ(runs[p * kPerSpawner + i].load(), accepted[p][i]) << p << "/" << i;
        ran += accepted[p][i];
      }
    }
    const auto stats = loop.stats();
    EXPECT_EQ(stats.spawned, static_cast<std::uint64_t>(ran));
    EXPECT_EQ(stats.completed, stats.spawned);
    EXPECT_TRUE(loop.closed());
  }
}

TEST(EventLoop, RendezvousAfterRacingPostBurstsNeverStalls) {
  // Poster threads race bursts of spawns into a 2-worker loop, so workers
  // park while some post has claimed its ring slot but not yet published
  // it, and wakes land while a parker steps aside for that post. After
  // each burst two tasks meet at a latch. If a parked worker had dropped
  // out of the count that posts and chain wakes read, the loop would serve
  // on one worker from then on, and the pair would hang.
  constexpr int kPosters = 3;
  constexpr int kBurst = 64;
  constexpr int kRounds = 2'000;
  EventLoop loop(2);
  std::atomic<int> ran{0};
  std::barrier sync(kPosters + 1);
  std::vector<std::thread> posters;
  for (int p = 0; p < kPosters; ++p) {
    posters.emplace_back([&] {
      for (int round = 0; round < kRounds; ++round) {
        sync.arrive_and_wait();  // start the burst together
        for (int i = 0; i < kBurst; ++i) ASSERT_TRUE(loop.spawn(bump(&ran)));
        sync.arrive_and_wait();  // burst posted
      }
    });
  }
  for (int round = 0; round < kRounds; ++round) {
    sync.arrive_and_wait();
    sync.arrive_and_wait();
    std::latch rendezvous(2);
    ASSERT_TRUE(loop.spawn(meet(&rendezvous)));
    ASSERT_TRUE(loop.spawn(meet(&rendezvous)));
    loop.drain();
  }
  for (auto& t : posters) t.join();
  loop.close();
  loop.drain();
  EXPECT_EQ(ran.load(), kPosters * kBurst * kRounds);
  const auto stats = loop.stats();
  EXPECT_EQ(stats.spawned, stats.completed);
}

/// Counts its own destruction unless moved from: a coroutine parameter
/// lives in the frame until the frame is destroyed.
struct FrameProbe {
  std::atomic<int>* destroyed;
  explicit FrameProbe(std::atomic<int>* d) : destroyed(d) {}
  FrameProbe(FrameProbe&& other) noexcept : destroyed(std::exchange(other.destroyed, nullptr)) {}
  FrameProbe(const FrameProbe&) = delete;
  ~FrameProbe() {
    if (destroyed) destroyed->fetch_add(1);
  }
};

Task<void> probed([[maybe_unused]] FrameProbe probe, std::atomic<int>* ran) {
  ran->fetch_add(1);
  co_return;
}

TEST(TaskCoroutine, SpawnedRootFrameIsDestroyedBeforeDrainReturns) {
  constexpr int kTasks = 200;
  EventLoop loop(2);
  std::atomic<int> destroyed{0};
  std::atomic<int> ran{0};
  for (int i = 0; i < kTasks; ++i) {
    ASSERT_TRUE(loop.spawn(probed(FrameProbe(&destroyed), &ran)));
  }
  loop.drain();
  EXPECT_EQ(ran.load(), kTasks);
  EXPECT_EQ(destroyed.load(), kTasks);
  // A refused spawn destroys the frame unstarted, on the caller's thread.
  loop.close();
  EXPECT_FALSE(loop.spawn(probed(FrameProbe(&destroyed), &ran)));
  EXPECT_EQ(destroyed.load(), kTasks + 1);
  EXPECT_EQ(ran.load(), kTasks);
}

Task<void> escapes() {
  throw std::runtime_error("escaped a detached task");
  co_return;  // unreachable; marks the function as a coroutine
}

TEST(TaskCoroutine, DetachedRootThatThrowsTerminates) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        EventLoop loop(1);
        (void)loop.spawn(escapes());
        loop.drain();
      },
      "escaped a detached task");
}

// --- AsyncQueue -------------------------------------------------------------

Task<void> drain_queue(AsyncQueue<int>* q, std::atomic<std::uint64_t>* sum,
                       std::atomic<int>* wakes) {
  while (true) {
    std::optional<int> item = co_await q->pop();
    if (!item) {
      wakes->fetch_add(1, std::memory_order_relaxed);
      co_return;
    }
    sum->fetch_add(static_cast<std::uint64_t>(*item), std::memory_order_relaxed);
  }
}

TEST(AsyncQueue, DeliversEveryItemAcrossThreads) {
  constexpr int kItems = 20'000;
  EventLoop loop(3);
  AsyncQueue<int> queue(loop, 64);
  std::atomic<std::uint64_t> sum{0};
  std::atomic<int> wakes{0};
  for (int c = 0; c < 3; ++c) ASSERT_TRUE(loop.spawn(drain_queue(&queue, &sum, &wakes)));
  std::vector<std::thread> producers;
  for (int p = 0; p < 4; ++p) {
    producers.emplace_back([&, p] {
      for (int i = p; i < kItems; i += 4) ASSERT_TRUE(queue.push(i + 1));
    });
  }
  for (auto& t : producers) t.join();
  queue.close();
  loop.close();
  loop.drain();
  const std::uint64_t expect = std::uint64_t{kItems} * (kItems + 1) / 2;
  EXPECT_EQ(sum.load(), expect);
  EXPECT_EQ(wakes.load(), 3);  // every consumer saw exactly one nullopt
}

TEST(AsyncQueue, CloseDeliversBacklogBeforeNullopt) {
  EventLoop loop(1);
  AsyncQueue<int> queue(loop, 16);
  // Fill, then close, then attach the consumer: items must drain first.
  for (int i = 0; i < 8; ++i) ASSERT_EQ(queue.try_push(i + 1), AsyncQueue<int>::PushResult::kOk);
  queue.close();
  EXPECT_EQ(queue.try_push(99), AsyncQueue<int>::PushResult::kClosed);
  std::atomic<std::uint64_t> sum{0};
  std::atomic<int> wakes{0};
  ASSERT_TRUE(loop.spawn(drain_queue(&queue, &sum, &wakes)));
  loop.close();
  loop.drain();
  EXPECT_EQ(sum.load(), 36u);  // 1..8 all delivered despite the close
  EXPECT_EQ(wakes.load(), 1);
}

TEST(AsyncQueue, TryPushReportsFullOnlyWithNoParkedConsumer) {
  EventLoop loop(1);
  AsyncQueue<int> queue(loop, 2);
  EXPECT_EQ(queue.try_push(1), AsyncQueue<int>::PushResult::kOk);
  EXPECT_EQ(queue.try_push(2), AsyncQueue<int>::PushResult::kOk);
  EXPECT_EQ(queue.try_push(3), AsyncQueue<int>::PushResult::kFull);
  EXPECT_EQ(queue.size(), 2u);
  queue.close();
  loop.close();
  loop.drain();
}

// The satellite fix this PR makes to gateway shutdown: consumers parked in
// pop() are woken by close() itself (a posted handle), not by a polling
// re-check. An empty-queue close must therefore complete in scheduling
// time — far under the 10 ms slice the old try_pop_for loop parked for.
TEST(AsyncQueue, CloseWakesParkedConsumersWithoutPolling) {
  EventLoop loop(2);
  AsyncQueue<int> queue(loop, 8);
  std::atomic<std::uint64_t> sum{0};
  std::atomic<int> wakes{0};
  for (int c = 0; c < 2; ++c) ASSERT_TRUE(loop.spawn(drain_queue(&queue, &sum, &wakes)));
  // Give the consumers time to park.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  const auto start = Clock::now();
  queue.close();
  loop.close();
  loop.drain();
  const double shutdown_s = seconds_since(start);
  EXPECT_EQ(wakes.load(), 2);
  EXPECT_LT(shutdown_s, 0.010);  // notify-driven: no 10 ms poll slice to wait out
}

// --- BufferPool -------------------------------------------------------------

TEST(BufferPool, SteadyStateLeasesStopAllocating) {
  BufferPool pool(256);
  for (int round = 0; round < 100; ++round) {
    PooledBuffer buf = pool.lease();
    buf.bytes().resize(128);
    buf.bytes()[0] = static_cast<std::uint8_t>(round);
  }
  const auto stats = pool.stats();
  EXPECT_EQ(stats.leases, 100u);
  EXPECT_EQ(stats.returns, 100u);
  EXPECT_EQ(stats.allocations, 1u);  // one cold lease, then pure recycling
  EXPECT_EQ(stats.in_use, 0u);
  EXPECT_EQ(stats.peak_in_use, 1u);
}

TEST(BufferPool, LeasedBuffersAreEmptyButKeepCapacity) {
  BufferPool pool(16);
  std::uint8_t* grown_data = nullptr;
  {
    PooledBuffer buf = pool.lease();
    buf.bytes().resize(4096);
    grown_data = buf.bytes().data();
  }
  PooledBuffer again = pool.lease();
  EXPECT_TRUE(again.bytes().empty());
  EXPECT_GE(again.bytes().capacity(), 4096u);
  EXPECT_EQ(again.bytes().data(), grown_data);  // literally the same storage
}

TEST(BufferPool, SwappedInVectorDonatesItsCapacity) {
  // The gateway round-trips frames by moving the leased vector into the
  // message and back; whatever vector holds the lease at return time is
  // what the pool keeps.
  BufferPool pool(16);
  {
    PooledBuffer buf = pool.lease();
    std::vector<std::uint8_t> wire(1024, 0xAB);
    buf.bytes() = std::move(wire);
  }
  PooledBuffer again = pool.lease();
  EXPECT_GE(again.bytes().capacity(), 1024u);
  EXPECT_EQ(pool.stats().allocations, 1u);
}

TEST(BufferPool, ConcurrentLeaseReturnIsExact) {
  constexpr int kThreads = 8;
  constexpr int kRounds = 2'000;
  BufferPool pool(64);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kRounds; ++i) {
        PooledBuffer buf = pool.lease();
        buf.bytes().push_back(0x5A);
      }
    });
  }
  for (auto& t : threads) t.join();
  const auto stats = pool.stats();
  EXPECT_EQ(stats.leases, static_cast<std::uint64_t>(kThreads) * kRounds);
  EXPECT_EQ(stats.returns, stats.leases);
  EXPECT_EQ(stats.in_use, 0u);
  EXPECT_LE(stats.allocations, static_cast<std::uint64_t>(kThreads));
  EXPECT_LE(stats.peak_in_use, static_cast<std::uint64_t>(kThreads));
}

}  // namespace
