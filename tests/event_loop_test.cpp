// Tests for the coroutine runtime: Task<T> semantics, the EventLoop
// executor, the hierarchical TimerWheel behind sleep_for, and the blocking
// AdmissionWindow of the spawn-per-request front ends. These suites also run
// under the TSan CI leg — the spawn storms and cross-thread handoffs here
// are the data-race coverage for the async serving core.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <barrier>
#include <chrono>
#include <cstdint>
#include <latch>
#include <map>
#include <mutex>
#include <random>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#if defined(__linux__)
#include <sched.h>
#endif

#include "runtime/event_loop.hpp"
#include "runtime/task.hpp"
#include "runtime/timer_wheel.hpp"

namespace {

using wavekey::runtime::AdmissionWindow;
using wavekey::runtime::EventLoop;
using wavekey::runtime::Task;
using wavekey::runtime::TimerWheel;
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

Task<void> repeated_sleeps(EventLoop* loop, double seconds, int rounds, double* min_elapsed) {
  for (int i = 0; i < rounds; ++i) {
    const auto start = Clock::now();
    co_await loop->sleep_for(seconds);
    *min_elapsed = std::min(*min_elapsed, seconds_since(start));
  }
}

TEST(EventLoop, SleepForNeverResumesEarly) {
  // Sub-millisecond sleeps armed at every phase of the 100 us tick: a
  // deadline rounded down to the tick the sleep starts in would fire up to
  // one tick early.
  EventLoop loop(1);
  double min_elapsed = 1.0;
  ASSERT_TRUE(loop.spawn(repeated_sleeps(&loop, 150e-6, 200, &min_elapsed)));
  loop.close();
  loop.drain();
  EXPECT_GE(min_elapsed, 150e-6);
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

// --- TimerWheel -------------------------------------------------------------
// The wheel behind sleep_for and the vault's TTL expiry, driven on synthetic
// ticks and checked against a brute-force model.

using Wheel = TimerWheel<std::uint64_t>;
constexpr std::uint64_t kSpan = Wheel::kSpan;  // 64^4 ticks

/// Advances the wheel and the model (item -> deadline) to `target` and
/// checks the wheel fired exactly the model's entries with deadline <=
/// target, each once: those armed already due first, then in deadline order.
void advance_both(Wheel& wheel, std::map<std::uint64_t, std::uint64_t>& model,
                  std::uint64_t target) {
  const std::uint64_t before = wheel.now();
  std::vector<std::uint64_t> fired;
  wheel.advance_to(target, fired);

  std::vector<std::uint64_t> want;
  for (const auto& [item, deadline] : model) {
    if (deadline <= target) want.push_back(item);
  }
  std::vector<std::uint64_t> got = fired;
  std::sort(got.begin(), got.end());
  ASSERT_EQ(got, want) << "advance " << before << " -> " << target;

  std::vector<std::uint64_t> order;  // entries armed already due sort as 0
  for (const std::uint64_t item : fired) {
    const std::uint64_t deadline = model.at(item);
    order.push_back(deadline <= before ? 0 : deadline);
  }
  ASSERT_TRUE(std::is_sorted(order.begin(), order.end())) << "advance " << before << " -> "
                                                          << target;
  for (const std::uint64_t item : fired) model.erase(item);
  ASSERT_EQ(wheel.now(), std::max(before, target));
  ASSERT_EQ(wheel.size(), model.size());
}

TEST(TimerWheel, MatchesABruteForceModelOverManySeeds) {
  constexpr std::uint64_t kEdges[] = {63, 64, 4095, 4096, 262143, 262144};
  for (std::uint64_t seed = 1; seed <= 64; ++seed) {
    SCOPED_TRACE(testing::Message() << "seed " << seed);
    std::mt19937_64 rng(seed);
    Wheel wheel;
    std::map<std::uint64_t, std::uint64_t> model;
    std::uint64_t next_item = 0;
    const auto arm = [&](std::uint64_t deadline) {
      wheel.arm(next_item, deadline);
      model.emplace(next_item++, deadline);
    };
    for (int round = 0; round < 120; ++round) {
      const std::uint64_t now = wheel.now();
      for (std::uint64_t n = rng() % 5; n > 0; --n) {
        switch (rng() % 6) {
          case 0:  // at or before the current tick
            arm(now - std::min<std::uint64_t>(now, rng() % 4));
            break;
          case 1:  // on either side of a level boundary
            arm(now + kEdges[rng() % 6]);
            break;
          case 2:  // beyond the whole span
            arm(now + kSpan + rng() % (2 * kSpan));
            break;
          case 3:
            arm(now + 1 + rng() % 64);
            break;
          case 4:
            arm(now + 1 + rng() % 5000);
            break;
          default:
            arm(now + 1 + rng() % 300000);
            break;
        }
      }
      std::uint64_t target = now;
      switch (rng() % 8) {
        case 0:  // no move: only entries armed already due fire
          break;
        case 1:
        case 2:  // single step
          target = now + 1;
          break;
        case 3:  // to or just past the next L1 or L2 wrap
          target = (now | ((std::uint64_t{1} << (6 * (1 + rng() % 2))) - 1)) + 1 + rng() % 2;
          break;
        case 4:  // past the next L3 wrap
          if (rng() % 4 == 0) target = (now | ((std::uint64_t{1} << 18) - 1)) + 1 + rng() % 2;
          break;
        case 5:  // a jump of at least the span, with an entry still pending past it
          target = now + kSpan + rng() % kSpan;
          arm(target + 1 + rng() % kSpan);
          break;
        default:
          target = now + rng() % 5000;
          break;
      }
      advance_both(wheel, model, target);
      if (testing::Test::HasFatalFailure()) return;
    }
  }
}

TEST(TimerWheel, EmptyWheelJumpsTwoToTheSixtyTwoTicksAtOnce) {
  // A wheel that walked every tick would never return from this advance.
  Wheel wheel;
  std::vector<std::uint64_t> fired;
  wheel.advance_to(wheel.now() + (std::uint64_t{1} << 62), fired);
  EXPECT_TRUE(fired.empty());
  EXPECT_EQ(wheel.now(), std::uint64_t{1} << 62);
  // Still exact up there.
  wheel.arm(7, wheel.now() + 100);
  wheel.advance_to(wheel.now() + 99, fired);
  EXPECT_TRUE(fired.empty());
  wheel.advance_to(wheel.now() + 1, fired);
  EXPECT_EQ(fired, (std::vector<std::uint64_t>{7}));
  EXPECT_TRUE(wheel.empty());
}

TEST(TimerWheel, LongJumpReplacesEntriesNotYetDue) {
  Wheel wheel;
  wheel.arm(1, 5);
  wheel.arm(2, 2 * kSpan + 1000);
  std::vector<std::uint64_t> fired;
  wheel.advance_to(2 * kSpan, fired);
  EXPECT_EQ(fired, (std::vector<std::uint64_t>{1}));  // the later one is not fired early
  EXPECT_EQ(wheel.size(), 1u);
  wheel.advance_to(2 * kSpan + 999, fired);
  EXPECT_EQ(fired.size(), 1u);
  wheel.advance_to(2 * kSpan + 1000, fired);
  EXPECT_EQ(fired, (std::vector<std::uint64_t>{1, 2}));
}

TEST(TimerWheel, FiresInDeadlineOrder) {
  // EventLoop.TimersFireInDeadlineOrder on synthetic 100 us ticks: 2 ms in
  // L0, 20 ms and 60 ms in L1, armed in reverse and advanced one tick at a
  // time.
  Wheel stepped;
  stepped.arm(3, 600);
  stepped.arm(2, 200);
  stepped.arm(1, 20);
  std::vector<std::uint64_t> fired;
  for (std::uint64_t t = 1; t <= 600; ++t) stepped.advance_to(t, fired);
  EXPECT_EQ(fired, (std::vector<std::uint64_t>{1, 2, 3}));

  // One advance across L0..L3, and one jump past the span.
  const std::uint64_t base[] = {0, 5 * kSpan};
  for (const std::uint64_t b : base) {
    Wheel wheel;
    wheel.arm(4, b + 300000);  // L3
    wheel.arm(3, b + 70000);   // L2
    wheel.arm(2, b + 600);     // L1
    wheel.arm(1, b + 20);      // L0
    fired.clear();
    wheel.advance_to(b + 300000, fired);
    EXPECT_EQ(fired, (std::vector<std::uint64_t>{1, 2, 3, 4})) << "base " << b;
  }
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
  // posting thread, so its workers must keep the park-only path. The pinned
  // thread must also see the one CPU it was given: usable_cpus() reads the
  // affinity mask, which is what a bench reports as hardware_threads.
  bool pinned = false;
  std::size_t usable = 0;
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
    usable = wavekey::runtime::usable_cpus();
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
  EXPECT_EQ(usable, 1u);
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

// --- AdmissionWindow --------------------------------------------------------

TEST(AdmissionWindow, BlocksWhileFullAndCloseRefusesWaiters) {
  AdmissionWindow window(2);
  ASSERT_TRUE(window.acquire());
  ASSERT_TRUE(window.acquire());

  // A third acquire blocks until a slot is released.
  std::atomic<bool> admitted{false};
  std::thread waiter([&] { admitted.store(window.acquire()); });
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  EXPECT_FALSE(admitted.load());
  window.release();
  waiter.join();
  EXPECT_TRUE(admitted.load());

  // The window is full again: close() wakes a blocked acquire with false,
  // and every later acquire is refused even once slots are free.
  std::atomic<int> refused{0};
  std::thread blocked([&] { refused.fetch_add(window.acquire() ? 0 : 1); });
  window.close();
  blocked.join();
  EXPECT_EQ(refused.load(), 1);
  window.release();
  EXPECT_FALSE(window.acquire());
}

TEST(AdmissionWindow, ZeroCapacityAdmitsOne) {
  AdmissionWindow window(0);
  ASSERT_TRUE(window.acquire());
  std::atomic<bool> admitted{false};
  std::thread waiter([&] { admitted.store(window.acquire()); });
  window.release();
  waiter.join();
  EXPECT_TRUE(admitted.load());
}

}  // namespace
