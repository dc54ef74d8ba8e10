#include "runtime/event_loop.hpp"

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <exception>

#if defined(__linux__)
#include <sched.h>
#endif

namespace wavekey::runtime {

// ---------------------------------------------------------------------------
// Hierarchical timer wheel.
//
// 4 levels x 64 slots at 100 us/tick. An entry is filed into the level whose
// span covers its remaining delta (L0: <6.4 ms, L1: <409.6 ms, L2: <26.2 s,
// L3: everything else) at the slot addressed by the matching 6-bit field of
// its absolute deadline tick. When a level-k index wraps, the slot at the new
// level-(k+1) index is cascaded: its entries are re-placed by their fresh
// delta, drifting down one level per wrap until they expire out of L0.
// Insert and expire are O(1) amortized; a cascade touches only one slot.
// ---------------------------------------------------------------------------

struct EventLoop::TimerWheel {
  static constexpr int kLevels = 4;
  static constexpr int kLevelBits = 6;
  static constexpr std::uint64_t kSlots = 1ull << kLevelBits;  // 64
  static constexpr std::uint64_t kTickNs = 100'000;            // 100 us
  using Clock = std::chrono::steady_clock;

  struct Entry {
    std::coroutine_handle<> handle;
    std::uint64_t deadline_tick;
  };

  Clock::time_point epoch = Clock::now();
  std::uint64_t current_tick = 0;  ///< last tick fully processed
  std::uint64_t pending = 0;       ///< entries currently in the wheel
  std::array<std::array<std::vector<Entry>, kSlots>, kLevels> slots;

  std::uint64_t tick_of(Clock::time_point t) const {
    const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(t - epoch).count();
    return ns <= 0 ? 0 : static_cast<std::uint64_t>(ns) / kTickNs;
  }

  Clock::time_point time_of(std::uint64_t tick) const {
    return epoch + std::chrono::nanoseconds(tick * kTickNs);
  }

  /// Files an entry by its delta from current_tick; already-due entries go
  /// straight to `expired` (pending is decremented for those — callers
  /// increment pending only for entries that actually land in a slot).
  void place(Entry entry, std::vector<std::coroutine_handle<>>& expired) {
    if (entry.deadline_tick <= current_tick) {
      expired.push_back(entry.handle);
      return;
    }
    const std::uint64_t delta = entry.deadline_tick - current_tick;
    int level = kLevels - 1;
    for (int l = 0; l < kLevels; ++l) {
      if (delta < (1ull << (kLevelBits * (l + 1)))) {
        level = l;
        break;
      }
    }
    const std::uint64_t idx = (entry.deadline_tick >> (kLevelBits * level)) & (kSlots - 1);
    slots[static_cast<std::size_t>(level)][idx].push_back(entry);
  }

  /// Advances tick-by-tick to `target`, cascading wrapped levels and
  /// collecting expired handles. Cheap even after long idle stretches: an
  /// empty tick is one index increment and an empty-vector check.
  void advance_to(std::uint64_t target, std::vector<std::coroutine_handle<>>& expired) {
    while (current_tick < target) {
      ++current_tick;
      const std::uint64_t t = current_tick;
      // Cascade every level whose index wrapped at this tick, top-down so
      // re-placed entries land in already-processed (or lower) positions.
      int wrapped = 0;
      for (int l = 1; l < kLevels; ++l) {
        if ((t & ((1ull << (kLevelBits * l)) - 1)) != 0) break;
        wrapped = l;
      }
      for (int l = wrapped; l >= 1; --l) {
        const std::uint64_t idx = (t >> (kLevelBits * l)) & (kSlots - 1);
        auto moved = std::move(slots[static_cast<std::size_t>(l)][idx]);
        slots[static_cast<std::size_t>(l)][idx].clear();
        for (auto& e : moved) place(e, expired);
      }
      auto& due = slots[0][t & (kSlots - 1)];
      for (auto& e : due) expired.push_back(e.handle);  // L0 slots expire whole
      due.clear();
    }
    pending -= expired.size();
  }

  /// Pre: pending > 0. Next tick worth waking for: the first non-empty L0
  /// slot before the next cascade boundary, else the boundary itself (so a
  /// timer parked in a higher level is never slept past by more than one
  /// L0 wrap, 6.4 ms).
  std::uint64_t next_wake_tick() const {
    const std::uint64_t boundary = (current_tick | (kSlots - 1)) + 1;
    for (std::uint64_t k = current_tick + 1; k < boundary; ++k) {
      if (!slots[0][k & (kSlots - 1)].empty()) return k;
    }
    return boundary;
  }
};

// ---------------------------------------------------------------------------
// Detached runner: the coroutine EventLoop::spawn wraps around a Task<void>.
// Its frame owns the task (and therefore the task's frame); the final awaiter
// destroys the runner frame first and only then reports completion, so
// drain() returning implies every frame is already freed.
// ---------------------------------------------------------------------------

namespace {

struct Detached {
  struct promise_type {
    EventLoop* loop = nullptr;

    Detached get_return_object() {
      return Detached{std::coroutine_handle<promise_type>::from_promise(*this)};
    }
    std::suspend_always initial_suspend() noexcept { return {}; }
    struct FinalAwaiter {
      bool await_ready() const noexcept { return false; }
      void await_suspend(std::coroutine_handle<promise_type> h) noexcept {
        EventLoop* loop = h.promise().loop;
        h.destroy();  // frees runner frame + owned task frame; h is dead now
        detail_finished(loop);
      }
      void await_resume() const noexcept {}
    };
    FinalAwaiter final_suspend() noexcept { return {}; }
    void return_void() {}
    // Detached: no awaiter to rethrow into. A task that lets an exception
    // escape is a bug in the task, and hiding it would corrupt the ledger
    // invariants the server layers rely on.
    void unhandled_exception() { std::terminate(); }

    static void detail_finished(EventLoop* loop);
  };

  std::coroutine_handle<promise_type> handle;
};

Detached run_detached(Task<void> task) { co_await std::move(task); }

}  // namespace

// Grants the runner access to the private completion hook.
struct detail_spawn_access {
  static void finished(EventLoop* loop) { loop->task_finished(); }
};

namespace {
void Detached::promise_type::detail_finished(EventLoop* loop) {
  detail_spawn_access::finished(loop);
}
}  // namespace

// ---------------------------------------------------------------------------
// Worker scheduling: spin-then-park.
//
// Parking on ready_cv_ costs the posting thread a futex syscall and the
// parked worker a wake-up, several microseconds per handoff when requests
// arrive faster than that but slower than a worker drains them. So:
//  1. One spinner at most. A worker that finds ready_ empty while nobody
//     spins takes the spinner role (under ready_mutex_), polls
//     spin_.ready_size for at most kSpinNs of wall time, gives the role up,
//     and only then takes ready_mutex_ and parks as before.
//  2. post() pushes under ready_mutex_ and calls notify_one only if a worker
//     is parked (sleepers_ > 0) and none is spinning.
//  3. Chain wake: a worker that dequeues a handle and leaves more queued
//     wakes one parked worker if nobody is spinning, so parallel work does
//     not queue behind one busy worker.
//  4. Spinning is enabled only if the workers leave a CPU of the
//     constructing thread's affinity mask free for the threads that post;
//     a 1-CPU or oversubscribed loop keeps the plain park-only path, where
//     every post to a parked worker wakes one and there is no chain wake.
//
// No lost wakeup: a post that skipped the notify either saw a spinner —
// which clears spin_.spinning before it locks ready_mutex_, so it finds the
// handle when it re-checks ready_ under the lock — or saw sleepers_ == 0,
// and a worker that parks later checks ready_ under the same lock first.
// ---------------------------------------------------------------------------

namespace {

constexpr auto kSpinNs = std::chrono::nanoseconds(50'000);

inline void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#else
  std::this_thread::yield();
#endif
}

}  // namespace

std::size_t usable_cpus() {
#if defined(__linux__)
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    return static_cast<std::size_t>(CPU_COUNT(&set));
  }
#endif
  return std::max(std::thread::hardware_concurrency(), 1u);
}

// ---------------------------------------------------------------------------
// EventLoop
// ---------------------------------------------------------------------------

EventLoop::EventLoop(std::size_t threads)
    : spin_enabled_((threads ? threads : 1) < usable_cpus()), wheel_(new TimerWheel) {
  const std::size_t n = threads ? threads : 1;
  workers_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    workers_.emplace_back([this] { worker_main(); });
  }
  timer_thread_ = std::thread([this] { timer_main(); });
}

EventLoop::~EventLoop() {
  close();
  drain();
  {
    std::lock_guard<std::mutex> lock(timer_mutex_);
    timer_stop_ = true;
  }
  timer_cv_.notify_all();
  timer_thread_.join();
  {
    std::lock_guard<std::mutex> lock(ready_mutex_);
    stopping_ = true;
  }
  ready_cv_.notify_all();
  for (auto& w : workers_) w.join();
  delete wheel_;
}

bool EventLoop::spawn(Task<void> task) {
  if (!task.valid()) return false;
  {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    if (closed_) return false;  // task destroyed unstarted on return
    ++spawned_;
  }
  Detached runner = run_detached(std::move(task));
  runner.handle.promise().loop = this;
  post(runner.handle);
  return true;
}

void EventLoop::post(std::coroutine_handle<> h) {
  posts_.fetch_add(1, std::memory_order_relaxed);
  bool wake = false;
  {
    std::lock_guard<std::mutex> lock(ready_mutex_);
    ready_.push_back(h);
    if (spin_enabled_) spin_.ready_size.store(ready_.size(), std::memory_order_release);
    wake = sleepers_ > 0 && !spin_.spinning.load();
  }
  if (wake) {
    wakes_.fetch_add(1, std::memory_order_relaxed);
    ready_cv_.notify_one();
  }
}

void EventLoop::close() {
  std::lock_guard<std::mutex> lock(stats_mutex_);
  closed_ = true;
}

bool EventLoop::closed() const {
  std::lock_guard<std::mutex> lock(stats_mutex_);
  return closed_;
}

void EventLoop::drain() {
  std::unique_lock<std::mutex> lock(stats_mutex_);
  drained_cv_.wait(lock, [&] { return spawned_ == completed_; });
}

EventLoopStats EventLoop::stats() const {
  EventLoopStats out;
  {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    out.spawned = spawned_;
    out.completed = completed_;
    out.active = spawned_ - completed_;
  }
  out.posts = posts_.load(std::memory_order_relaxed);
  out.timers_scheduled = timers_scheduled_.load(std::memory_order_relaxed);
  out.timers_fired = timers_fired_.load(std::memory_order_relaxed);
  out.wakes = wakes_.load(std::memory_order_relaxed);
  out.spin_hits = spin_hits_.load(std::memory_order_relaxed);
  return out;
}

void EventLoop::task_finished() {
  bool drained = false;
  {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    ++completed_;
    drained = (completed_ == spawned_);
  }
  if (drained) drained_cv_.notify_all();
}

void EventLoop::schedule_timer(std::coroutine_handle<> h, double seconds) {
  timers_scheduled_.fetch_add(1, std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(timer_mutex_);
    const auto now = TimerWheel::Clock::now();
    const auto delay_ticks = static_cast<std::uint64_t>(
        std::ceil(seconds * 1e9 / static_cast<double>(TimerWheel::kTickNs)));
    const std::uint64_t deadline =
        wheel_->tick_of(now) + (delay_ticks ? delay_ticks : 1);
    // place() cannot expire this entry inline: deadline > current_tick by
    // construction (tick_of(now) >= current_tick and delay >= 1 tick).
    std::vector<std::coroutine_handle<>> none;
    wheel_->place(TimerWheel::Entry{h, deadline}, none);
    ++wheel_->pending;
  }
  // Wake the timer thread: the new deadline may be sooner than its current
  // sleep target.
  timer_cv_.notify_one();
}

void EventLoop::spin_for_work() const {
  const auto deadline = std::chrono::steady_clock::now() + kSpinNs;
  while (spin_.ready_size.load(std::memory_order_acquire) == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    cpu_relax();
  }
}

void EventLoop::worker_main() {
  for (;;) {
    std::coroutine_handle<> h;
    bool wake = false;
    {
      std::unique_lock<std::mutex> lock(ready_mutex_);
      if (spin_enabled_ && ready_.empty() && !stopping_ && !spin_.spinning.exchange(true)) {
        lock.unlock();
        spin_for_work();
        spin_.spinning.store(false);  // give the role up before re-taking the lock
        lock.lock();
        if (!ready_.empty()) spin_hits_.fetch_add(1, std::memory_order_relaxed);
      }
      if (ready_.empty() && !stopping_) {
        ++sleepers_;
        ready_cv_.wait(lock, [&] { return stopping_ || !ready_.empty(); });
        --sleepers_;
      }
      if (ready_.empty()) return;  // stopping and fully drained
      h = ready_.front();
      ready_.pop_front();
      if (spin_enabled_) spin_.ready_size.store(ready_.size(), std::memory_order_release);
      wake = spin_enabled_ && !ready_.empty() && sleepers_ > 0 && !spin_.spinning.load();
    }
    if (wake) {
      wakes_.fetch_add(1, std::memory_order_relaxed);
      ready_cv_.notify_one();
    }
    h.resume();
  }
}

void EventLoop::timer_main() {
  std::vector<std::coroutine_handle<>> expired;
  std::unique_lock<std::mutex> lock(timer_mutex_);
  while (!timer_stop_) {
    expired.clear();
    wheel_->advance_to(wheel_->tick_of(TimerWheel::Clock::now()), expired);
    if (!expired.empty()) {
      lock.unlock();
      timers_fired_.fetch_add(expired.size(), std::memory_order_relaxed);
      for (auto h : expired) post(h);
      lock.lock();
      continue;  // re-check: more may have become due while posting
    }
    if (wheel_->pending == 0) {
      timer_cv_.wait(lock);  // indefinite — no polling when idle
    } else {
      timer_cv_.wait_until(lock, wheel_->time_of(wheel_->next_wake_tick()));
    }
  }
}

}  // namespace wavekey::runtime
