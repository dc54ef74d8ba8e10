#include "runtime/event_loop.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>

#if defined(__linux__)
#include <sched.h>
#endif

namespace wavekey::runtime {

// ---------------------------------------------------------------------------
// Ready ring: Vyukov's bounded MPMC queue.
//
// Each cell carries a sequence number. A poster claims the tail position p
// with a CAS once the cell's sequence reads p (the slot is free in this
// lap), writes the handle and publishes sequence p + 1; a taker claims the
// head position p once the cell reads p + 1, reads the handle and frees the
// slot for the next lap with p + capacity. A post therefore costs one CAS
// on the tail line and one store into the cell, and a worker polling for
// work reads only the head cell. The two positions sit on lines of their
// own; 16-byte cells put four on a line, 256 KiB for the ring.
// ---------------------------------------------------------------------------

struct EventLoop::ReadyRing {
  static constexpr std::size_t kMask = kReadyCapacity - 1;
  static_assert((kReadyCapacity & kMask) == 0, "capacity must be a power of two");

  struct Cell {
    std::atomic<std::size_t> seq;
    std::coroutine_handle<> handle;
  };

  alignas(64) std::atomic<std::size_t> enqueue_pos{0};
  alignas(64) std::atomic<std::size_t> dequeue_pos{0};
  alignas(64) const std::unique_ptr<Cell[]> cells{new Cell[kReadyCapacity]};

  ReadyRing() {
    for (std::size_t i = 0; i < kReadyCapacity; ++i) {
      cells[i].seq.store(i, std::memory_order_relaxed);
    }
  }

  static std::ptrdiff_t lag(std::size_t seq, std::size_t pos) {
    return static_cast<std::ptrdiff_t>(seq - pos);
  }

  /// False if every slot still holds a handle (the caller spills). The claim
  /// and the publish are seq_cst: the no-lost-wakeup argument orders them
  /// before the poster's reads of the parking state.
  bool try_push(std::coroutine_handle<> h) {
    std::size_t pos = enqueue_pos.load(std::memory_order_relaxed);
    for (;;) {
      Cell& cell = cells[pos & kMask];
      const std::ptrdiff_t d = lag(cell.seq.load(std::memory_order_acquire), pos);
      if (d == 0) {
        if (enqueue_pos.compare_exchange_weak(pos, pos + 1, std::memory_order_seq_cst,
                                              std::memory_order_relaxed)) {
          cell.handle = h;
          cell.seq.store(pos + 1, std::memory_order_seq_cst);
          return true;
        }
      } else if (d < 0) {
        return false;
      } else {
        pos = enqueue_pos.load(std::memory_order_relaxed);
      }
    }
  }

  /// The head handle if it is published; null if the ring is empty or its
  /// head slot is claimed but not yet published.
  std::coroutine_handle<> try_pop() {
    std::size_t pos = dequeue_pos.load(std::memory_order_relaxed);
    for (;;) {
      Cell& cell = cells[pos & kMask];
      const std::ptrdiff_t d = lag(cell.seq.load(std::memory_order_acquire), pos + 1);
      if (d == 0) {
        if (dequeue_pos.compare_exchange_weak(pos, pos + 1, std::memory_order_relaxed)) {
          const std::coroutine_handle<> h = cell.handle;
          cell.seq.store(pos + kReadyCapacity, std::memory_order_release);
          return h;
        }
      } else if (d < 0) {
        return {};
      } else {
        pos = dequeue_pos.load(std::memory_order_relaxed);
      }
    }
  }

  /// The head slot holds a published handle.
  bool head_published() const {
    const std::size_t pos = dequeue_pos.load(std::memory_order_seq_cst);
    return cells[pos & kMask].seq.load(std::memory_order_seq_cst) == pos + 1;
  }

  /// No slot is claimed and untaken. Counts claims still being published,
  /// so a parking worker never sleeps on a post that is mid-publish.
  bool empty() const {
    const std::size_t head = dequeue_pos.load(std::memory_order_seq_cst);
    return enqueue_pos.load(std::memory_order_seq_cst) == head;
  }
};

// ---------------------------------------------------------------------------
// Worker scheduling: spin-then-park.
//
// Parking on ready_cv_ costs the posting thread a futex syscall and the
// parked worker a wake-up, several microseconds per handoff when requests
// arrive faster than that but slower than a worker drains them. So:
//  1. One spinner at most. A worker that finds no work while nobody spins
//     takes the spinner role, polls the ring's head cell (and the spill
//     count) for at most kSpinNs of wall time, gives the role up, and only
//     then takes park_mutex_ and parks.
//  2. post() publishes one ring slot and calls notify_one only if a worker
//     is parked and none is spinning. sleepers leaves out a parked worker
//     that a wake was already sent to, so a burst of posts wakes it once. A
//     full ring, or a spill list that is not yet drained, sends the post to
//     the spill list under park_mutex_; workers take from the ring first, then
//     from the spill list, and check both before they park. post() never
//     blocks on a full queue.
//  3. Chain wake: a worker that takes a handle and leaves more queued wakes
//     one parked worker if nobody is spinning, so parallel work does not
//     queue behind one busy worker. That includes the spinner's own hit.
//  4. Spinning is enabled only if the workers leave a CPU of the
//     constructing thread's affinity mask free for the threads that post;
//     a 1-CPU or oversubscribed loop keeps the plain park-only path, where
//     every post to a parked worker wakes one and there is no chain wake.
//
// No lost wakeup. A poster claims and publishes its slot, then reads
// sleepers and spinning; a parker increments sleepers, then re-checks the
// ring by its claims; the spinner clears spinning, then re-checks. All of
// these are seq_cst, so in each pair at least one side sees the other's
// write: a post that skipped the notify because it saw no sleeper is seen
// by the parker's re-check, and one that saw a spinner is seen by the
// check the spinner makes after it gives the role up (the chain wake's
// head check after a hit, the parker's re-check after a miss). A parker
// that sees a claimed but unpublished slot drops the lock and yields
// instead of sleeping. A wake sent meanwhile counts it out and finds no
// waiter, so a parker takes any pending signal before it waits and counts
// itself in again; no worker sleeps outside sleepers. A woken parker that
// finds no work also counts itself in again before it re-checks.
// wake_one() takes park_mutex_ first, so a wake cannot fall between a
// parker's re-check and its wait. Spill posts push under park_mutex_.
// ---------------------------------------------------------------------------

namespace {

constexpr auto kSpinNs = std::chrono::nanoseconds(50'000);
constexpr std::int64_t kTickNs = 100'000;  // timer wheel tick: 100 us

/// The wheel tick containing the instant `elapsed` after the timer epoch.
std::uint64_t tick_of(std::chrono::steady_clock::duration elapsed) {
  const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed).count();
  return ns <= 0 ? 0 : static_cast<std::uint64_t>(ns / kTickNs);
}

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

// A spawned root reports here after its final awaiter destroyed the frame.
void detail::detached_finished(EventLoop* loop) noexcept { loop->task_finished(); }

// ---------------------------------------------------------------------------
// EventLoop
// ---------------------------------------------------------------------------

EventLoop::EventLoop(std::size_t threads)
    : ring_(std::make_unique<ReadyRing>()),
      spin_enabled_((threads ? threads : 1) < usable_cpus()) {
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
    std::lock_guard<std::mutex> lock(park_mutex_);
    stopping_ = true;
  }
  ready_cv_.notify_all();
  for (auto& w : workers_) w.join();
}

bool EventLoop::spawn(Task<void> task) {
  if (!task.valid()) return false;
  // One CAS orders this spawn against close()'s fetch_or on the same word.
  std::uint64_t n = spawned_.load(std::memory_order_relaxed);
  do {
    if (n & kClosedBit) return false;  // task destroyed unstarted on return
  } while (!spawned_.compare_exchange_weak(n, n + 1, std::memory_order_seq_cst,
                                           std::memory_order_relaxed));
  const auto h = task.release();
  h.promise().detached_on = this;
  post(h);
  return true;
}

void EventLoop::post(std::coroutine_handle<> h) {
  posts_.fetch_add(1, std::memory_order_relaxed);
  if (spill_size_.load(std::memory_order_relaxed) != 0 || !ring_->try_push(h)) {
    std::lock_guard<std::mutex> lock(park_mutex_);
    spill_.push_back(h);
    spill_size_.store(spill_.size(), std::memory_order_seq_cst);
  }
  if (sleepers_.load() != 0 && !spinning_.load()) wake_one();
}

void EventLoop::wake_one() {
  {
    // A parker holds park_mutex_ from its re-check until the wait releases it.
    std::lock_guard<std::mutex> lock(park_mutex_);
    if (sleepers_.load(std::memory_order_relaxed) == 0) return;  // all already woken
    sleepers_.fetch_sub(1);
    ++signals_;
  }
  wakes_.fetch_add(1, std::memory_order_relaxed);
  ready_cv_.notify_one();
}

void EventLoop::close() { spawned_.fetch_or(kClosedBit, std::memory_order_seq_cst); }

bool EventLoop::closed() const {
  return (spawned_.load(std::memory_order_seq_cst) & kClosedBit) != 0;
}

void EventLoop::drain() {
  // completed_ before spawned_: equal values mean every task spawned by the
  // time of the first read has finished.
  const auto drained = [&] {
    const std::uint64_t completed = completed_.load(std::memory_order_seq_cst);
    return (spawned_.load(std::memory_order_seq_cst) & ~kClosedBit) == completed;
  };
  if (drained()) return;
  std::unique_lock<std::mutex> lock(drain_mutex_);
  drain_waiters_.fetch_add(1);
  drained_cv_.wait(lock, drained);
  drain_waiters_.fetch_sub(1);
}

EventLoopStats EventLoop::stats() const {
  EventLoopStats out;
  out.completed = completed_.load(std::memory_order_seq_cst);
  out.spawned = spawned_.load(std::memory_order_seq_cst) & ~kClosedBit;
  out.active = out.spawned - out.completed;
  out.posts = posts_.load(std::memory_order_relaxed);
  out.timers_scheduled = timers_scheduled_.load(std::memory_order_relaxed);
  out.timers_fired = timers_fired_.load(std::memory_order_relaxed);
  out.wakes = wakes_.load(std::memory_order_relaxed);
  out.spin_hits = spin_hits_.load(std::memory_order_relaxed);
  return out;
}

void EventLoop::task_finished() {
  const std::uint64_t completed = completed_.fetch_add(1, std::memory_order_seq_cst) + 1;
  // Only the completion that makes the counts equal wakes a drainer; a
  // drainer counts itself in before its predicate check, so either it sees
  // this completion or this completion sees it.
  if (drain_waiters_.load() == 0) return;
  if ((spawned_.load(std::memory_order_seq_cst) & ~kClosedBit) != completed) return;
  { std::lock_guard<std::mutex> lock(drain_mutex_); }
  drained_cv_.notify_all();
}

void EventLoop::schedule_timer(std::coroutine_handle<> h, double seconds) {
  timers_scheduled_.fetch_add(1, std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(timer_mutex_);
    const auto elapsed = std::chrono::steady_clock::now() - timer_epoch_;
    // The first tick that starts at or after now + seconds: the wheel fires
    // a tick once the clock has reached its start, so the frame never
    // resumes early. Absurd durations (and NaN) clamp to 2^62 ticks.
    const double due_ticks = std::ceil(
        (std::chrono::duration<double, std::nano>(elapsed).count() + seconds * 1e9) /
        static_cast<double>(kTickNs));
    const std::uint64_t deadline =
        due_ticks < 0x1p62 ? static_cast<std::uint64_t>(due_ticks) : std::uint64_t{1} << 62;
    if (wheel_.empty()) {
      // While the wheel is empty the timer thread waits without advancing
      // it, so now() may lag by a whole idle spell. Catch up here, O(1) on
      // an empty wheel, so no advance ever steps through the idle ticks.
      std::vector<std::coroutine_handle<>> none;
      wheel_.advance_to(tick_of(elapsed), none);
    }
    wheel_.arm(h, deadline);
  }
  // Wake the timer thread: the new deadline may be sooner than its current
  // sleep target.
  timer_cv_.notify_one();
}

std::coroutine_handle<> EventLoop::take_spill_locked() {
  if (spill_.empty()) return {};
  const std::coroutine_handle<> h = spill_.front();
  spill_.pop_front();
  spill_size_.store(spill_.size(), std::memory_order_seq_cst);
  return h;
}

std::coroutine_handle<> EventLoop::take() {
  if (const auto h = ring_->try_pop()) return h;
  if (spill_size_.load(std::memory_order_acquire) == 0) return {};
  std::lock_guard<std::mutex> lock(park_mutex_);
  return take_spill_locked();
}

std::coroutine_handle<> EventLoop::spin_for_work() {
  const auto deadline = std::chrono::steady_clock::now() + kSpinNs;
  std::coroutine_handle<> h;
  while (!(h = take()) && std::chrono::steady_clock::now() < deadline) cpu_relax();
  spinning_.store(false);  // give the role up before running or parking
  if (h) spin_hits_.fetch_add(1, std::memory_order_relaxed);
  return h;
}

std::coroutine_handle<> EventLoop::park_for_work() {
  std::unique_lock<std::mutex> lock(park_mutex_);
  bool counted = false;  // this worker is one of sleepers_
  std::coroutine_handle<> h;
  for (;;) {
    if ((h = ring_->try_pop()) || (h = take_spill_locked())) break;
    if (!counted) {  // count in, then re-check before waiting
      sleepers_.fetch_add(1);
      counted = true;
      continue;
    }
    if (!ring_->empty()) {  // a post claimed its slot and is publishing it
      lock.unlock();
      std::this_thread::yield();
      lock.lock();
      continue;
    }
    if (stopping_) break;
    // A wake sent while this worker yielded counted it out and found no
    // waiter. Take the signal, count in again and re-check: waiting now
    // would sleep outside sleepers_, where posts and chain wakes skip it.
    if (signals_ > 0) {
      --signals_;
      counted = false;
      continue;
    }
    ready_cv_.wait(lock);
    if (signals_ > 0) {  // the waker already counted one sleeper out
      --signals_;
      counted = false;
    }
  }
  if (counted) {
    if (signals_ > 0) {
      --signals_;  // a wake that found no waiter counted this worker out
    } else {
      sleepers_.fetch_sub(1);
    }
  }
  return h;
}

void EventLoop::chain_wake() {
  if (sleepers_.load() == 0 || spinning_.load()) return;
  if (ring_->head_published() || spill_size_.load() != 0) wake_one();
}

void EventLoop::worker_main() {
  for (;;) {
    std::coroutine_handle<> h = take();
    if (!h && spin_enabled_ && !spinning_.load(std::memory_order_relaxed) &&
        !spinning_.exchange(true)) {
      h = spin_for_work();
    }
    if (!h && !(h = park_for_work())) return;  // stopping and fully drained
    if (spin_enabled_) chain_wake();
    h.resume();
  }
}

void EventLoop::timer_main() {
  std::vector<std::coroutine_handle<>> expired;
  std::unique_lock<std::mutex> lock(timer_mutex_);
  while (!timer_stop_) {
    expired.clear();
    wheel_.advance_to(tick_of(std::chrono::steady_clock::now() - timer_epoch_), expired);
    if (!expired.empty()) {
      lock.unlock();
      timers_fired_.fetch_add(expired.size(), std::memory_order_relaxed);
      for (auto h : expired) post(h);
      lock.lock();
      continue;  // re-check: more may have become due while posting
    }
    if (wheel_.empty()) {
      timer_cv_.wait(lock);  // indefinite — no polling when idle
    } else {
      const auto wake_ns = static_cast<std::int64_t>(wheel_.next_wake()) * kTickNs;
      timer_cv_.wait_until(lock, timer_epoch_ + std::chrono::nanoseconds(wake_ns));
    }
  }
}

}  // namespace wavekey::runtime
