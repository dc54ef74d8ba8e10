#pragma once

// N-thread coroutine executor with a timer thread.
//
// The serving core (AccessServer, ReaderGateway, PairingEngine) waits on
// emulated I/O — actuation, retry backoff, radio round-trips — without
// holding an OS thread, so concurrency is not capped at the worker count: a
// request is a Task<void> coroutine spawned onto the loop, and
// `co_await loop.sleep_for(t)` files the suspended frame into a timer wheel
// and frees the worker. 10k+ grants can be in flight on 4 threads; the only
// per-request cost while parked is the coroutine frame.
//
// Components:
//  - EventLoop: fixed worker threads taking coroutine handles from a ready
//    queue, plus one timer thread owning the wheel. spawn() adopts a
//    Task<void> as a detached root; drain() blocks until every spawned task
//    finished. The ready queue is a bounded lock-free ring (Vyukov's
//    sequence-numbered cells, kReadyCapacity slots) that spills to a
//    mutex-guarded list when full, so a post never blocks or fails. An idle
//    worker spins briefly on the ring's head cell (at most one at a time,
//    bounded by wall time) before it parks on a condition variable, so a
//    post into a lightly loaded loop is one published slot and no futex
//    wake; loops with no spare CPU never spin (event_loop.cpp).
//  - sleep_for(seconds): awaitable; the frame is resumed by a worker once
//    the wheel expires it, never before `seconds` have passed. Resolution
//    is one wheel tick (100 us).
//  - AdmissionWindow: the blocking bound on requests admitted and not yet
//    finished, shared by the front ends that make a submitter wait
//    (PairingEngine, ReaderGateway). One request is one spawned task; the
//    window, not a job queue, is what bounds memory.
//
// Timers: the loop maps steady_clock onto 100 us ticks of a
// runtime::TimerWheel (timer_wheel.hpp). The timer thread sleeps until the
// wheel's next wake tick and waits indefinitely while it is empty — it
// never polls; arming an empty wheel first moves it to now.
//
// Thread-safety: all public methods are thread-safe. A coroutine handle is
// owned by exactly one queue (ready ring or spill list, or wheel slot) at a
// time, so each frame is resumed by exactly one worker.

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <coroutine>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "runtime/task.hpp"
#include "runtime/timer_wheel.hpp"

namespace wavekey::runtime {

/// CPUs the calling thread may run on: the size of its affinity mask
/// (`sched_getaffinity`), or hardware_concurrency() where that call does not
/// exist; never less than 1. EventLoop's spin rule and the benches'
/// `hardware_threads` report both read it, so `taskset -c 0` reads 1.
std::size_t usable_cpus();

/// Monotonic counters, each an atomic written by one side of the handoff.
/// stats() reads `completed` before `spawned`, so `spawned == completed +
/// active` holds on every read, like AccessServerStats.
struct EventLoopStats {
  std::uint64_t spawned = 0;           ///< tasks accepted by spawn()
  std::uint64_t completed = 0;         ///< tasks that ran to completion
  std::uint64_t posts = 0;             ///< handles enqueued on the ready queue
  std::uint64_t timers_scheduled = 0;  ///< sleep_for suspensions filed
  std::uint64_t timers_fired = 0;      ///< wheel expirations posted
  std::uint64_t wakes = 0;             ///< notify_one calls (post or chain wake)
  std::uint64_t spin_hits = 0;         ///< handles a spinner took without parking
  std::uint64_t active = 0;            ///< spawned - completed
};

class EventLoop {
 public:
  /// Slots of the lock-free ready ring; posts beyond it spill to a list.
  static constexpr std::size_t kReadyCapacity = std::size_t{1} << 14;

  /// Starts `threads` workers (min 1) plus the timer thread.
  explicit EventLoop(std::size_t threads);
  ~EventLoop();

  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  /// Adopts `task`'s frame as a detached root and posts it. Returns false
  /// (task destroyed unstarted) if the loop is closed; no spawn succeeds
  /// once close() has returned. The frame destroys itself as soon as it
  /// completes; an exception escaping a spawned task terminates (detached
  /// tasks have no awaiter to rethrow into — handle errors in the task).
  bool spawn(Task<void> task);

  /// Awaitable: suspends the coroutine for `seconds` (wall clock), resuming
  /// on a worker thread. Non-positive durations resume immediately without
  /// suspending, so zero-backoff retry loops stay synchronous and fast.
  auto sleep_for(double seconds) noexcept {
    struct SleepAwaiter {
      EventLoop* loop;
      double seconds;
      bool await_ready() const noexcept { return seconds <= 0.0; }
      void await_suspend(std::coroutine_handle<> h) { loop->schedule_timer(h, seconds); }
      void await_resume() const noexcept {}
    };
    return SleepAwaiter{this, seconds};
  }

  /// Refuses further spawns. Already-spawned tasks keep running.
  void close();
  bool closed() const;

  /// Blocks until every spawned task has completed. Call close() first if
  /// producers might still be spawning.
  void drain();

  EventLoopStats stats() const;

 private:
  friend void detail::detached_finished(EventLoop* loop) noexcept;

  struct ReadyRing;  // defined in event_loop.cpp

  /// An atomic on a cache line of its own, so the side that writes it does
  /// not slow down the threads that touch its neighbours.
  template <typename T>
  struct alignas(64) Padded : std::atomic<T> {
    using std::atomic<T>::atomic;
  };

  /// Enqueues a suspended handle for resumption on a worker thread. Never
  /// blocks on a full queue.
  void post(std::coroutine_handle<> h);
  void worker_main();
  std::coroutine_handle<> take();
  std::coroutine_handle<> take_spill_locked();
  std::coroutine_handle<> spin_for_work();
  std::coroutine_handle<> park_for_work();
  void chain_wake();
  void wake_one();
  void timer_main();
  void schedule_timer(std::coroutine_handle<> h, double seconds);
  void task_finished();

  const std::unique_ptr<ReadyRing> ring_;
  const bool spin_enabled_;  ///< a CPU is free beyond the workers

  // Parking. park_mutex_ guards spill_, signals_, stopping_ and the waits on
  // ready_cv_. Posters read sleepers_ and spinning_ without the lock, and
  // workers read spill_size_. sleepers_ counts parked workers that no wake
  // has been sent to yet: wake_one() counts one out and leaves it a signal,
  // so posts made while the woken worker is still getting onto a CPU do
  // not wake it again.
  std::mutex park_mutex_;
  std::condition_variable ready_cv_;
  std::deque<std::coroutine_handle<>> spill_;  ///< posts that found the ring full
  std::size_t signals_ = 0;                    ///< wakes no parker has taken yet
  bool stopping_ = false;
  Padded<std::size_t> sleepers_;
  Padded<bool> spinning_;  ///< a worker holds the spinner role
  Padded<std::size_t> spill_size_;

  // Lifecycle. spawned_ carries close()'s flag in its top bit, so a spawn
  // and a close are ordered by one atomic word; completed_ is written by
  // finishing tasks only. drain() waits on drained_cv_ only while it must.
  static constexpr std::uint64_t kClosedBit = std::uint64_t{1} << 63;
  Padded<std::uint64_t> spawned_;
  Padded<std::uint64_t> completed_;
  Padded<std::size_t> drain_waiters_;
  std::mutex drain_mutex_;
  std::condition_variable drained_cv_;

  // Throughput counters (relaxed; no invariant of their own).
  Padded<std::uint64_t> posts_;
  Padded<std::uint64_t> timers_scheduled_;
  Padded<std::uint64_t> timers_fired_;
  Padded<std::uint64_t> wakes_;
  Padded<std::uint64_t> spin_hits_;

  // Timers (guarded by timer_mutex_). Wheel tick k is the 100 us interval
  // starting at timer_epoch_ + k ticks.
  const std::chrono::steady_clock::time_point timer_epoch_ = std::chrono::steady_clock::now();
  std::mutex timer_mutex_;
  std::condition_variable timer_cv_;
  TimerWheel<std::coroutine_handle<>> wheel_;
  bool timer_stop_ = false;

  std::vector<std::thread> workers_;
  std::thread timer_thread_;
};

/// Blocking admission window: at most `capacity` requests admitted and not
/// yet finished. A front end acquires a slot before it spawns a request's
/// task and the task releases it as its last step, so a parked request
/// holds no worker and this count bounds memory and gives submit() its
/// backpressure. With a capacity of 1, requests run one at a time in
/// submission order, whatever the loop's worker count.
class AdmissionWindow {
 public:
  explicit AdmissionWindow(std::size_t capacity) : capacity_(capacity ? capacity : 1) {}

  AdmissionWindow(const AdmissionWindow&) = delete;
  AdmissionWindow& operator=(const AdmissionWindow&) = delete;

  /// Blocks while the window is full. False once close() has run.
  bool acquire() {
    std::unique_lock<std::mutex> lock(mutex_);
    cv_.wait(lock, [&] { return closed_ || admitted_ < capacity_; });
    if (closed_) return false;
    ++admitted_;
    return true;
  }

  /// Frees one slot: its request finished, or its spawn lost the race with
  /// the loop's close().
  void release() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      --admitted_;
    }
    cv_.notify_one();
  }

  /// Refuses further acquires; blocked ones return false. Idempotent.
  void close() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      closed_ = true;
    }
    cv_.notify_all();
  }

 private:
  const std::size_t capacity_;
  std::mutex mutex_;
  std::condition_variable cv_;
  std::size_t admitted_ = 0;
  bool closed_ = false;
};

}  // namespace wavekey::runtime
