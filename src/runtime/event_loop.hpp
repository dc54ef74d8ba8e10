#pragma once

// N-thread coroutine executor with a timer thread.
//
// The serving core (AccessServer, ReaderGateway, PairingEngine) waits on
// emulated I/O — actuation, retry backoff, radio round-trips — without
// holding an OS thread, so concurrency is not capped at the worker count: a
// request is a Task<void> coroutine, `co_await loop.sleep_for(t)` files the
// suspended frame into a timer wheel and frees the worker, and
// `co_await queue.pop()` suspends until a producer hands an item over. 10k+
// grants can be in flight on 4 threads; the only per-request cost while
// parked is the coroutine frame.
//
// Components:
//  - EventLoop: fixed worker threads taking coroutine handles from a ready
//    queue, plus one timer thread owning the wheel. spawn() adopts a
//    Task<void> as a detached root; drain() blocks until every spawned task
//    finished. The ready queue is a bounded lock-free ring (Vyukov's
//    sequence-numbered cells, kReadyCapacity slots) that spills to a
//    mutex-guarded list when full, so post() never blocks or fails. An idle
//    worker spins briefly on the ring's head cell (at most one at a time,
//    bounded by wall time) before it parks on a condition variable, so a
//    post into a lightly loaded loop is one published slot and no futex
//    wake; loops with no spare CPU never spin (event_loop.cpp).
//  - sleep_for(seconds): awaitable; the frame is resumed by a worker once
//    the wheel expires it, never before `seconds` have passed. Resolution
//    is one wheel tick (100 us).
//  - AsyncQueue<T>: bounded MPMC channel; producers use blocking push from
//    plain threads, consumers `co_await pop()`. close() wakes every parked
//    consumer with nullopt after the backlog drains — this is the
//    notify-driven shutdown that replaces the old fixed-slice try_pop_for
//    polling loop.
//
// Timers: the loop maps steady_clock onto 100 us ticks of a
// runtime::TimerWheel (timer_wheel.hpp). The timer thread sleeps until the
// wheel's next wake tick and waits indefinitely while it is empty — it
// never polls; arming an empty wheel first moves it to now.
//
// Thread-safety: all public methods are thread-safe. A coroutine handle is
// owned by exactly one queue (ready ring or spill list, wheel slot, or
// AsyncQueue waiter list) at a time, so each frame is resumed by exactly one
// worker.

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <coroutine>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
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

  /// Enqueues a suspended handle for resumption on a worker thread. Never
  /// blocks on a full queue. (Public for awaiter implementations; not a user
  /// entry point.)
  void post(std::coroutine_handle<> h);

 private:
  friend void detail::detached_finished(EventLoop* loop) noexcept;

  struct ReadyRing;  // defined in event_loop.cpp

  /// An atomic on a cache line of its own, so the side that writes it does
  /// not slow down the threads that touch its neighbours.
  template <typename T>
  struct alignas(64) Padded : std::atomic<T> {
    using std::atomic<T>::atomic;
  };

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

/// Bounded MPMC channel bridging plain threads (producers) and coroutines
/// (consumers). Pop order is FIFO; items enqueued before close() are always
/// delivered before the nullopt wake.
template <typename T>
class AsyncQueue {
 public:
  AsyncQueue(EventLoop& loop, std::size_t capacity)
      : loop_(loop), capacity_(capacity ? capacity : 1) {}

  AsyncQueue(const AsyncQueue&) = delete;
  AsyncQueue& operator=(const AsyncQueue&) = delete;

  /// Blocking push with backpressure: waits while the queue is at capacity
  /// and no consumer is parked. Returns false if the queue is closed.
  bool push(T item) {
    std::unique_lock<std::mutex> lock(mutex_);
    not_full_.wait(lock, [&] {
      return closed_ || !waiters_.empty() || items_.size() < capacity_;
    });
    if (closed_) return false;
    if (waiters_.empty()) {
      items_.push_back(std::move(item));
      return true;
    }
    // Hand the item to the front parked consumer; post it outside the lock.
    const Waiter w = waiters_.front();
    waiters_.pop_front();
    w.slot->emplace(std::move(item));
    lock.unlock();
    loop_.post(w.handle);
    return true;
  }

  struct PopAwaiter {
    AsyncQueue* queue;
    std::optional<T> item;

    // All state inspection happens in await_suspend under the queue mutex:
    // checking emptiness in await_ready and suspending afterwards would lose
    // an item pushed between the two steps.
    bool await_ready() const noexcept { return false; }
    bool await_suspend(std::coroutine_handle<> h) {
      std::unique_lock<std::mutex> lock(queue->mutex_);
      if (!queue->items_.empty()) {
        item.emplace(std::move(queue->items_.front()));
        queue->items_.pop_front();
        lock.unlock();
        queue->not_full_.notify_one();
        return false;  // resume immediately with the item
      }
      if (queue->closed_) return false;  // resume immediately with nullopt
      queue->waiters_.push_back(Waiter{h, &item});
      return true;
    }
    std::optional<T> await_resume() noexcept { return std::move(item); }
  };

  /// Awaitable pop: suspends until an item arrives or the queue closes
  /// (nullopt). Consumers must run on the owning EventLoop.
  PopAwaiter pop() { return PopAwaiter{this, std::nullopt}; }

  /// Closes the queue: pending items still drain to consumers; parked
  /// consumers wake with nullopt; push returns false.
  void close() {
    std::deque<Waiter> parked;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (closed_) return;
      closed_ = true;
      parked.swap(waiters_);
    }
    not_full_.notify_all();
    for (const Waiter& w : parked) loop_.post(w.handle);  // slots stay nullopt
  }

 private:
  friend struct PopAwaiter;

  struct Waiter {
    std::coroutine_handle<> handle;
    std::optional<T>* slot;  ///< lives in the suspended frame's awaiter
  };

  EventLoop& loop_;
  const std::size_t capacity_;
  std::mutex mutex_;
  std::condition_variable not_full_;
  std::deque<T> items_;
  std::deque<Waiter> waiters_;
  bool closed_ = false;
};

}  // namespace wavekey::runtime
