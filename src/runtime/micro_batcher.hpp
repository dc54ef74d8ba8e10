#pragma once

// Deadline-aware micro-batcher: coalesces items submitted concurrently by
// many threads into one batch, dispatched when either the batch reaches
// `max_batch` items or the *oldest* held item has waited `max_hold_s`
// seconds. The caller of submit() blocks until its batch is flushed and
// receives its own result plus the measured hold time, so every microsecond
// an item spent waiting for co-batched work can be charged to that item's
// own (virtual-clock) budget — batching amortizes compute, never hides
// latency from the tau accounting (DESIGN.md §11.2).
//
// Dispatch is leader/follower: no dedicated dispatcher thread exists. The
// submitter that fills the batch — or the waiter whose deadline fires first
// while its batch is still collecting — detaches the batch and runs the
// flush function itself; co-batched submitters keep waiting on their batch's
// own condition variable until the leader publishes the results (per-batch
// cvs, so flushing batch k never context-switches batch k+1's sleepers
// awake). close() makes
// the closing thread the leader of the final partial batch, so shutdown
// drains every held item without loss (pinned by the MicroBatcher.
// CloseDrainsHeldItemsWithoutLoss / ConcurrentSoakResolvesEveryItemExactlyOnce
// tests).
//
// Two batches can be in flight at once (batch k+1 collects while the leader
// of batch k is inside flush). The flush function must therefore be safe to
// call from multiple threads, or serialize internally — BatchedEncoderService
// does the latter, because the underlying nn::Sequential is externally
// synchronized (layer.hpp).
//
// Thread-safety: submit()/close()/stats() are safe from any thread.
// Lost-wakeup audit: every state flag (`flushed`, `closed_`, `current_`) is
// mutated under the one mutex, and a waiter re-reads all of them under that
// mutex before it first parks and after every wake — notified, spurious or
// timed out (wait_for_flush's loop). So a timed waiter racing close() or a
// leader either parks before the racer takes the mutex, and the racer's
// notify_all finds it, or it re-evaluates after the racer released the
// mutex and sees the new state: it observes the flushed results or becomes
// the leader itself. There is no window in which an item can be dropped
// (pinned by MicroBatcher.FillRacingDeadlineElectsExactlyOneLeader and
// CloseDrainsHeldItemsWithoutLoss).

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace wavekey::runtime {

struct MicroBatcherConfig {
  std::size_t max_batch = 16;   ///< dispatch as soon as this many items held
  double max_hold_s = 500e-6;   ///< dispatch when the oldest item waited this long
};

/// Aggregate counters (monotonic; snapshot via stats()).
struct MicroBatcherStats {
  std::uint64_t items = 0;            ///< items submitted and flushed
  std::uint64_t batches = 0;          ///< flush calls
  std::uint64_t full_dispatches = 0;  ///< batches dispatched on max_batch
  std::uint64_t deadline_dispatches = 0;  ///< batches dispatched on max_hold
  std::uint64_t drain_dispatches = 0;     ///< partial batches flushed by close()
  double max_hold_s = 0.0;            ///< largest observed per-item hold
};

/// See file comment. `Item` and `Result` must be movable. The flush function
/// receives the coalesced items and must return exactly one result per item,
/// in order; a size mismatch or an exception fails every member of that
/// batch (submit() rethrows as std::runtime_error), never a hang.
template <typename Item, typename Result>
class MicroBatcher {
 public:
  using Clock = std::chrono::steady_clock;
  using FlushFn = std::function<std::vector<Result>(std::vector<Item>&)>;

  /// One submitter's share of a flushed batch.
  struct Ticket {
    Result value{};
    double hold_s = 0.0;        ///< submit -> flush dispatch (wall time)
    std::size_t batch_size = 0; ///< items coalesced into this GEMM batch
    bool deadline_dispatch = false;  ///< batch went out on max_hold, not size
  };

  MicroBatcher(const MicroBatcherConfig& config, FlushFn flush)
      : config_(sanitize(config)), flush_(std::move(flush)) {
    if (!flush_) throw std::invalid_argument("MicroBatcher: null flush function");
  }

  ~MicroBatcher() { close(); }

  MicroBatcher(const MicroBatcher&) = delete;
  MicroBatcher& operator=(const MicroBatcher&) = delete;

  /// Blocks until the item's batch has been flushed; returns this item's
  /// result + hold accounting. Returns nullopt once close() has been called
  /// (the item was NOT enqueued). Throws std::runtime_error if the flush
  /// function failed for this batch.
  std::optional<Ticket> submit(Item item) {
    std::unique_lock<std::mutex> lock(mutex_);
    if (closed_) return std::nullopt;

    const Clock::time_point now = Clock::now();
    if (!current_) {
      current_ = std::make_shared<Batch>();
      current_->deadline = now + std::chrono::duration_cast<Clock::duration>(
                                     std::chrono::duration<double>(config_.max_hold_s));
    }
    const std::shared_ptr<Batch> batch = current_;
    const std::size_t index = batch->items.size();
    batch->items.push_back(std::move(item));
    batch->enqueued.push_back(now);

    if (batch->items.size() >= config_.max_batch) {
      // This submitter completed the batch: detach and lead the flush.
      current_.reset();
      flush_locked(lock, batch, DispatchCause::kFull);
    } else {
      wait_for_flush(lock, batch);
    }
    return make_ticket(batch, index);
  }

  /// Idempotent. Flushes the currently-collecting partial batch (the closing
  /// thread is its leader), then fails all future submits fast. Items whose
  /// batch is mid-flush on another leader are unaffected — their leader will
  /// publish results as usual.
  void close() {
    std::unique_lock<std::mutex> lock(mutex_);
    if (closed_) return;
    closed_ = true;
    if (current_) {
      // The closer leads the final partial batch; flush_locked wakes its
      // followers. No other thread can be parked: every sleeper waits on
      // some batch's cv, and every detached batch has a leader mid-flush
      // that will publish and notify it.
      const std::shared_ptr<Batch> batch = current_;
      current_.reset();
      flush_locked(lock, batch, DispatchCause::kDrain);
    }
  }

  bool closed() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return closed_;
  }

  MicroBatcherStats stats() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return stats_;
  }

  const MicroBatcherConfig& config() const { return config_; }

 private:
  enum class DispatchCause { kFull, kDeadline, kDrain };

  struct Batch {
    std::vector<Item> items;
    std::vector<Clock::time_point> enqueued;
    std::vector<double> hold_s;      ///< filled at dispatch, one per item
    std::vector<Result> results;     ///< filled by the leader's flush
    Clock::time_point deadline;      ///< oldest item's max-hold instant
    bool flushed = false;            ///< results (or error) published
    bool failed = false;
    bool deadline_dispatch = false;
    std::string error;
    /// Per-batch wakeup channel (guarded by the batcher mutex). A shared
    /// condition variable would wake every parked submitter on every
    /// publication — with two batches in flight, flushing batch k would
    /// context-switch batch k+1's sleepers awake just to re-check a false
    /// predicate, a measurable per-session tax on few-core hosts. Followers
    /// therefore park on their own batch's cv and a leader wakes exactly the
    /// threads whose results it published.
    std::condition_variable cv;
  };

  static MicroBatcherConfig sanitize(MicroBatcherConfig c) {
    if (c.max_batch < 1) c.max_batch = 1;
    if (c.max_hold_s < 0.0) c.max_hold_s = 0.0;
    return c;
  }

  /// Leader path. Called with the lock held and `batch` already detached
  /// from current_; flushes outside the lock, publishes under it.
  void flush_locked(std::unique_lock<std::mutex>& lock, const std::shared_ptr<Batch>& batch,
                    DispatchCause cause) {
    const Clock::time_point dispatch = Clock::now();
    batch->hold_s.reserve(batch->items.size());
    for (const Clock::time_point t : batch->enqueued)
      batch->hold_s.push_back(std::chrono::duration<double>(dispatch - t).count());
    batch->deadline_dispatch = cause == DispatchCause::kDeadline;

    stats_.items += batch->items.size();
    stats_.batches += 1;
    switch (cause) {
      case DispatchCause::kFull: stats_.full_dispatches += 1; break;
      case DispatchCause::kDeadline: stats_.deadline_dispatches += 1; break;
      case DispatchCause::kDrain: stats_.drain_dispatches += 1; break;
    }
    for (const double h : batch->hold_s)
      if (h > stats_.max_hold_s) stats_.max_hold_s = h;

    lock.unlock();
    std::vector<Result> results;
    std::string error;
    try {
      results = flush_(batch->items);
      if (results.size() != batch->items.size())
        error = "MicroBatcher: flush returned " + std::to_string(results.size()) +
                " results for " + std::to_string(batch->items.size()) + " items";
    } catch (const std::exception& e) {
      error = e.what();
    } catch (...) {
      error = "MicroBatcher: flush threw a non-exception";
    }
    lock.lock();
    if (error.empty()) {
      batch->results = std::move(results);
    } else {
      batch->failed = true;
      batch->error = std::move(error);
    }
    batch->flushed = true;
    // Notify with the mutex released: waking followers while holding it
    // would make each of them block on the mutex futex straight out of the
    // cv wait — one extra syscall round-trip per follower per batch. Safe:
    // `flushed` was set under the mutex, so a follower that acquires it
    // after this unlock observes the flag and never parks, and followers
    // already parked get the notification.
    lock.unlock();
    batch->cv.notify_all();
    lock.lock();
  }

  /// Follower path: waits until `batch` is flushed, assuming leadership if
  /// the deadline fires while the batch is still collecting. The predicate
  /// is re-evaluated under the mutex on every wakeup, so a deadline that
  /// races the batch-completing submitter (or close()) resolves to exactly
  /// one leader: whoever detaches the batch from current_ first.
  void wait_for_flush(std::unique_lock<std::mutex>& lock, const std::shared_ptr<Batch>& batch) {
    while (!batch->flushed) {
      if (current_ == batch) {
        // Batch still collecting: sleep until the deadline, a co-batched
        // leader's publication, or close().
        if (batch->cv.wait_until(lock, batch->deadline) == std::cv_status::timeout &&
            current_ == batch && !batch->flushed) {
          current_.reset();
          flush_locked(lock, batch, DispatchCause::kDeadline);
          return;
        }
      } else {
        // Detached: a leader owns it; just wait for the results.
        batch->cv.wait(lock);
      }
    }
  }

  /// Called with the lock held, after batch->flushed.
  std::optional<Ticket> make_ticket(const std::shared_ptr<Batch>& batch, std::size_t index) {
    if (batch->failed) throw std::runtime_error(batch->error);
    Ticket ticket;
    ticket.value = std::move(batch->results[index]);
    ticket.hold_s = batch->hold_s[index];
    ticket.batch_size = batch->items.size();
    ticket.deadline_dispatch = batch->deadline_dispatch;
    return ticket;
  }

  const MicroBatcherConfig config_;
  const FlushFn flush_;
  mutable std::mutex mutex_;
  std::shared_ptr<Batch> current_;  ///< batch currently collecting (may be null)
  bool closed_ = false;
  MicroBatcherStats stats_;
};

}  // namespace wavekey::runtime
