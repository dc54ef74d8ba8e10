#pragma once

// Fixed-size thread pool and deterministic parallel-for — the compute
// substrate for the batched training and inference hot paths (src/nn). The
// pool serves only parallel_for: serving code (PairingEngine, AccessServer,
// ReaderGateway) runs as coroutines on runtime::EventLoop, where an I/O wait
// suspends a frame instead of parking one of these workers. Deliberately
// work-stealing-free:
// work is split into a *fixed, size-derived* number of chunks so that the
// floating-point reduction order — and therefore every trained weight and
// every bench table — is a pure function of (input, pool size), never of
// scheduling luck. DESIGN.md §7 states the full determinism contract.
//
// Thread-safety: ThreadPool::submit may be called from any thread while the
// pool is alive. parallel_for / parallel_for_chunks are safe to call from
// any thread *not* owned by the pool (a worker calling back in would
// deadlock waiting for itself; an assertion guards the debug build). The
// global compute-pool pointer (set_compute_pool / ScopedComputePool) is a
// process-wide, unsynchronized seam: install it while no training or
// inference is in flight.

#include <cstddef>
#include <functional>
#include <future>
#include <thread>
#include <vector>

namespace wavekey::runtime {

/// Fixed-size pool of worker threads over a FIFO task queue.
///
/// Lifecycle contract:
///  * the constructor spawns exactly `size` OS threads (0 is allowed and
///    means "no workers": submit() then runs tasks inline on the caller);
///  * tasks submitted while the pool is alive are never dropped — the
///    destructor closes the queue, lets the workers *drain every pending
///    task*, then joins, so every future returned by submit() is ready once
///    the destructor returns.
class ThreadPool {
 public:
  explicit ThreadPool(std::size_t size);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Number of worker threads (== the `size` given at construction).
  std::size_t size() const { return workers_.size(); }

  /// Enqueues a task; the future carries the task's exception, if any.
  /// With size() == 0 the task runs inline before submit returns.
  /// Throws std::logic_error if called during/after destruction.
  std::future<void> submit(std::function<void()> task);

  /// Best-effort hardware concurrency (>= 1).
  static std::size_t hardware_threads();

 private:
  struct State;  // queue + synchronization, shared with workers
  void worker_loop();

  std::unique_ptr<State> state_;
  std::vector<std::thread> workers_;
};

/// Number of chunks parallel_for_chunks(pool, n, …) will use:
/// min(max(size, 1), max(n, 1)). Depends only on the pool size and n, never
/// on load — this is what makes chunked reductions deterministic.
std::size_t parallel_lanes(const ThreadPool* pool, std::size_t n);

/// Splits [0, n) into parallel_lanes(pool, n) contiguous chunks of
/// near-equal size and runs body(chunk, begin, end) for each. Chunk 0 runs
/// on the calling thread; the rest are submitted to the pool, so a pool of
/// size s yields at most s-way concurrency (caller + s-1 workers busy).
/// With a null pool or size <= 1 this degenerates to one inline
/// body(0, 0, n) call — the serial path, bit for bit.
///
/// All chunks complete before return. If any chunk throws, the first
/// exception (in chunk order: chunk 0's beats the workers') is rethrown
/// after every chunk has finished; the pool remains usable.
void parallel_for_chunks(ThreadPool* pool, std::size_t n,
                         const std::function<void(std::size_t chunk, std::size_t begin,
                                                  std::size_t end)>& body);

/// Element-wise convenience wrapper: body(i) for every i in [0, n), chunked
/// exactly like parallel_for_chunks.
void parallel_for(ThreadPool* pool, std::size_t n, const std::function<void(std::size_t)>& body);

/// Template variant of parallel_for_chunks: identical chunk layout, but the
/// serial path (null pool / size <= 1 / n <= 1) invokes the body directly
/// without materializing a std::function — large lambdas would otherwise
/// heap-allocate even when no pool is installed. The nn hot paths use this
/// so single-threaded steady-state inference performs zero allocations
/// (see tensor.hpp's arena contract). The parallel path delegates to
/// parallel_for_chunks via a non-owning reference wrapper.
template <typename Body>
void for_each_chunk(ThreadPool* pool, std::size_t n, Body&& body) {
  if (parallel_lanes(pool, n) <= 1) {
    body(std::size_t{0}, std::size_t{0}, n);
    return;
  }
  parallel_for_chunks(
      pool, n,
      std::function<void(std::size_t, std::size_t, std::size_t)>(std::ref(body)));
}

/// Element-wise counterpart of for_each_chunk.
template <typename Body>
void for_each_index(ThreadPool* pool, std::size_t n, Body&& body) {
  for_each_chunk(pool, n, [&body](std::size_t, std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) body(i);
  });
}

/// Process-global pool consulted by the nn layers for batch-level data
/// parallelism. Defaults to nullptr (fully serial). Not synchronized:
/// install while no compute is in flight.
ThreadPool* compute_pool();
void set_compute_pool(ThreadPool* pool);

/// RAII owner+installer of the global compute pool; restores the previous
/// pool on destruction. `size` 0 installs a no-worker pool (serial inline).
class ScopedComputePool {
 public:
  explicit ScopedComputePool(std::size_t size);
  ~ScopedComputePool();

  ScopedComputePool(const ScopedComputePool&) = delete;
  ScopedComputePool& operator=(const ScopedComputePool&) = delete;

  ThreadPool& pool() { return pool_; }

 private:
  ThreadPool pool_;
  ThreadPool* previous_;
};

}  // namespace wavekey::runtime
