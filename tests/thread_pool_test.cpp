// Tests of the runtime concurrency substrate: ThreadPool lifecycle (drain on
// shutdown, exception propagation through futures), the deterministic
// parallel_for chunking contract and the global compute-pool seam.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <numeric>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "runtime/thread_pool.hpp"

using namespace wavekey::runtime;

TEST(ThreadPool, ParallelForCoversEveryIndexOnce) {
  for (std::size_t size : {0u, 1u, 2u, 3u, 4u}) {
    ThreadPool pool(size);
    for (std::size_t n : {0u, 1u, 2u, 7u, 64u, 100u}) {
      std::vector<std::atomic<int>> hits(n);
      parallel_for(&pool, n, [&](std::size_t i) { hits[i].fetch_add(1); });
      for (std::size_t i = 0; i < n; ++i)
        ASSERT_EQ(hits[i].load(), 1) << "size=" << size << " n=" << n << " i=" << i;
    }
  }
}

TEST(ThreadPool, NullPoolRunsSerially) {
  std::vector<int> order;
  parallel_for(nullptr, 10, [&](std::size_t i) { order.push_back(static_cast<int>(i)); });
  std::vector<int> expect(10);
  std::iota(expect.begin(), expect.end(), 0);
  EXPECT_EQ(order, expect);  // single inline chunk preserves index order
}

TEST(ThreadPool, ParallelLanesIsAPureFunctionOfSizeAndN) {
  EXPECT_EQ(parallel_lanes(nullptr, 100), 1u);
  ThreadPool pool0(0), pool1(1), pool4(4);
  EXPECT_EQ(parallel_lanes(&pool0, 100), 1u);
  EXPECT_EQ(parallel_lanes(&pool1, 100), 1u);
  EXPECT_EQ(parallel_lanes(&pool4, 100), 4u);
  EXPECT_EQ(parallel_lanes(&pool4, 3), 3u);   // never more chunks than items
  EXPECT_EQ(parallel_lanes(&pool4, 0), 1u);
}

TEST(ThreadPool, ChunkBoundsAreContiguousAndBalanced) {
  ThreadPool pool(3);
  const std::size_t n = 10;
  std::vector<std::pair<std::size_t, std::size_t>> bounds(parallel_lanes(&pool, n));
  parallel_for_chunks(&pool, n, [&](std::size_t chunk, std::size_t begin, std::size_t end) {
    bounds[chunk] = {begin, end};
  });
  // 10 over 3 lanes: 4 + 3 + 3, in order, gap-free.
  ASSERT_EQ(bounds.size(), 3u);
  EXPECT_EQ(bounds[0], (std::pair<std::size_t, std::size_t>{0, 4}));
  EXPECT_EQ(bounds[1], (std::pair<std::size_t, std::size_t>{4, 7}));
  EXPECT_EQ(bounds[2], (std::pair<std::size_t, std::size_t>{7, 10}));
}

TEST(ThreadPool, ParallelForPropagatesExceptionAndPoolStaysUsable) {
  ThreadPool pool(2);
  EXPECT_THROW(parallel_for(&pool, 50,
                            [&](std::size_t i) {
                              if (i == 17) throw std::runtime_error("bad index");
                            }),
               std::runtime_error);
  // All chunks completed despite the throw; the pool still works.
  std::atomic<int> count{0};
  parallel_for(&pool, 20, [&](std::size_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 20);
}

TEST(ThreadPool, SubmitFutureCarriesException) {
  ThreadPool pool(1);
  auto future = pool.submit([] { throw std::logic_error("task failed"); });
  EXPECT_THROW(future.get(), std::logic_error);
}

TEST(ThreadPool, ShutdownDrainsPendingWork) {
  std::atomic<int> done{0};
  {
    ThreadPool pool(1);
    // Head task occupies the single worker; the rest pile up in the queue
    // and must still run before the destructor returns.
    pool.submit([&] {
      std::this_thread::sleep_for(std::chrono::milliseconds(30));
      done.fetch_add(1);
    });
    for (int i = 0; i < 16; ++i) pool.submit([&] { done.fetch_add(1); });
  }
  EXPECT_EQ(done.load(), 17);
}

TEST(ThreadPool, ZeroSizePoolRunsInlineOnCaller) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.size(), 0u);
  const std::thread::id caller = std::this_thread::get_id();
  std::thread::id ran_on;
  auto future = pool.submit([&] { ran_on = std::this_thread::get_id(); });
  future.get();
  EXPECT_EQ(ran_on, caller);
}

TEST(ThreadPool, ScopedComputePoolInstallsAndRestores) {
  ASSERT_EQ(compute_pool(), nullptr);
  {
    ScopedComputePool outer(2);
    EXPECT_EQ(compute_pool(), &outer.pool());
    EXPECT_EQ(compute_pool()->size(), 2u);
    {
      ScopedComputePool inner(3);
      EXPECT_EQ(compute_pool(), &inner.pool());
    }
    EXPECT_EQ(compute_pool(), &outer.pool());
  }
  EXPECT_EQ(compute_pool(), nullptr);
}
