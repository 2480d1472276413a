// Tests for the worker pool behind the batch explorer: completion, exception
// propagation, reuse across waves, and parallel_for coverage.
#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "core/thread_pool.hpp"

namespace addm::core {
namespace {

TEST(ThreadPool, RunsEverySubmittedTask) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.size(), 4u);
  std::atomic<int> count{0};
  for (int i = 0; i < 100; ++i)
    pool.submit([&count] { count.fetch_add(1); });
  pool.wait_idle();
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPool, ZeroMeansHardwareConcurrency) {
  ThreadPool pool(0);
  EXPECT_GE(pool.size(), 1u);
}

TEST(ThreadPool, ParallelForCoversEveryIndexOnce) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(257);
  pool.parallel_for(hits.size(), [&](std::size_t i) { hits[i].fetch_add(1); });
  for (std::size_t i = 0; i < hits.size(); ++i)
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
}

TEST(ThreadPool, ParallelForOnSingleThreadRunsInOrder) {
  ThreadPool pool(1);
  std::vector<std::size_t> order;
  pool.parallel_for(10, [&](std::size_t i) { order.push_back(i); });
  std::vector<std::size_t> expect(10);
  std::iota(expect.begin(), expect.end(), 0);
  EXPECT_EQ(order, expect);
}

TEST(ThreadPool, WaitIdleRethrowsFirstTaskException) {
  ThreadPool pool(2);
  pool.submit([] { throw std::runtime_error("task failed"); });
  EXPECT_THROW(pool.wait_idle(), std::runtime_error);
  // The error is cleared once reported; the pool stays usable.
  std::atomic<int> count{0};
  pool.submit([&count] { count.fetch_add(1); });
  pool.wait_idle();
  EXPECT_EQ(count.load(), 1);
}

TEST(ThreadPool, ReusableAcrossWaves) {
  ThreadPool pool(2);
  std::atomic<int> count{0};
  for (int wave = 0; wave < 5; ++wave) {
    for (int i = 0; i < 20; ++i)
      pool.submit([&count] { count.fetch_add(1); });
    pool.wait_idle();
    EXPECT_EQ(count.load(), (wave + 1) * 20);
  }
}

TEST(ThreadPool, NestedDistinctPoolsDoNotDeadlock) {
  // An outer pool task constructs its own inner pool and parallel_fors over
  // it.  Distinct pools, so the no-nesting rule is respected; this must
  // complete and cover every (i, j) pair.
  ThreadPool outer(2);
  std::atomic<int> count{0};
  outer.parallel_for(4, [&](std::size_t) {
    ThreadPool inner(2);
    inner.parallel_for(3, [&](std::size_t) { ++count; });
  });
  EXPECT_EQ(count.load(), 12);
}

}  // namespace
}  // namespace addm::core
