#include "mcfs/common/thread_pool.h"

#include <atomic>
#include <cstdint>
#include <limits>
#include <numeric>
#include <stdexcept>
#include <vector>

#include <gtest/gtest.h>

namespace mcfs {
namespace {

TEST(ResolveThreadCountTest, PositiveRequestIsVerbatim) {
  EXPECT_EQ(ResolveThreadCount(1), 1);
  EXPECT_EQ(ResolveThreadCount(7), 7);
  EXPECT_EQ(ResolveThreadCount(64), 64);
}

TEST(ResolveThreadCountTest, DefaultIsAtLeastOne) {
  EXPECT_GE(ResolveThreadCount(0), 1);
  // Negative means serial, as for ParallelFor's max_threads cap.
  EXPECT_EQ(ResolveThreadCount(-3), 1);
}

TEST(ThreadPoolTest, EveryIndexRunsExactlyOnce) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.num_threads(), 4);
  constexpr int64_t kN = 10000;
  std::vector<std::atomic<int>> hits(kN);
  pool.ParallelFor(0, kN, /*grain=*/7,
                   [&](int64_t i) { hits[i].fetch_add(1); });
  for (int64_t i = 0; i < kN; ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPoolTest, EmptyAndReversedRangesAreNoOps) {
  ThreadPool pool(4);
  std::atomic<int> calls{0};
  pool.ParallelFor(0, 0, 1, [&](int64_t) { calls.fetch_add(1); });
  pool.ParallelFor(5, 5, 1, [&](int64_t) { calls.fetch_add(1); });
  pool.ParallelFor(10, 3, 1, [&](int64_t) { calls.fetch_add(1); });
  EXPECT_EQ(calls.load(), 0);
}

TEST(ThreadPoolTest, GrainLargerThanRangeRunsInlineInOrder) {
  ThreadPool pool(4);
  std::vector<int64_t> order;  // safe: single chunk => single thread
  pool.ParallelFor(3, 8, /*grain=*/100,
                   [&](int64_t i) { order.push_back(i); });
  EXPECT_EQ(order, (std::vector<int64_t>{3, 4, 5, 6, 7}));
}

TEST(ThreadPoolTest, NonPositiveGrainIsClampedToOne) {
  ThreadPool pool(2);
  std::atomic<int64_t> sum{0};
  pool.ParallelFor(0, 10, /*grain=*/0, [&](int64_t i) { sum.fetch_add(i); });
  EXPECT_EQ(sum.load(), 45);
}

TEST(ThreadPoolTest, HugeGrainDoesNotOverflowChunkMath) {
  // Regression: (end - begin + grain - 1) overflowed int64 for grains
  // near INT64_MAX before the grain was clamped into [1, range].
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(16);
  pool.ParallelFor(0, 16, std::numeric_limits<int64_t>::max(),
                   [&](int64_t i) { hits[i].fetch_add(1); });
  for (size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPoolTest, NegativeMaxThreadsDegradesToSerialInOrder) {
  ThreadPool pool(4);
  std::vector<int64_t> order;
  pool.ParallelFor(
      0, 64, 4, [&](int64_t i) { order.push_back(i); },
      /*max_threads=*/-3);
  std::vector<int64_t> expected(64);
  std::iota(expected.begin(), expected.end(), 0);
  EXPECT_EQ(order, expected);  // serial => safe to touch without atomics
}

TEST(ThreadPoolTest, DegenerateRangeAndThreadComboIsANoOp) {
  ThreadPool pool(2);
  int calls = 0;
  pool.ParallelFor(5, 5, 0, [&](int64_t) { ++calls; }, -1);
  pool.ParallelFor(7, -7, -9, [&](int64_t) { ++calls; }, 0);
  EXPECT_EQ(calls, 0);
}

TEST(ThreadPoolTest, MaxThreadsOneRunsSerially) {
  ThreadPool pool(8);
  std::vector<int64_t> order;  // safe only because max_threads = 1
  pool.ParallelFor(0, 100, 1, [&](int64_t i) { order.push_back(i); },
                   /*max_threads=*/1);
  std::vector<int64_t> expected(100);
  std::iota(expected.begin(), expected.end(), 0);
  EXPECT_EQ(order, expected);
}

TEST(ThreadPoolTest, ExceptionPropagatesToCaller) {
  ThreadPool pool(4);
  EXPECT_THROW(
      pool.ParallelFor(0, 1000, 1,
                       [&](int64_t i) {
                         if (i == 513) throw std::runtime_error("boom");
                       }),
      std::runtime_error);
  // The pool must stay usable after an exception.
  std::atomic<int> calls{0};
  pool.ParallelFor(0, 100, 1, [&](int64_t) { calls.fetch_add(1); });
  EXPECT_EQ(calls.load(), 100);
}

TEST(ThreadPoolTest, InlineExceptionAlsoPropagates) {
  ThreadPool pool(1);  // inline path
  EXPECT_THROW(pool.ParallelFor(0, 10, 1,
                                [&](int64_t i) {
                                  if (i == 3) throw std::logic_error("x");
                                }),
               std::logic_error);
}

TEST(ThreadPoolTest, NestedParallelForRunsInlineWithoutDeadlock) {
  ThreadPool pool(4);
  constexpr int64_t kOuter = 16;
  constexpr int64_t kInner = 64;
  std::vector<std::atomic<int>> hits(kOuter * kInner);
  std::atomic<bool> saw_nested_region{false};
  pool.ParallelFor(0, kOuter, 1, [&](int64_t o) {
    EXPECT_TRUE(InsideParallelRegion());
    // A nested call must not block on the busy pool; it runs inline.
    pool.ParallelFor(0, kInner, 1, [&](int64_t i) {
      saw_nested_region.store(true);
      hits[o * kInner + i].fetch_add(1);
    });
  });
  EXPECT_FALSE(InsideParallelRegion());
  EXPECT_TRUE(saw_nested_region.load());
  for (size_t e = 0; e < hits.size(); ++e) {
    EXPECT_EQ(hits[e].load(), 1) << "cell " << e;
  }
}

TEST(ThreadPoolTest, ReuseAcrossManyLoops) {
  ThreadPool pool(4);
  for (int round = 0; round < 50; ++round) {
    std::atomic<int64_t> sum{0};
    pool.ParallelFor(0, 1000, 13, [&](int64_t i) { sum.fetch_add(i); });
    ASSERT_EQ(sum.load(), 499500) << "round " << round;
  }
}

TEST(ThreadPoolTest, FreeFunctionUsesDefaultPool) {
  std::vector<std::atomic<int>> hits(512);
  ParallelFor(0, 512, 8, [&](int64_t i) { hits[i].fetch_add(1); },
              /*max_threads=*/4);
  for (size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
  EXPECT_GE(ThreadPool::Default().num_threads(), 1);
}

TEST(ThreadPoolTest, ConcurrentOuterCallersAreSerialized) {
  ThreadPool pool(4);
  constexpr int64_t kN = 2000;
  std::vector<std::atomic<int>> a(kN), b(kN);
  std::thread other([&] {
    pool.ParallelFor(0, kN, 3, [&](int64_t i) { a[i].fetch_add(1); });
  });
  pool.ParallelFor(0, kN, 3, [&](int64_t i) { b[i].fetch_add(1); });
  other.join();
  for (int64_t i = 0; i < kN; ++i) {
    ASSERT_EQ(a[i].load(), 1);
    ASSERT_EQ(b[i].load(), 1);
  }
}

}  // namespace
}  // namespace mcfs
