#include "mcfs/common/dary_heap.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <queue>
#include <vector>

#include "mcfs/common/random.h"

namespace mcfs {
namespace {

TEST(DaryHeapTest, BasicOrdering) {
  DaryHeap<int> heap;
  EXPECT_TRUE(heap.empty());
  heap.push(5);
  heap.push(1);
  heap.push(3);
  EXPECT_EQ(heap.size(), 3u);
  EXPECT_EQ(heap.top(), 1);
  heap.pop();
  EXPECT_EQ(heap.top(), 3);
  heap.pop();
  EXPECT_EQ(heap.top(), 5);
  heap.pop();
  EXPECT_TRUE(heap.empty());
}

TEST(DaryHeapTest, HeapSortMatchesStdSort) {
  Rng rng(1);
  std::vector<double> values;
  DaryHeap<double> heap;
  for (int i = 0; i < 5000; ++i) {
    const double v = rng.Uniform(-100.0, 100.0);
    values.push_back(v);
    heap.push(v);
  }
  std::sort(values.begin(), values.end());
  for (const double expected : values) {
    EXPECT_DOUBLE_EQ(heap.top(), expected);
    heap.pop();
  }
}

TEST(DaryHeapTest, CustomComparatorAndArity) {
  struct Entry {
    double key;
    int payload;
  };
  struct ByKey {
    bool operator()(const Entry& a, const Entry& b) const {
      return a.key < b.key;
    }
  };
  DaryHeap<Entry, 8, ByKey> heap;
  heap.push({2.0, 20});
  heap.push({1.0, 10});
  heap.push({3.0, 30});
  EXPECT_EQ(heap.top().payload, 10);
}

class DaryHeapRandomOpsTest : public ::testing::TestWithParam<int> {};

TEST_P(DaryHeapRandomOpsTest, AgreesWithStdPriorityQueue) {
  Rng rng(100 + GetParam());
  DaryHeap<int, 4> ours;
  std::priority_queue<int, std::vector<int>, std::greater<int>> reference;
  for (int op = 0; op < 3000; ++op) {
    const bool push = reference.empty() || rng.NextDouble() < 0.6;
    if (push) {
      const int v = static_cast<int>(rng.UniformInt(-1000, 1000));
      ours.push(v);
      reference.push(v);
    } else {
      ASSERT_EQ(ours.top(), reference.top());
      ours.pop();
      reference.pop();
    }
    ASSERT_EQ(ours.size(), reference.size());
    if (!reference.empty()) {
      ASSERT_EQ(ours.top(), reference.top());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(RandomSweep, DaryHeapRandomOpsTest,
                         ::testing::Range(0, 10));

TEST(DaryHeapTest, DuplicatesAndClear) {
  DaryHeap<int> heap;
  for (int i = 0; i < 10; ++i) heap.push(7);
  EXPECT_EQ(heap.size(), 10u);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(heap.top(), 7);
    heap.pop();
  }
  heap.push(1);
  heap.clear();
  EXPECT_TRUE(heap.empty());
}

}  // namespace
}  // namespace mcfs
