#include "mcfs/core/repair.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <optional>
#include <set>

#include "mcfs/graph/dijkstra.h"
#include "tests/test_util.h"

namespace mcfs {
namespace {

using testing_util::MakeRandomInstance;
using testing_util::RandomInstance;

TEST(SelectGreedyTest, FillsUpToK) {
  Rng rng(21);
  RandomInstance ri = MakeRandomInstance(60, 10, 12, 6, 5, rng);
  std::vector<int> selected = {0, 1};
  SelectGreedy(ri.instance, selected);
  EXPECT_EQ(static_cast<int>(selected.size()), 6);
  std::set<int> unique(selected.begin(), selected.end());
  EXPECT_EQ(unique.size(), selected.size());
}

TEST(SelectGreedyTest, PrefersFacilityNearWorstCustomer) {
  // Path: c0 - f0 - ... - c1 far away with facility f1 nearby. Starting
  // from {f0}, the greedy step must pick f1 (nearest to the farthest
  // customer c1).
  GraphBuilder builder(6);
  builder.AddEdge(0, 1, 1.0);   // c0 - f0
  builder.AddEdge(1, 2, 50.0);  // long road
  builder.AddEdge(2, 3, 1.0);   // c1 at 3
  builder.AddEdge(3, 4, 1.0);   // f1 at 4
  builder.AddEdge(4, 5, 30.0);  // f2 at 5, farther
  const Graph graph = builder.Build();
  McfsInstance instance;
  instance.graph = &graph;
  instance.customers = {0, 3};
  instance.facility_nodes = {1, 4, 5};
  instance.capacities = {2, 2, 2};
  instance.k = 2;
  std::vector<int> selected = {0};
  SelectGreedy(instance, selected);
  EXPECT_EQ(selected, (std::vector<int>{0, 1}));
}

TEST(SelectGreedyTest, ReachesDisconnectedComponents) {
  GraphBuilder builder(4);
  builder.AddEdge(0, 1, 1.0);  // component A: c0, f0
  builder.AddEdge(2, 3, 1.0);  // component B: c1, f1
  const Graph graph = builder.Build();
  McfsInstance instance;
  instance.graph = &graph;
  instance.customers = {0, 2};
  instance.facility_nodes = {1, 3};
  instance.capacities = {2, 2};
  instance.k = 2;
  std::vector<int> selected = {0};
  SelectGreedy(instance, selected);
  EXPECT_EQ(selected, (std::vector<int>{0, 1}));
}

// SelectGreedy as it was before the nearest-facility array was kept
// across additions: one whole-network MultiSourceDijkstra per added
// facility. Kept here as the reference the incremental version must
// match selection for selection.
void ReferenceSelectGreedy(const McfsInstance& instance,
                           std::vector<int>& selected) {
  const int l = instance.l();
  std::vector<uint8_t> is_selected(l, 0);
  for (const int j : selected) is_selected[j] = 1;
  std::vector<int> facility_index_of_node(instance.graph->NumNodes(), -1);
  for (int j = 0; j < l; ++j) {
    facility_index_of_node[instance.facility_nodes[j]] = j;
  }
  while (static_cast<int>(selected.size()) < instance.k &&
         static_cast<int>(selected.size()) < l) {
    std::vector<NodeId> sources;
    for (const int j : selected) sources.push_back(instance.facility_nodes[j]);
    std::vector<std::pair<double, int>> by_distance;
    if (sources.empty()) {
      for (int i = 0; i < instance.m(); ++i) {
        by_distance.push_back({kInfDistance, i});
      }
    } else {
      const MultiSourceResult msd =
          MultiSourceDijkstra(*instance.graph, sources);
      for (int i = 0; i < instance.m(); ++i) {
        by_distance.push_back({msd.distance[instance.customers[i]], i});
      }
    }
    std::sort(by_distance.begin(), by_distance.end(),
              [](const auto& a, const auto& b) { return a.first > b.first; });
    int added = -1;
    for (const auto& [dist, customer] : by_distance) {
      (void)dist;
      IncrementalDijkstra dijkstra(instance.graph,
                                   instance.customers[customer]);
      while (std::optional<SettledNode> s = dijkstra.NextSettled()) {
        const int j = facility_index_of_node[s->node];
        if (j >= 0 && !is_selected[j]) {
          added = j;
          break;
        }
      }
      if (added != -1) break;
    }
    if (added == -1) {
      for (int j = 0; j < l && added == -1; ++j) {
        if (!is_selected[j]) added = j;
      }
      if (added == -1) return;
    }
    selected.push_back(added);
    is_selected[added] = 1;
  }
}

// Same shape as MakeRandomInstance's graphs but with weights 1..3, so
// customers often tie on their distance to the selection.
Graph IntegerWeightGraph(int n, int parts, Rng& rng) {
  GraphBuilder builder(n);
  const int per_part = n / parts;
  for (int p = 0; p < parts; ++p) {
    const int lo = p * per_part;
    const int hi = (p == parts - 1) ? n - 1 : lo + per_part - 1;
    for (int v = lo + 1; v <= hi; ++v) {
      builder.AddEdge(static_cast<NodeId>(rng.UniformInt(lo, v - 1)), v,
                      static_cast<double>(rng.UniformInt(1, 3)));
    }
  }
  return builder.Build();
}

class SelectGreedyEquivalenceTest : public ::testing::TestWithParam<int> {};

// Case (param % 4): 0 = empty start, 1 = start already at k, 2 = k = l,
// 3 = random partial start. Parts (1..3) and integer vs. real weights
// vary with the param; every instance repeats some customer nodes.
TEST_P(SelectGreedyEquivalenceTest, MatchesPerAdditionRebuild) {
  const int param = GetParam();
  const int variant = param % 4;
  Rng rng(1300 + param);
  const int parts = 1 + (param / 4) % 3;
  const int n = 60 + static_cast<int>(rng.UniformInt(0, 140));
  const int m = 10 + static_cast<int>(rng.UniformInt(0, 50));
  const int l = 8 + static_cast<int>(rng.UniformInt(0, 32));
  const int k =
      variant == 2 ? l : 2 + static_cast<int>(rng.UniformInt(0, l - 2));
  RandomInstance ri = MakeRandomInstance(n, m, l, k, 5, rng, parts);
  if ((param / 12) % 2 == 1) ri.graph = IntegerWeightGraph(n, parts, rng);
  for (int t = 0; t < m / 4; ++t) {
    ri.instance.customers.push_back(
        ri.instance.customers[rng.UniformInt(0, m - 1)]);
  }
  int start = static_cast<int>(rng.UniformInt(0, k - 1));
  if (variant == 0) start = 0;
  if (variant == 1) start = k;
  const std::vector<int> base = rng.SampleWithoutReplacement(l, start);

  std::vector<int> expected = base;
  ReferenceSelectGreedy(ri.instance, expected);
  std::vector<int> actual = base;
  SelectGreedy(ri.instance, actual);
  EXPECT_EQ(actual, expected);
  EXPECT_EQ(static_cast<int>(actual.size()), k);
  if (variant == 1) {
    EXPECT_EQ(actual, base);
  }
}

INSTANTIATE_TEST_SUITE_P(RandomSweep, SelectGreedyEquivalenceTest,
                         ::testing::Range(0, 72));

TEST(CoverComponentsTest, SwapsCapacityIntoDeficitComponent) {
  // Two components; all selected capacity initially sits in A.
  GraphBuilder builder(8);
  builder.AddEdge(0, 1, 1.0);
  builder.AddEdge(1, 2, 1.0);  // component A: customers {0}, fac {1,2}
  builder.AddEdge(4, 5, 1.0);
  builder.AddEdge(5, 6, 1.0);  // component B: customers {4,5,6}, fac {5,6}
  const Graph graph = builder.Build();
  McfsInstance instance;
  instance.graph = &graph;
  instance.customers = {0, 4, 5, 6};
  instance.facility_nodes = {1, 2, 5, 6};
  instance.capacities = {2, 2, 3, 1};
  instance.k = 2;
  std::vector<int> selected = {0, 1};  // both in component A
  ASSERT_TRUE(CoverComponents(instance, selected));
  // Component B (3 customers) needs its capacity-3 facility (index 2).
  std::set<int> chosen(selected.begin(), selected.end());
  EXPECT_TRUE(chosen.count(2));
  EXPECT_EQ(selected.size(), 2u);
  // Per-component surplus now non-negative.
  int cap_a = 0, cap_b = 0;
  for (const int j : selected) {
    if (instance.facility_nodes[j] <= 3) {
      cap_a += instance.capacities[j];
    } else {
      cap_b += instance.capacities[j];
    }
  }
  EXPECT_GE(cap_a, 1);
  EXPECT_GE(cap_b, 3);
}

TEST(CoverComponentsTest, ReturnsFalseWhenInfeasible) {
  GraphBuilder builder(4);
  builder.AddEdge(0, 1, 1.0);
  builder.AddEdge(2, 3, 1.0);
  const Graph graph = builder.Build();
  McfsInstance instance;
  instance.graph = &graph;
  instance.customers = {0, 0, 0, 2};  // 3 customers in A, 1 in B
  instance.facility_nodes = {1, 3};
  instance.capacities = {1, 1};  // A can never host 3
  instance.k = 2;
  std::vector<int> selected = {0, 1};
  EXPECT_FALSE(CoverComponents(instance, selected));
}

class CoverComponentsSweepTest : public ::testing::TestWithParam<int> {};

TEST_P(CoverComponentsSweepTest, FeasibleInstancesGetCovered) {
  Rng rng(900 + GetParam());
  const int parts = 2 + static_cast<int>(rng.UniformInt(0, 2));
  RandomInstance ri = MakeRandomInstance(
      40, 8, 12, 6, 4, rng, /*disconnected_parts=*/parts);
  if (!IsFeasible(ri.instance)) return;  // only feasible cases here
  // Start from an arbitrary (likely invalid) selection of size k.
  std::vector<int> selected;
  for (int j = 0; j < ri.instance.k; ++j) selected.push_back(j);
  ASSERT_TRUE(CoverComponents(ri.instance, selected));
  EXPECT_EQ(static_cast<int>(selected.size()), ri.instance.k);
  // Verify per-component capacity coverage.
  const ComponentLabeling& labeling = ri.graph.components();
  std::vector<int64_t> surplus(labeling.num_components, 0);
  for (const NodeId c : ri.instance.customers) {
    surplus[labeling.component_of[c]]--;
  }
  for (const int j : selected) {
    surplus[labeling.component_of[ri.instance.facility_nodes[j]]] +=
        ri.instance.capacities[j];
  }
  for (const int64_t s : surplus) EXPECT_GE(s, 0);
}

INSTANTIATE_TEST_SUITE_P(RandomSweep, CoverComponentsSweepTest,
                         ::testing::Range(0, 40));

}  // namespace
}  // namespace mcfs
