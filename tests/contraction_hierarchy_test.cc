#include "mcfs/graph/contraction_hierarchy.h"

#include <gtest/gtest.h>

#include "mcfs/graph/road_network.h"
#include "tests/test_util.h"

namespace mcfs {
namespace {

using testing_util::RandomDisconnectedGraph;
using testing_util::RandomGraph;

TEST(ContractionHierarchyTest, TinyPathGraph) {
  GraphBuilder builder(4);
  builder.AddEdge(0, 1, 1.0);
  builder.AddEdge(1, 2, 2.0);
  builder.AddEdge(2, 3, 3.0);
  const Graph graph = builder.Build();
  const ContractionHierarchy ch(&graph);
  EXPECT_DOUBLE_EQ(ch.Distance(0, 3), 6.0);
  EXPECT_DOUBLE_EQ(ch.Distance(3, 0), 6.0);
  EXPECT_DOUBLE_EQ(ch.Distance(1, 1), 0.0);
}

// Two components {0, 1} and {2, 3}, plus node 4 with no edges at all.
TEST(ContractionHierarchyTest, TrivialDisconnectedAndIsolatedQueries) {
  GraphBuilder builder(5);
  builder.AddEdge(0, 1, 2.0);
  builder.AddEdge(2, 3, 1.0);
  const Graph graph = builder.Build();
  ASSERT_EQ(graph.Degree(4), 0);
  const ContractionHierarchy ch(&graph);
  const std::vector<NodeId> nodes = {0, 1, 2, 3, 4};
  const std::vector<double> from_zero = {0.0, 2.0, kInfDistance, kInfDistance,
                                         kInfDistance};
  for (const NodeId t : nodes) {
    EXPECT_EQ(ch.Distance(0, t), from_zero[t]) << "t=" << t;
  }
  EXPECT_EQ(ch.Distance(3, 2), 1.0);
  EXPECT_EQ(ch.Distance(4, 4), 0.0);
  EXPECT_EQ(ch.Distance(4, 1), kInfDistance);

  const std::vector<double> table = ch.DistanceTable({0, 4}, nodes);
  for (const NodeId t : nodes) {
    EXPECT_EQ(table[t], from_zero[t]) << "t=" << t;
    EXPECT_EQ(table[nodes.size() + t], t == 4 ? 0.0 : kInfDistance)
        << "t=" << t;
  }
}

class ChOracleTest : public ::testing::TestWithParam<int> {};

TEST_P(ChOracleTest, DistancesMatchDijkstra) {
  Rng rng(600 + GetParam());
  const int n = 10 + static_cast<int>(rng.UniformInt(0, 120));
  const Graph graph = GetParam() % 4 == 0
                          ? RandomDisconnectedGraph(n, 3, rng)
                          : RandomGraph(n, n / 2, rng);
  const ContractionHierarchy ch(&graph);
  for (int q = 0; q < 20; ++q) {
    const NodeId s = static_cast<NodeId>(rng.UniformInt(0, n - 1));
    const std::vector<double> oracle = ShortestPathsFrom(graph, s);
    const NodeId t = static_cast<NodeId>(rng.UniformInt(0, n - 1));
    const double got = ch.Distance(s, t);
    if (oracle[t] == kInfDistance) {
      EXPECT_EQ(got, kInfDistance);
    } else {
      EXPECT_NEAR(got, oracle[t], 1e-9) << "s=" << s << " t=" << t;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(RandomSweep, ChOracleTest, ::testing::Range(0, 25));

TEST(ContractionHierarchyTest, DistanceTableMatchesDijkstra) {
  Rng rng(42);
  const Graph graph = RandomGraph(120, 80, rng);
  const ContractionHierarchy ch(&graph);
  std::vector<NodeId> sources;
  std::vector<NodeId> targets;
  for (int i = 0; i < 8; ++i) {
    sources.push_back(static_cast<NodeId>(rng.UniformInt(0, 119)));
    targets.push_back(static_cast<NodeId>(rng.UniformInt(0, 119)));
  }
  const std::vector<double> table = ch.DistanceTable(sources, targets);
  for (size_t s = 0; s < sources.size(); ++s) {
    const std::vector<double> oracle = ShortestPathsFrom(graph, sources[s]);
    for (size_t t = 0; t < targets.size(); ++t) {
      EXPECT_NEAR(table[s * targets.size() + t], oracle[targets[t]], 1e-9);
    }
  }
}

TEST(ContractionHierarchyTest, RanksFormAPermutation) {
  Rng rng(7);
  const Graph graph = RandomGraph(60, 40, rng);
  const ContractionHierarchy ch(&graph);
  std::vector<int> seen(60, 0);
  for (NodeId v = 0; v < 60; ++v) {
    const int r = ch.rank(v);
    ASSERT_GE(r, 0);
    ASSERT_LT(r, 60);
    seen[r]++;
  }
  for (const int count : seen) EXPECT_EQ(count, 1);
}

TEST(ContractionHierarchyTest, RoadNetworkQueriesAreExactAndLocal) {
  const Graph city = GenerateCity(AalborgPreset(0.03, 42));
  const ContractionHierarchy ch(&city);
  Rng rng(5);
  int64_t settled_total = 0;
  int queries = 0;
  for (int q = 0; q < 15; ++q) {
    const NodeId s =
        static_cast<NodeId>(rng.UniformInt(0, city.NumNodes() - 1));
    const NodeId t =
        static_cast<NodeId>(rng.UniformInt(0, city.NumNodes() - 1));
    const std::vector<double> oracle = ShortestPathsFrom(city, s);
    const double got = ch.Distance(s, t);
    if (oracle[t] == kInfDistance) {
      EXPECT_EQ(got, kInfDistance);
      continue;
    }
    EXPECT_NEAR(got, oracle[t], 1e-6);
    settled_total += ch.last_settled_count();
    ++queries;
  }
  ASSERT_GT(queries, 0);
  // CH upward cones should be a small fraction of the network.
  EXPECT_LT(settled_total / queries, city.NumNodes() / 4);
}

}  // namespace
}  // namespace mcfs
