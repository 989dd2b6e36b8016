#include "mcfs/graph/graph.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <utility>

#include "mcfs/core/validate.h"
#include "tests/test_util.h"

namespace mcfs {
namespace {

TEST(GraphBuilderTest, BuildsCsrAdjacency) {
  GraphBuilder builder(3);
  builder.AddEdge(0, 1, 2.0);
  builder.AddEdge(1, 2, 3.0);
  const Graph graph = builder.Build();
  EXPECT_EQ(graph.NumNodes(), 3);
  EXPECT_EQ(graph.NumEdges(), 2);
  EXPECT_EQ(graph.NumArcs(), 4);
  ASSERT_EQ(graph.Degree(1), 2);
  EXPECT_EQ(graph.Degree(0), 1);
  EXPECT_EQ(graph.Neighbors(0)[0].to, 1);
  EXPECT_DOUBLE_EQ(graph.Neighbors(0)[0].weight, 2.0);
}

TEST(GraphBuilderTest, DirectedArcsAreOneWay) {
  GraphBuilder builder(2);
  builder.AddArc(0, 1, 1.0);
  const Graph graph = builder.Build();
  EXPECT_EQ(graph.Degree(0), 1);
  EXPECT_EQ(graph.Degree(1), 0);
}

TEST(GraphTest, StatisticsMatchConstruction) {
  GraphBuilder builder(4);
  builder.AddEdge(0, 1, 10.0);
  builder.AddEdge(0, 2, 20.0);
  builder.AddEdge(0, 3, 30.0);
  const Graph graph = builder.Build();
  EXPECT_EQ(graph.MaxDegree(), 3);
  EXPECT_DOUBLE_EQ(graph.AverageDegree(), 6.0 / 4.0);
  EXPECT_DOUBLE_EQ(graph.AverageEdgeLength(), 20.0);
}

TEST(GraphTest, CoordinatesRoundTrip) {
  GraphBuilder builder(2);
  builder.AddEdge(0, 1, 1.0);
  builder.SetCoordinates({{1.0, 2.0}, {3.0, 4.0}});
  const Graph graph = builder.Build();
  ASSERT_TRUE(graph.has_coordinates());
  EXPECT_DOUBLE_EQ(graph.coordinate(1).x, 3.0);
  EXPECT_DOUBLE_EQ(graph.coordinate(1).y, 4.0);
}

TEST(GraphTest, DefaultConstructedGraphIsEmpty) {
  const Graph graph;
  EXPECT_EQ(graph.NumNodes(), 0);
  EXPECT_EQ(graph.NumArcs(), 0);
  EXPECT_EQ(graph.components().num_components, 0);
  EXPECT_TRUE(graph.components().component_of.empty());
  EXPECT_TRUE(graph.components().component_size.empty());
  McfsInstance instance;
  instance.graph = &graph;
  EXPECT_TRUE(ValidateInstance(instance).ok());
  EXPECT_TRUE(IsFeasible(instance));
}

TEST(ConnectedComponentsTest, SingleComponent) {
  Rng rng(3);
  const Graph graph = testing_util::RandomGraph(30, 10, rng);
  const ComponentLabeling& labeling = graph.components();
  EXPECT_EQ(labeling.num_components, 1);
  EXPECT_EQ(labeling.component_size[0], 30);
}

TEST(ConnectedComponentsTest, CountsAndSizes) {
  GraphBuilder builder(6);
  builder.AddEdge(0, 1, 1.0);
  builder.AddEdge(2, 3, 1.0);
  builder.AddEdge(3, 4, 1.0);
  // node 5 isolated
  const Graph graph = builder.Build();
  const ComponentLabeling& labeling = graph.components();
  EXPECT_EQ(labeling.num_components, 3);
  EXPECT_EQ(labeling.component_of[0], labeling.component_of[1]);
  EXPECT_EQ(labeling.component_of[2], labeling.component_of[4]);
  EXPECT_NE(labeling.component_of[0], labeling.component_of[5]);
  std::vector<int> sizes = labeling.component_size;
  std::sort(sizes.begin(), sizes.end());
  EXPECT_EQ(sizes, (std::vector<int>{1, 2, 3}));
}

// Every edge joins same-component endpoints, and the sizes add up.
void ExpectPartitionConsistent(const Graph& graph) {
  const ComponentLabeling& labeling = graph.components();
  ASSERT_EQ(static_cast<int>(labeling.component_of.size()), graph.NumNodes());
  ASSERT_EQ(static_cast<int>(labeling.component_size.size()),
            labeling.num_components);
  for (NodeId v = 0; v < graph.NumNodes(); ++v) {
    for (const AdjEntry& e : graph.Neighbors(v)) {
      EXPECT_EQ(labeling.component_of[v], labeling.component_of[e.to]);
    }
  }
  int total = 0;
  for (const int s : labeling.component_size) total += s;
  EXPECT_EQ(total, graph.NumNodes());
}

TEST(ConnectedComponentsTest, PartitionIsConsistentWithLabels) {
  Rng rng(11);
  const Graph graph = testing_util::RandomDisconnectedGraph(50, 4, rng);
  ExpectPartitionConsistent(graph);
  EXPECT_GT(graph.components().num_components, 1);
  // A copied and a moved Graph keep the labeling Build() stored.
  const Graph copy = graph;
  ExpectPartitionConsistent(copy);
  EXPECT_EQ(copy.components().component_of, graph.components().component_of);
  Graph source = graph;
  const Graph moved = std::move(source);
  ExpectPartitionConsistent(moved);
  EXPECT_EQ(moved.components().component_of,
            graph.components().component_of);
  EXPECT_EQ(moved.components().component_size,
            graph.components().component_size);
}

TEST(EuclideanDistanceTest, Pythagoras) {
  EXPECT_DOUBLE_EQ(EuclideanDistance({0, 0}, {3, 4}), 5.0);
}

}  // namespace
}  // namespace mcfs
