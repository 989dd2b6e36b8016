#include "mcfs/graph/generators.h"

#include <gtest/gtest.h>

#include <cmath>

#include "mcfs/graph/road_network.h"

namespace mcfs {
namespace {

TEST(GeneratorsTest, UniformPointsStayInTheSquare) {
  Rng rng(1);
  const std::vector<Point> points = GenerateUniformPoints(500, 1000.0, rng);
  ASSERT_EQ(points.size(), 500u);
  for (const Point& p : points) {
    EXPECT_GE(p.x, 0.0);
    EXPECT_LT(p.x, 1000.0);
    EXPECT_GE(p.y, 0.0);
    EXPECT_LT(p.y, 1000.0);
  }
}

TEST(GeneratorsTest, ClusteredPointsConcentrateAroundCenters) {
  Rng rng(2);
  const int clusters = 5;
  const double sigma = 30.0;
  const std::vector<Point> points =
      GenerateClusteredPoints(1000, clusters, 1000.0, sigma, rng);
  // Most points lie within 3 sigma of their cluster center (centers are
  // the first `clusters` points; point i belongs to center i % clusters).
  int close = 0;
  for (size_t i = clusters; i < points.size(); ++i) {
    const Point& center = points[(i - clusters) % clusters];
    if (EuclideanDistance(points[i], center) < 3 * sigma * 1.5) ++close;
  }
  EXPECT_GT(close, 900);
}

TEST(GeometricGraphTest, ConnectsExactlyPairsWithinRadius) {
  Rng rng(3);
  const std::vector<Point> points = GenerateUniformPoints(150, 100.0, rng);
  const double radius = 15.0;
  const Graph graph = BuildGeometricGraph(points, radius);
  // Oracle: brute-force all pairs.
  int64_t expected_edges = 0;
  for (size_t a = 0; a < points.size(); ++a) {
    for (size_t b = a + 1; b < points.size(); ++b) {
      if (EuclideanDistance(points[a], points[b]) < radius) ++expected_edges;
    }
  }
  EXPECT_EQ(graph.NumEdges(), expected_edges);
  // Weights equal the Euclidean distances.
  for (NodeId v = 0; v < graph.NumNodes(); ++v) {
    for (const AdjEntry& e : graph.Neighbors(v)) {
      EXPECT_NEAR(e.weight, EuclideanDistance(points[v], points[e.to]),
                  1e-9);
      EXPECT_LT(e.weight, radius);
    }
  }
}

TEST(GeometricGraphTest, CliqueNodesArePairwiseConnected) {
  Rng rng(4);
  std::vector<Point> points = GenerateUniformPoints(100, 1000.0, rng);
  const std::vector<NodeId> clique = {0, 1, 2, 3};
  const Graph graph = BuildGeometricGraph(points, 10.0, clique);
  for (const NodeId a : clique) {
    for (const NodeId b : clique) {
      if (a == b) continue;
      bool found = false;
      for (const AdjEntry& e : graph.Neighbors(a)) {
        if (e.to == b) found = true;
      }
      EXPECT_TRUE(found) << a << " not adjacent to " << b;
    }
  }
}

TEST(SyntheticNetworkTest, AverageDegreeTracksAlpha) {
  SyntheticNetworkOptions options;
  options.num_nodes = 4000;
  options.seed = 9;
  options.alpha = 2.0;
  const double deg2 = GenerateSyntheticNetwork(options).AverageDegree();
  options.alpha = 1.2;
  const double deg12 = GenerateSyntheticNetwork(options).AverageDegree();
  // E[deg] = pi * alpha^2 (boundary effects shave a little off).
  EXPECT_NEAR(deg2, 3.14159 * 4.0, 1.5);
  EXPECT_NEAR(deg12, 3.14159 * 1.44, 1.0);
  EXPECT_GT(deg2, deg12);
}

TEST(SyntheticNetworkTest, DeterministicForSeed) {
  SyntheticNetworkOptions options;
  options.num_nodes = 500;
  options.num_clusters = 10;
  options.seed = 77;
  const Graph a = GenerateSyntheticNetwork(options);
  const Graph b = GenerateSyntheticNetwork(options);
  EXPECT_EQ(a.NumEdges(), b.NumEdges());
  EXPECT_DOUBLE_EQ(a.AverageEdgeLength(), b.AverageEdgeLength());
}

TEST(RoadNetworkTest, PresetsMatchTableIIIStatistics) {
  // Scaled-down presets must still exhibit road-network structure:
  // average degree ~2.2 (organic) / ~2.4 (grid), short edges.
  const Graph aalborg = GenerateCity(AalborgPreset(0.1));
  EXPECT_NEAR(aalborg.AverageDegree(), 2.2, 0.35);
  EXPECT_NEAR(aalborg.AverageEdgeLength(), 30.2, 8.0);
  EXPECT_GT(aalborg.NumNodes(), 3500);
  EXPECT_LT(aalborg.NumNodes(), 7000);

  const Graph vegas = GenerateCity(LasVegasPreset(0.02));
  EXPECT_NEAR(vegas.AverageDegree(), 2.4, 0.4);
  EXPECT_NEAR(vegas.AverageEdgeLength(), 50.4, 12.0);
}

TEST(RoadNetworkTest, OrganicCityIsLargelyConnected) {
  const Graph city = GenerateCity(CopenhagenPreset(0.02));
  const ComponentLabeling& labeling = city.components();
  int largest = 0;
  for (const int s : labeling.component_size) largest = std::max(largest, s);
  EXPECT_GT(largest, city.NumNodes() * 9 / 10);
}

TEST(RoadNetworkTest, GridCityHasCoordinatesAndPositiveWeights) {
  const Graph city = GenerateCity(LasVegasPreset(0.01));
  ASSERT_TRUE(city.has_coordinates());
  for (NodeId v = 0; v < city.NumNodes(); ++v) {
    for (const AdjEntry& e : city.Neighbors(v)) {
      EXPECT_GT(e.weight, 0.0);
    }
  }
}

}  // namespace
}  // namespace mcfs
