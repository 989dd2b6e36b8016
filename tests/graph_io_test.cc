#include "mcfs/graph/graph_io.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <fstream>

#include "mcfs/graph/dijkstra.h"
#include "mcfs/graph/road_network.h"
#include "tests/test_util.h"

namespace mcfs {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

uint64_t Bits(double value) { return std::bit_cast<uint64_t>(value); }

TEST(GraphIoTest, RoundTripsGraphWithCoordinates) {
  Rng rng(17);
  GraphBuilder builder(5);
  builder.AddEdge(0, 1, 1.5);
  builder.AddEdge(1, 2, 2.25);
  builder.AddEdge(3, 4, 0.75);
  builder.SetCoordinates(
      {{0, 0}, {1, 1}, {2, 2}, {3, 3}, {4, 4}});
  const Graph original = builder.Build();
  const std::string path = TempPath("roundtrip.graph");
  ASSERT_TRUE(WriteGraph(original, path).ok());
  const StatusOr<Graph> loaded = ReadGraph(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->NumNodes(), original.NumNodes());
  EXPECT_EQ(loaded->NumEdges(), original.NumEdges());
  ASSERT_TRUE(loaded->has_coordinates());
  for (NodeId v = 0; v < original.NumNodes(); ++v) {
    EXPECT_DOUBLE_EQ(loaded->coordinate(v).x, original.coordinate(v).x);
  }
  // Shortest paths agree (same weights).
  const std::vector<double> a = ShortestPathsFrom(original, 0);
  const std::vector<double> b = ShortestPathsFrom(*loaded, 0);
  for (NodeId v = 0; v < original.NumNodes(); ++v) {
    if (a[v] == kInfDistance) {
      EXPECT_EQ(b[v], kInfDistance);
    } else {
      EXPECT_NEAR(a[v], b[v], 1e-9);
    }
  }
}

TEST(GraphIoTest, RoundTripsGraphWithoutCoordinates) {
  Rng rng(18);
  const Graph original = testing_util::RandomGraph(20, 15, rng);
  const std::string path = TempPath("nocoords.graph");
  ASSERT_TRUE(WriteGraph(original, path).ok());
  const StatusOr<Graph> loaded = ReadGraph(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->NumEdges(), original.NumEdges());
  EXPECT_FALSE(loaded->has_coordinates());
}

// A generated city's weights and coordinates are not short decimals; a
// round trip must still reproduce every bit of them, and so every
// shortest-path distance.
TEST(GraphIoTest, RoundTripIsExactOnGeneratedCity) {
  const Graph original = GenerateCity(AalborgPreset(0.02, 42));
  const std::string path = TempPath("city.graph");
  ASSERT_TRUE(WriteGraph(original, path).ok());
  const StatusOr<Graph> loaded = ReadGraph(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_EQ(loaded->NumNodes(), original.NumNodes());
  ASSERT_EQ(loaded->NumEdges(), original.NumEdges());
  ASSERT_TRUE(loaded->has_coordinates());
  int coordinate_mismatches = 0;
  int weight_mismatches = 0;
  for (NodeId v = 0; v < original.NumNodes(); ++v) {
    coordinate_mismatches +=
        Bits(loaded->coordinate(v).x) != Bits(original.coordinate(v).x) ||
        Bits(loaded->coordinate(v).y) != Bits(original.coordinate(v).y);
    // The file lists each edge once, so arcs may come back reordered.
    std::vector<std::pair<NodeId, double>> a;
    std::vector<std::pair<NodeId, double>> b;
    for (const AdjEntry& e : original.Neighbors(v)) {
      a.push_back({e.to, e.weight});
    }
    for (const AdjEntry& e : loaded->Neighbors(v)) {
      b.push_back({e.to, e.weight});
    }
    std::sort(a.begin(), a.end());
    std::sort(b.begin(), b.end());
    ASSERT_EQ(a.size(), b.size()) << "node " << v;
    for (size_t e = 0; e < a.size(); ++e) {
      ASSERT_EQ(a[e].first, b[e].first) << "node " << v;
      weight_mismatches += Bits(a[e].second) != Bits(b[e].second);
    }
  }
  EXPECT_EQ(coordinate_mismatches, 0);
  EXPECT_EQ(weight_mismatches, 0);
  const std::vector<double> a = ShortestPathsFrom(original, 0);
  const std::vector<double> b = ShortestPathsFrom(*loaded, 0);
  int distance_mismatches = 0;
  for (NodeId v = 0; v < original.NumNodes(); ++v) {
    distance_mismatches += Bits(a[v]) != Bits(b[v]);
  }
  EXPECT_EQ(distance_mismatches, 0);
}

TEST(GraphIoTest, MissingFileFailsCleanly) {
  EXPECT_EQ(ReadGraph("/nonexistent/path/x.graph").status().code(),
            StatusCode::kIoError);
}

TEST(GraphIoTest, CorruptFileFailsCleanly) {
  const std::string path = TempPath("corrupt.graph");
  {
    std::ofstream out(path);
    out << "3 2 0\n0 1 1.0\n0 99 1.0\n";  // node out of range
  }
  EXPECT_EQ(ReadGraph(path).status().code(), StatusCode::kInvalidInput);
  {
    std::ofstream out(path);
    out << "3 2 0\n0 1 -4.0\n";  // negative weight
  }
  EXPECT_EQ(ReadGraph(path).status().code(), StatusCode::kInvalidInput);
  {
    std::ofstream out(path);
    out << "not a graph";
  }
  EXPECT_EQ(ReadGraph(path).status().code(), StatusCode::kInvalidInput);
}

}  // namespace
}  // namespace mcfs
