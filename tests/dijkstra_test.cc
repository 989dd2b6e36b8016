#include "mcfs/graph/dijkstra.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <limits>

#include "mcfs/graph/generators.h"
#include "tests/test_util.h"

namespace mcfs {
namespace {

using testing_util::FloydWarshall;
using testing_util::RandomDisconnectedGraph;
using testing_util::RandomGraph;

TEST(DijkstraTest, PathGraphDistances) {
  GraphBuilder builder(4);
  builder.AddEdge(0, 1, 1.5);
  builder.AddEdge(1, 2, 2.5);
  builder.AddEdge(2, 3, 3.0);
  const Graph graph = builder.Build();
  const std::vector<double> dist = ShortestPathsFrom(graph, 0);
  EXPECT_DOUBLE_EQ(dist[0], 0.0);
  EXPECT_DOUBLE_EQ(dist[1], 1.5);
  EXPECT_DOUBLE_EQ(dist[2], 4.0);
  EXPECT_DOUBLE_EQ(dist[3], 7.0);
}

TEST(DijkstraTest, UnreachableNodesAreInfinite) {
  GraphBuilder builder(4);
  builder.AddEdge(0, 1, 1.0);
  builder.AddEdge(2, 3, 1.0);
  const Graph graph = builder.Build();
  const std::vector<double> dist = ShortestPathsFrom(graph, 0);
  EXPECT_EQ(dist[2], kInfDistance);
  EXPECT_EQ(dist[3], kInfDistance);
}

class DijkstraOracleTest : public ::testing::TestWithParam<int> {};

TEST_P(DijkstraOracleTest, MatchesFloydWarshall) {
  Rng rng(100 + GetParam());
  const int n = 5 + static_cast<int>(rng.UniformInt(0, 40));
  const Graph graph = GetParam() % 3 == 0
                          ? RandomDisconnectedGraph(n, 2 + n % 3, rng)
                          : RandomGraph(n, n, rng);
  const auto oracle = FloydWarshall(graph);
  for (NodeId s = 0; s < n; s += 3) {
    const std::vector<double> dist = ShortestPathsFrom(graph, s);
    for (NodeId v = 0; v < n; ++v) {
      if (oracle[s][v] == kInfDistance) {
        EXPECT_EQ(dist[v], kInfDistance);
      } else {
        EXPECT_NEAR(dist[v], oracle[s][v], 1e-9);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(RandomSweep, DijkstraOracleTest,
                         ::testing::Range(0, 25));

TEST(DijkstraWithinRadiusTest, SettlesOnlyWithinRadiusInOrder) {
  Rng rng(7);
  const Graph graph = RandomGraph(60, 80, rng);
  const std::vector<double> full = ShortestPathsFrom(graph, 0);
  const double radius = 8.0;
  const std::vector<SettledNode> settled =
      DijkstraWithinRadius(graph, 0, radius);
  double prev = 0.0;
  for (const SettledNode& s : settled) {
    EXPECT_LE(prev, s.distance + 1e-12);
    EXPECT_LE(s.distance, radius);
    EXPECT_NEAR(s.distance, full[s.node], 1e-9);
    prev = s.distance;
  }
  // Every node within the radius must be present.
  size_t expected = 0;
  for (const double d : full) {
    if (d <= radius) ++expected;
  }
  EXPECT_EQ(settled.size(), expected);
}

TEST(MultiSourceDijkstraTest, NearestSourceAndDistance) {
  Rng rng(9);
  const Graph graph = RandomGraph(50, 60, rng);
  const std::vector<NodeId> sources = {3, 17, 42};
  const MultiSourceResult msd = MultiSourceDijkstra(graph, sources);
  std::vector<std::vector<double>> per_source;
  for (const NodeId s : sources) {
    per_source.push_back(ShortestPathsFrom(graph, s));
  }
  for (NodeId v = 0; v < graph.NumNodes(); ++v) {
    double best = kInfDistance;
    for (const auto& dist : per_source) best = std::min(best, dist[v]);
    EXPECT_NEAR(msd.distance[v], best, 1e-9);
    if (best != kInfDistance) {
      EXPECT_NEAR(per_source[msd.nearest_index[v]][v], best, 1e-9);
    }
  }
}

// Random graph of `parts` disconnected pieces whose weights make float
// ties and rounding differences likely. Style 0 draws small integers, so
// many paths tie exactly; style 1 draws multiples of 0.1, so paths of
// equal real length round to different doubles. Both make every fifth
// edge weigh denorm_min, which rounding absorbs into every label of
// 2^-1021 or more: the nearest GraphBuilder allows to a zero-weight
// edge (it rejects weight 0).
Graph TieHeavyGraph(int n, int parts, int style, Rng& rng) {
  GraphBuilder builder(n);
  const int per_part = n / parts;
  auto weight = [&] {
    if (rng.UniformInt(0, 4) == 0) {
      return std::numeric_limits<double>::denorm_min();
    }
    const double units = static_cast<double>(rng.UniformInt(1, 4));
    return style == 0 ? units : units * 0.1;
  };
  for (int p = 0; p < parts; ++p) {
    const int lo = p * per_part;
    const int hi = (p == parts - 1) ? n - 1 : lo + per_part - 1;
    for (int v = lo + 1; v <= hi; ++v) {
      builder.AddEdge(static_cast<NodeId>(rng.UniformInt(lo, v - 1)), v,
                      weight());
    }
    for (int e = 0; e < (hi - lo) / 2; ++e) {
      const NodeId u = static_cast<NodeId>(rng.UniformInt(lo, hi));
      const NodeId v = static_cast<NodeId>(rng.UniformInt(lo, hi));
      if (u != v) builder.AddEdge(u, v, weight());
    }
  }
  return builder.Build();
}

bool SameBits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

class AddMultiSourceTest : public ::testing::TestWithParam<int> {};

// Sources join one at a time through AddMultiSource; after each one the
// labels must equal MultiSourceDijkstra over the same set, bit for bit.
// Each of several addition orders starts either empty or from a
// MultiSourceDijkstra over a prefix (SelectGreedy's pattern), and the
// set holds one node twice, so some addition finds its node at 0.
TEST_P(AddMultiSourceTest, MatchesMultiSourceDijkstraBitForBit) {
  Rng rng(500 + GetParam());
  const int n = 20 + static_cast<int>(rng.UniformInt(0, 80));
  const int parts = 1 + GetParam() % 3;
  const Graph graph = TieHeavyGraph(n, parts, GetParam() % 2, rng);
  std::vector<NodeId> pool;
  for (const int v : rng.SampleWithoutReplacement(
           n, 2 + static_cast<int>(rng.UniformInt(0, n / 4)))) {
    pool.push_back(static_cast<NodeId>(v));
  }
  pool.push_back(pool.front());
  for (int order = 0; order < 4; ++order) {
    rng.Shuffle(pool);
    const size_t start = order == 0 ? 0 : rng.UniformInt(0, pool.size() - 1);
    std::vector<NodeId> sources(pool.begin(), pool.begin() + start);
    std::vector<double> distance =
        start == 0 ? std::vector<double>(n, kInfDistance)
                   : MultiSourceDijkstra(graph, sources).distance;
    for (size_t i = start; i < pool.size(); ++i) {
      AddMultiSource(graph, pool[i], distance);
      sources.push_back(pool[i]);
      ASSERT_TRUE(
          SameBits(distance, MultiSourceDijkstra(graph, sources).distance))
          << "order " << order << ", after adding source " << pool[i]
          << " (" << sources.size() << " sources)";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(RandomSweep, AddMultiSourceTest,
                         ::testing::Range(0, 30));

class IncrementalDijkstraTest : public ::testing::TestWithParam<int> {};

TEST_P(IncrementalDijkstraTest, SettlesAllNodesInSortedOrder) {
  Rng rng(200 + GetParam());
  const int n = 5 + static_cast<int>(rng.UniformInt(0, 60));
  const Graph graph = RandomGraph(n, n / 2, rng);
  const std::vector<double> full = ShortestPathsFrom(graph, 0);

  IncrementalDijkstra inc(&graph, 0);
  double prev = 0.0;
  int count = 0;
  while (true) {
    const double peek = inc.PeekNextDistance();
    const std::optional<SettledNode> s = inc.NextSettled();
    if (!s.has_value()) {
      EXPECT_EQ(peek, kInfDistance);
      break;
    }
    EXPECT_NEAR(peek, s->distance, 1e-12);
    EXPECT_LE(prev, s->distance + 1e-12);
    EXPECT_NEAR(s->distance, full[s->node], 1e-9);
    EXPECT_NEAR(inc.SettledDistance(s->node), s->distance, 1e-12);
    prev = s->distance;
    ++count;
  }
  EXPECT_EQ(count, n);  // RandomGraph is connected
}

INSTANTIATE_TEST_SUITE_P(RandomSweep, IncrementalDijkstraTest,
                         ::testing::Range(0, 20));

// Flat-map kernel equivalence: a fully drained IncrementalDijkstra must
// reproduce ShortestPathsFrom exactly on random clustered graphs
// (including unreachable nodes staying unsettled and the sparse maps
// surviving growth past their initial capacity).
class IncrementalDijkstraClusteredTest : public ::testing::TestWithParam<int> {
};

TEST_P(IncrementalDijkstraClusteredTest, FullyDrainedMatchesShortestPaths) {
  SyntheticNetworkOptions options;
  options.num_nodes = 300 + 40 * GetParam();
  options.alpha = 1.4;
  options.num_clusters = 2 + GetParam() % 5;
  options.seed = 900 + GetParam();
  const Graph graph = GenerateSyntheticNetwork(options);
  Rng rng(300 + GetParam());
  const NodeId source =
      static_cast<NodeId>(rng.UniformInt(0, graph.NumNodes() - 1));
  const std::vector<double> full = ShortestPathsFrom(graph, source);

  IncrementalDijkstra inc(&graph, source);
  std::vector<bool> settled(graph.NumNodes(), false);
  double prev = 0.0;
  while (std::optional<SettledNode> s = inc.NextSettled()) {
    ASSERT_FALSE(settled[s->node]) << "node settled twice: " << s->node;
    settled[s->node] = true;
    EXPECT_LE(prev, s->distance + 1e-12);
    EXPECT_NEAR(s->distance, full[s->node], 1e-9);
    EXPECT_NEAR(inc.SettledDistance(s->node), s->distance, 1e-12);
    prev = s->distance;
  }
  // Exactly the reachable nodes were settled; the rest report infinity.
  for (NodeId v = 0; v < graph.NumNodes(); ++v) {
    EXPECT_EQ(settled[v], full[v] != kInfDistance) << v;
    if (!settled[v]) EXPECT_EQ(inc.SettledDistance(v), kInfDistance);
  }
  EXPECT_EQ(inc.num_settled(),
            static_cast<size_t>(std::count_if(
                full.begin(), full.end(),
                [](double d) { return d != kInfDistance; })));
}

INSTANTIATE_TEST_SUITE_P(RandomClusteredSweep, IncrementalDijkstraClusteredTest,
                         ::testing::Range(0, 10));

TEST(IncrementalDijkstraTest, InterleavedInstancesAreIndependent) {
  Rng rng(5);
  const Graph graph = RandomGraph(40, 40, rng);
  const std::vector<double> from0 = ShortestPathsFrom(graph, 0);
  const std::vector<double> from5 = ShortestPathsFrom(graph, 5);
  IncrementalDijkstra a(&graph, 0);
  IncrementalDijkstra b(&graph, 5);
  for (int step = 0; step < 40; ++step) {
    const auto sa = a.NextSettled();
    const auto sb = b.NextSettled();
    ASSERT_TRUE(sa.has_value());
    ASSERT_TRUE(sb.has_value());
    EXPECT_NEAR(sa->distance, from0[sa->node], 1e-9);
    EXPECT_NEAR(sb->distance, from5[sb->node], 1e-9);
  }
}

}  // namespace
}  // namespace mcfs
