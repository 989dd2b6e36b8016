#include "mcfs/graph/facility_stream.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "mcfs/obs/metrics.h"
#include "tests/test_util.h"

namespace mcfs {
namespace {

using testing_util::RandomGraph;

class FacilityStreamTest : public ::testing::TestWithParam<int> {};

TEST_P(FacilityStreamTest, StreamsFacilitiesInSortedDistanceOrder) {
  Rng rng(800 + GetParam());
  const int n = 10 + static_cast<int>(rng.UniformInt(0, 60));
  const Graph graph = RandomGraph(n, n, rng);
  const int l = 1 + static_cast<int>(rng.UniformInt(0, n / 2));
  std::vector<int> facility_index_of_node(n, -1);
  const std::vector<int> facility_nodes =
      rng.SampleWithoutReplacement(n, l);
  for (int j = 0; j < l; ++j) {
    facility_index_of_node[facility_nodes[j]] = j;
  }
  const NodeId customer = static_cast<NodeId>(rng.UniformInt(0, n - 1));
  const std::vector<double> dist = ShortestPathsFrom(graph, customer);

  // Oracle: facilities sorted by true distance.
  std::vector<double> expected;
  for (const int node : facility_nodes) {
    if (dist[node] != kInfDistance) expected.push_back(dist[node]);
  }
  std::sort(expected.begin(), expected.end());

  NearestFacilityStream stream(&graph, customer, &facility_index_of_node);
  std::set<int> seen;
  for (const double want : expected) {
    EXPECT_NEAR(stream.PeekDistance(), want, 1e-9);
    const auto got = stream.Pop();
    ASSERT_TRUE(got.has_value());
    EXPECT_NEAR(got->distance, want, 1e-9);
    EXPECT_NEAR(dist[facility_nodes[got->facility]], got->distance, 1e-9);
    EXPECT_TRUE(seen.insert(got->facility).second) << "duplicate facility";
  }
  EXPECT_TRUE(stream.Exhausted());
  EXPECT_FALSE(stream.Pop().has_value());
  EXPECT_EQ(stream.num_popped(), static_cast<int>(expected.size()));
}

INSTANTIATE_TEST_SUITE_P(RandomSweep, FacilityStreamTest,
                         ::testing::Range(0, 25));

TEST(FacilityStreamTest, PeekDoesNotConsume) {
  GraphBuilder builder(3);
  builder.AddEdge(0, 1, 1.0);
  builder.AddEdge(1, 2, 1.0);
  const Graph graph = builder.Build();
  std::vector<int> facility_index_of_node = {-1, 0, 1};
  NearestFacilityStream stream(&graph, 0, &facility_index_of_node);
  EXPECT_DOUBLE_EQ(stream.PeekDistance(), 1.0);
  EXPECT_DOUBLE_EQ(stream.PeekDistance(), 1.0);
  EXPECT_EQ(stream.Pop()->facility, 0);
  EXPECT_DOUBLE_EQ(stream.PeekDistance(), 2.0);
}

TEST(FacilityStreamTest, CustomerOnFacilityNodeYieldsZeroDistance) {
  GraphBuilder builder(2);
  builder.AddEdge(0, 1, 5.0);
  const Graph graph = builder.Build();
  std::vector<int> facility_index_of_node = {0, 1};
  NearestFacilityStream stream(&graph, 0, &facility_index_of_node);
  const auto first = stream.Pop();
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->facility, 0);
  EXPECT_DOUBLE_EQ(first->distance, 0.0);
}

// --- Narrowing (NearestFacilityStream::Narrow) ---

// Random graph of `parts` components with small integer weights, so
// equal-distance ties are common.
Graph TieHeavyGraph(int n, int parts, Rng& rng) {
  GraphBuilder builder(n);
  const int per_part = n / parts;
  for (int p = 0; p < parts; ++p) {
    const int lo = p * per_part;
    const int hi = p == parts - 1 ? n - 1 : lo + per_part - 1;
    for (int v = lo + 1; v <= hi; ++v) {
      builder.AddEdge(static_cast<NodeId>(rng.UniformInt(lo, v - 1)), v,
                      static_cast<double>(rng.UniformInt(1, 3)));
    }
    for (int e = 0; e < (hi - lo) / 2; ++e) {
      const NodeId u = static_cast<NodeId>(rng.UniformInt(lo, hi));
      const NodeId v = static_cast<NodeId>(rng.UniformInt(lo, hi));
      if (u != v) {
        builder.AddEdge(u, v, static_cast<double>(rng.UniformInt(1, 3)));
      }
    }
  }
  return builder.Build();
}

// One observable step of a stream: the peeked distance, then the pop.
struct StreamStep {
  uint64_t peek_bits = 0;
  bool popped = false;
  int facility = -1;
  uint64_t distance_bits = 0;

  bool operator==(const StreamStep&) const = default;
};

// Peeks and pops until the stream is exhausted, recording every step
// (the last one is the exhausted peek and the empty pop).
std::vector<StreamStep> Drain(NearestFacilityStream& stream) {
  std::vector<StreamStep> steps;
  while (true) {
    StreamStep step;
    step.peek_bits = std::bit_cast<uint64_t>(stream.PeekDistance());
    const std::optional<FacilityAtDistance> next = stream.Pop();
    if (next.has_value()) {
      step.popped = true;
      step.facility = next->facility;
      step.distance_bits = std::bit_cast<uint64_t>(next->distance);
    }
    steps.push_back(step);
    if (!next.has_value()) return steps;
  }
}

// A superset facility map, a random subset of it under a shuffled
// indexing, and the superset -> subset index translation.
struct NarrowFixture {
  Graph graph;
  NodeId customer = 0;
  std::vector<int> super_map;
  std::vector<int> sub_map;
  std::vector<int> reindex;  // superset index -> subset index or -1

  NarrowFixture(uint64_t seed, bool empty_subset) {
    Rng rng(seed);
    const int n = 12 + static_cast<int>(rng.UniformInt(0, 40));
    const int parts = 1 + static_cast<int>(rng.UniformInt(0, 2));
    graph = TieHeavyGraph(n, parts, rng);
    customer = static_cast<NodeId>(rng.UniformInt(0, n - 1));
    const int l = 1 + static_cast<int>(rng.UniformInt(0, n - 1));
    const std::vector<int> nodes = rng.SampleWithoutReplacement(n, l);
    super_map.assign(n, -1);
    sub_map.assign(n, -1);
    reindex.assign(l, -1);
    std::vector<int> members;
    for (int j = 0; j < l; ++j) {
      super_map[nodes[j]] = j;
      if (!empty_subset && rng.UniformInt(0, 2) != 0) members.push_back(j);
    }
    rng.Shuffle(members);
    for (size_t s = 0; s < members.size(); ++s) {
      sub_map[nodes[members[s]]] = static_cast<int>(s);
      reindex[members[s]] = static_cast<int>(s);
    }
  }

  // The narrowing prefix: `consumed` then the stream's unpopped buffer,
  // translated to subset indices.
  std::vector<FacilityAtDistance> Prefix(
      const std::vector<FacilityAtDistance>& consumed,
      const NearestFacilityStream& stream) const {
    std::vector<FacilityAtDistance> prefix;
    for (const FacilityAtDistance& entry : consumed) {
      prefix.push_back({reindex[entry.facility], entry.distance});
    }
    for (const FacilityAtDistance& entry : stream.BufferedEntries()) {
      prefix.push_back({reindex[entry.facility], entry.distance});
    }
    return prefix;
  }
};

std::vector<FacilityAtDistance> FullSequence(const Graph& graph,
                                             NodeId customer,
                                             const std::vector<int>& map) {
  NearestFacilityStream stream(&graph, customer, &map);
  std::vector<FacilityAtDistance> sequence;
  while (std::optional<FacilityAtDistance> next = stream.Pop()) {
    sequence.push_back(*next);
  }
  return sequence;
}

class FacilityStreamNarrowTest : public ::testing::TestWithParam<int> {};

// Pausing a superset stream after every pop count, narrowing it and
// draining it reproduces a fresh subset stream step for step: the same
// facilities, the same distance bits, the same peeks.
TEST_P(FacilityStreamNarrowTest, NarrowedStreamEqualsAFreshSubsetStream) {
  for (const bool empty_subset : {false, true}) {
    SCOPED_TRACE(empty_subset ? "empty subset" : "random subset");
    const NarrowFixture f(900 + GetParam(), empty_subset);
    NearestFacilityStream fresh(&f.graph, f.customer, &f.sub_map);
    const std::vector<StreamStep> expected = Drain(fresh);
    const int total = static_cast<int>(
        FullSequence(f.graph, f.customer, f.super_map).size());
    for (int pause = 0; pause <= total + 1; ++pause) {
      SCOPED_TRACE("pause=" + std::to_string(pause));
      NearestFacilityStream stream(&f.graph, f.customer, &f.super_map);
      std::vector<FacilityAtDistance> consumed;
      for (int p = 0; p < pause; ++p) {
        // An occasional peek leaves a discovered, unpopped entry behind.
        if (p % 2 == 1) stream.PeekDistance();
        if (std::optional<FacilityAtDistance> next = stream.Pop()) {
          consumed.push_back(*next);
        }
      }
      if (pause % 3 == 2) stream.PeekDistance();
      stream.Narrow(&f.sub_map, f.Prefix(consumed, stream));
      EXPECT_EQ(Drain(stream), expected);
    }
  }
}

// The same for seeded streams (the warm-start trajectory replay): a seed
// of q consumed and b buffered discoveries, paused after every pop
// count: while the seed is still being served (the Dijkstra has not
// started and its fast-forward over the q + b entries is pending) and
// after the Dijkstra has fast-forwarded past them.
TEST_P(FacilityStreamNarrowTest, NarrowedSeededStreamEqualsAFreshSubsetStream) {
  const NarrowFixture f(1900 + GetParam(), /*empty_subset=*/false);
  NearestFacilityStream fresh(&f.graph, f.customer, &f.sub_map);
  const std::vector<StreamStep> expected = Drain(fresh);
  const std::vector<FacilityAtDistance> full =
      FullSequence(f.graph, f.customer, f.super_map);
  const int total = static_cast<int>(full.size());
  // Seed shapes: q consumed and b buffered discoveries, from empty to
  // the whole sequence.
  std::set<std::pair<int, int>> shapes;
  for (const int q : {0, 1, total / 3, total}) {
    for (const int b : {0, 1, (total - q) / 2, total - q}) {
      if (q <= total && b >= 0 && q + b <= total) shapes.insert({q, b});
    }
  }
  for (const auto& [q, b] : shapes) {
    for (int pause = 0; pause <= total - q + 1; ++pause) {
      SCOPED_TRACE("q=" + std::to_string(q) + " b=" + std::to_string(b) +
                   " pause=" + std::to_string(pause));
      StreamSeed seed;
      seed.skip_discoveries = q;
      seed.buffered.assign(full.begin() + q, full.begin() + q + b);
      seed.exhausted = q + b == total;
      if (q + b < total) {
        seed.has_next = true;
        seed.next_distance = full[q + b].distance;
      }
      NearestFacilityStream stream(&f.graph, f.customer, &f.super_map,
                                   seed);
      std::vector<FacilityAtDistance> consumed(full.begin(),
                                               full.begin() + q);
      for (int p = 0; p < pause; ++p) {
        if (std::optional<FacilityAtDistance> next = stream.Pop()) {
          consumed.push_back(*next);
        }
      }
      stream.Narrow(&f.sub_map, f.Prefix(consumed, stream));
      EXPECT_EQ(Drain(stream), expected);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(RandomSweep, FacilityStreamNarrowTest,
                         ::testing::Range(0, 30));

// Re-served entries were paid for before narrowing: popping them
// charges no logical Dijkstra work, and the first new discovery charges
// only the settles past the narrowing point.
TEST(FacilityStreamTest, NarrowedPrefixChargesNoLogicalWork) {
  // Path 0 - 1 - 2 - 3 - 4, facilities on 1..4; the subset keeps 2 and 4.
  GraphBuilder builder(5);
  for (int v = 1; v < 5; ++v) builder.AddEdge(v - 1, v, 1.0);
  const Graph graph = builder.Build();
  const std::vector<int> super_map = {-1, 0, 1, 2, 3};
  const std::vector<int> sub_map = {-1, -1, 0, -1, 1};
  obs::EnableMetrics(true);
  obs::ResetMetrics();
  NearestFacilityStream stream(&graph, 0, &super_map);
  ASSERT_TRUE(stream.Pop().has_value());
  // The peek settles node 2 and buffers it unpopped: work done before
  // narrowing that no pop has been charged for.
  EXPECT_DOUBLE_EQ(stream.PeekDistance(), 2.0);
  stream.Narrow(&sub_map, {{-1, 1.0}, {0, 2.0}});
  const int64_t settled_before =
      obs::SnapshotMetrics().counters.at("stream/nodes_settled");
  const std::optional<FacilityAtDistance> reserved = stream.Pop();
  ASSERT_TRUE(reserved.has_value());
  EXPECT_EQ(reserved->facility, 0);
  EXPECT_EQ(obs::SnapshotMetrics().counters.at("stream/nodes_settled"),
            settled_before);
  const std::optional<FacilityAtDistance> discovered = stream.Pop();
  ASSERT_TRUE(discovered.has_value());
  EXPECT_EQ(discovered->facility, 1);
  EXPECT_DOUBLE_EQ(discovered->distance, 4.0);
  // Nodes 3 and 4 are the settles past the narrowing point.
  EXPECT_EQ(obs::SnapshotMetrics().counters.at("stream/nodes_settled"),
            settled_before + 2);
  obs::EnableMetrics(false);
  obs::ResetMetrics();
}

}  // namespace
}  // namespace mcfs
