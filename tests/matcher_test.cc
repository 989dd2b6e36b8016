#include "mcfs/flow/matcher.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <set>
#include <utility>

#include "mcfs/flow/transport.h"
#include "tests/test_util.h"

namespace mcfs {
namespace {

using testing_util::DistanceMatrix;
using testing_util::MakeRandomInstance;
using testing_util::RandomInstance;

TEST(IncrementalMatcherTest, SingleCustomerPicksNearestFacility) {
  // Path graph 0-1-2-3 with unit weights; customer at 0, facilities at
  // 1 and 3.
  GraphBuilder builder(4);
  builder.AddEdge(0, 1, 1.0);
  builder.AddEdge(1, 2, 1.0);
  builder.AddEdge(2, 3, 1.0);
  const Graph graph = builder.Build();
  IncrementalMatcher matcher(&graph, {0}, {1, 3}, {1, 1});
  ASSERT_TRUE(matcher.FindPair(0));
  EXPECT_EQ(matcher.AssignedCount(0), 1);
  EXPECT_EQ(matcher.AssignedCount(1), 0);
  EXPECT_DOUBLE_EQ(matcher.TotalCost(), 1.0);
}

TEST(IncrementalMatcherTest, RewiresWhenCapacityForcesIt) {
  // Paper's Figure 3 flavor: two customers compete for a close facility
  // with capacity 1; optimal matching rewires the first customer.
  //   c0 --1-- f0 --1-- c1 --10-- f1
  // f0 capacity 1. c1's nearest is f0 (1); c0's nearest is f0 (1).
  // Optimal: one of them takes f0, other goes to f1. c0->f1 costs 12,
  // c1->f1 costs 10, c0->f0 costs 1 => cost 11.
  GraphBuilder builder(4);
  builder.AddEdge(0, 1, 1.0);   // c0 - f0
  builder.AddEdge(1, 2, 1.0);   // f0 - c1
  builder.AddEdge(2, 3, 10.0);  // c1 - f1
  const Graph graph = builder.Build();
  IncrementalMatcher matcher(&graph, {0, 2}, {1, 3}, {1, 1});
  ASSERT_TRUE(matcher.FindPair(1));  // c1 grabs f0 first
  ASSERT_TRUE(matcher.FindPair(0));  // forces the rewire
  EXPECT_NEAR(matcher.TotalCost(), 11.0, 1e-9);
  EXPECT_EQ(matcher.AssignedCount(0), 1);
  EXPECT_EQ(matcher.AssignedCount(1), 1);
}

TEST(IncrementalMatcherTest, ReportsFailureWhenSaturated) {
  GraphBuilder builder(3);
  builder.AddEdge(0, 1, 1.0);
  builder.AddEdge(1, 2, 1.0);
  const Graph graph = builder.Build();
  IncrementalMatcher matcher(&graph, {0, 2}, {1}, {1});
  EXPECT_TRUE(matcher.FindPair(0));
  EXPECT_FALSE(matcher.FindPair(1));  // capacity 1 exhausted
  EXPECT_EQ(matcher.CustomerMatchCount(1), 0);
}

TEST(IncrementalMatcherTest, DisconnectedCustomerFails) {
  GraphBuilder builder(4);
  builder.AddEdge(0, 1, 1.0);
  builder.AddEdge(2, 3, 1.0);
  const Graph graph = builder.Build();
  IncrementalMatcher matcher(&graph, {0, 2}, {1}, {5});
  EXPECT_TRUE(matcher.FindPair(0));
  EXPECT_FALSE(matcher.FindPair(1));  // node 2 cannot reach facility
}

TEST(IncrementalMatcherTest, MatchedPairsAndSigmaAgree) {
  Rng rng(7);
  RandomInstance ri = MakeRandomInstance(40, 12, 8, 4, 4, rng);
  IncrementalMatcher matcher(ri.instance.graph, ri.instance.customers,
                             ri.instance.facility_nodes,
                             ri.instance.capacities);
  matcher.MatchAllOnce();
  const std::vector<MatchedPair> pairs = matcher.MatchedPairs();
  int sigma_total = 0;
  for (int j = 0; j < matcher.num_facilities(); ++j) {
    const std::vector<int> customers = matcher.CustomersOf(j);
    sigma_total += static_cast<int>(customers.size());
    EXPECT_EQ(static_cast<int>(customers.size()), matcher.AssignedCount(j));
    EXPECT_LE(matcher.AssignedCount(j), matcher.Capacity(j));
  }
  EXPECT_EQ(sigma_total, static_cast<int>(pairs.size()));
}

// Property sweep: the lazily pruned incremental matching must equal the
// dense successive-shortest-path oracle, which in turn is checked
// against brute force elsewhere. Exercises Theorem 1's threshold.
class MatcherOptimalityTest : public ::testing::TestWithParam<int> {};

TEST_P(MatcherOptimalityTest, MatchesDenseOracleCost) {
  Rng rng(1000 + GetParam());
  const int n = 10 + static_cast<int>(rng.UniformInt(0, 50));
  const int m = 2 + static_cast<int>(rng.UniformInt(0, 10));
  const int l = 2 + static_cast<int>(rng.UniformInt(0, 8));
  const int max_capacity = 1 + static_cast<int>(rng.UniformInt(0, 3));
  RandomInstance ri = MakeRandomInstance(n, m, l, /*k=*/l, max_capacity, rng);

  IncrementalMatcher matcher(ri.instance.graph, ri.instance.customers,
                             ri.instance.facility_nodes,
                             ri.instance.capacities);
  const bool matched_all = matcher.MatchAllOnce();

  const std::vector<double> cost = DistanceMatrix(ri.instance);
  const std::optional<TransportResult> oracle = SolveDenseTransport(
      ri.instance.m(), ri.instance.l(), cost, ri.instance.capacities);

  int64_t total_capacity = 0;
  for (const int c : ri.instance.capacities) total_capacity += c;
  if (!oracle.has_value()) {
    EXPECT_FALSE(matched_all);
    return;
  }
  ASSERT_TRUE(matched_all)
      << "oracle assigned everyone but the incremental matcher failed";
  EXPECT_NEAR(matcher.TotalCost(), oracle->cost,
              1e-6 * (1.0 + oracle->cost));
}

INSTANTIATE_TEST_SUITE_P(RandomSweep, MatcherOptimalityTest,
                         ::testing::Range(0, 60));

// Growing demands with interleaved customers must still be optimal for
// the induced demand vector: compare against the dense oracle on a
// customer list where each customer appears d_i times.
class MatcherDemandOptimalityTest : public ::testing::TestWithParam<int> {};

TEST_P(MatcherDemandOptimalityTest, MultiDemandMatchesOracle) {
  Rng rng(5000 + GetParam());
  const int n = 15 + static_cast<int>(rng.UniformInt(0, 40));
  const int m = 2 + static_cast<int>(rng.UniformInt(0, 5));
  const int l = 3 + static_cast<int>(rng.UniformInt(0, 6));
  RandomInstance ri = MakeRandomInstance(n, m, l, l, 3, rng);

  std::vector<int> demand(m);
  for (int i = 0; i < m; ++i) {
    demand[i] = 1 + static_cast<int>(rng.UniformInt(0, 2));
  }

  IncrementalMatcher matcher(ri.instance.graph, ri.instance.customers,
                             ri.instance.facility_nodes,
                             ri.instance.capacities);
  // Satisfy demands in a round-robin interleaving (as WMA iterations do).
  bool all_ok = true;
  for (int round = 0; round < 3; ++round) {
    for (int i = 0; i < m; ++i) {
      if (matcher.CustomerMatchCount(i) < demand[i] &&
          round < demand[i]) {
        if (!matcher.FindPair(i)) all_ok = false;
      }
    }
  }

  // Oracle: replicate customer i demand[i] times; forbid assigning two
  // replicas of the same customer to the same facility by brute force
  // enumeration on the expanded instance — the incremental matcher
  // never duplicates (customer, facility) pairs, so costs coincide when
  // duplication would not help. Skip cases where the oracle uses a
  // duplicate pair (possible when it is beneficial, which the expanded
  // dense model cannot express identically).
  std::vector<int> expanded_owner;
  std::vector<double> expanded_cost;
  const std::vector<double> cost = DistanceMatrix(ri.instance);
  for (int i = 0; i < m; ++i) {
    for (int r = 0; r < demand[i]; ++r) expanded_owner.push_back(i);
  }
  const int em = static_cast<int>(expanded_owner.size());
  expanded_cost.resize(static_cast<size_t>(em) * l);
  for (int e = 0; e < em; ++e) {
    for (int j = 0; j < l; ++j) {
      expanded_cost[static_cast<size_t>(e) * l + j] =
          cost[static_cast<size_t>(expanded_owner[e]) * l + j];
    }
  }
  const std::optional<TransportResult> oracle =
      SolveDenseTransport(em, l, expanded_cost, ri.instance.capacities);
  if (!oracle.has_value()) {
    EXPECT_FALSE(all_ok);
    return;
  }
  // Check the oracle for duplicate (customer, facility) pairs.
  std::set<std::pair<int, int>> seen;
  bool oracle_duplicates = false;
  for (int e = 0; e < em; ++e) {
    if (!seen.insert({expanded_owner[e], oracle->assignment[e]}).second) {
      oracle_duplicates = true;
    }
  }
  if (oracle_duplicates || !all_ok) return;  // models diverge; skip
  EXPECT_NEAR(matcher.TotalCost(), oracle->cost,
              1e-6 * (1.0 + oracle->cost));
}

INSTANTIATE_TEST_SUITE_P(RandomSweep, MatcherDemandOptimalityTest,
                         ::testing::Range(0, 40));

// sigma_j and matched costs rebuilt from every matched pair, the way the
// WMA loop built them before it synced only the changed facilities.
void RebuildFromPairs(const IncrementalMatcher& matcher,
                      std::vector<std::vector<int>>* sigma,
                      std::vector<double>* cost) {
  sigma->assign(matcher.num_facilities(), {});
  cost->assign(matcher.num_facilities(), 0.0);
  for (const MatchedPair& pair : matcher.MatchedPairs()) {
    (*sigma)[pair.facility].push_back(pair.customer);
    (*cost)[pair.facility] += pair.distance;
  }
}

// Syncs the running views from the matcher's changed list and checks
// them, bit for bit, against a full rebuild. Returns the number of
// facilities the sync touched.
size_t SyncAndCompare(IncrementalMatcher& matcher,
                      std::vector<std::vector<int>>* sigma,
                      std::vector<double>* cost) {
  std::vector<int> changed;
  matcher.SyncChangedFacilities(sigma, cost, &changed);
  std::vector<std::vector<int>> rebuilt_sigma;
  std::vector<double> rebuilt_cost;
  RebuildFromPairs(matcher, &rebuilt_sigma, &rebuilt_cost);
  EXPECT_EQ(*sigma, rebuilt_sigma);
  for (int j = 0; j < matcher.num_facilities(); ++j) {
    EXPECT_EQ(std::bit_cast<uint64_t>((*cost)[j]),
              std::bit_cast<uint64_t>(rebuilt_cost[j]))
        << "facility " << j << ": " << (*cost)[j] << " vs "
        << rebuilt_cost[j];
  }
  return changed.size();
}

// The changed-facility sync must equal a full rebuild after every
// FindPair, including the augmentations that unmatch (rewire) earlier
// pairs — their swap-removal reorders a facility's match list, which the
// sync's sort by customer undoes. Capacities are tight, so demand growth
// forces rewirings.
class MatcherChangedSyncTest : public ::testing::TestWithParam<int> {};

TEST_P(MatcherChangedSyncTest, SyncEqualsRebuildAfterEveryFindPair) {
  Rng rng(7000 + GetParam());
  const int m = 24;
  const int l = 10;
  RandomInstance ri = MakeRandomInstance(60, m, l, l, 3, rng);
  IncrementalMatcher matcher(ri.instance.graph, ri.instance.customers,
                             ri.instance.facility_nodes,
                             ri.instance.capacities);
  std::vector<std::vector<int>> sigma(l);
  std::vector<double> cost(l, 0.0);
  std::vector<uint8_t> saturated(m, 0);
  for (int demand = 1; demand <= 3; ++demand) {
    for (int i = 0; i < m; ++i) {
      while (!saturated[i] && matcher.CustomerMatchCount(i) < demand) {
        if (!matcher.FindPair(i)) saturated[i] = 1;
        SyncAndCompare(matcher, &sigma, &cost);
      }
    }
  }
  EXPECT_GT(matcher.num_rewirings(), 0);
  // Nothing changed since the last sync: the next one touches nothing.
  EXPECT_EQ(SyncAndCompare(matcher, &sigma, &cost), 0u);
}

// A matcher resumed from a seed under lower capacities and with some
// customers' matches refused drops matches inside ResumeFrom; the sync
// must report the adopted and dropped facilities alike.
TEST_P(MatcherChangedSyncTest, SyncEqualsRebuildAfterResumeWithDrops) {
  Rng rng(7100 + GetParam());
  const int m = 24;
  const int l = 10;
  RandomInstance ri = MakeRandomInstance(60, m, l, l, 4, rng);
  IncrementalMatcher donor(ri.instance.graph, ri.instance.customers,
                           ri.instance.facility_nodes,
                           ri.instance.capacities);
  for (int demand = 1; demand <= 2; ++demand) {
    for (int i = 0; i < m; ++i) {
      if (donor.CustomerMatchCount(i) < demand) donor.FindPair(i);
    }
  }
  const WarmSeed seed = donor.ExportWarmSeed();

  std::vector<int> lower_caps = ri.instance.capacities;
  for (int& capacity : lower_caps) capacity = std::max(0, capacity - 1);
  IncrementalMatcher matcher(ri.instance.graph, ri.instance.customers,
                             ri.instance.facility_nodes, lower_caps);
  std::vector<int> seed_of(m);
  std::vector<uint8_t> adopt_match(m, 1);
  for (int i = 0; i < m; ++i) {
    seed_of[i] = i;
    if (i % 5 == 0) adopt_match[i] = 0;
  }
  const IncrementalMatcher::ResumeStats stats =
      matcher.ResumeFrom(seed, seed_of, adopt_match);
  ASSERT_GT(stats.matches_dropped, 0);

  std::vector<std::vector<int>> sigma(l);
  std::vector<double> cost(l, 0.0);
  const size_t changed = SyncAndCompare(matcher, &sigma, &cost);
  size_t holding = 0;
  for (const std::vector<int>& customers : sigma) {
    holding += customers.empty() ? 0 : 1;
  }
  EXPECT_GE(changed, holding);
  std::vector<uint8_t> saturated(m, 0);
  for (int demand = 1; demand <= 3; ++demand) {
    for (int i = 0; i < m; ++i) {
      while (!saturated[i] && matcher.CustomerMatchCount(i) < demand) {
        if (!matcher.FindPair(i)) saturated[i] = 1;
        SyncAndCompare(matcher, &sigma, &cost);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(RandomSweep, MatcherChangedSyncTest,
                         ::testing::Range(0, 8));

}  // namespace
}  // namespace mcfs
