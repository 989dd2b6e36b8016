// Edge cases and failure-injection tests across the public API surface:
// degenerate instance shapes, zero capacities, saturation, and heavy
// contention — the situations a production deployment hits first.

#include <gtest/gtest.h>

#include "mcfs/baselines/greedy_kmedian.h"
#include "mcfs/core/verifier.h"
#include "mcfs/core/wma.h"
#include "mcfs/exact/bb_solver.h"
#include "mcfs/flow/matcher.h"
#include "tests/test_util.h"

namespace mcfs {
namespace {

using testing_util::MakeRandomInstance;
using testing_util::RandomInstance;

TEST(EdgeCaseTest, SingleCustomerSingleFacility) {
  GraphBuilder builder(2);
  builder.AddEdge(0, 1, 3.5);
  const Graph graph = builder.Build();
  McfsInstance instance;
  instance.graph = &graph;
  instance.customers = {0};
  instance.facility_nodes = {1};
  instance.capacities = {1};
  instance.k = 1;
  const WmaResult result = RunWma(instance);
  ASSERT_TRUE(result.solution.feasible);
  EXPECT_DOUBLE_EQ(result.solution.objective, 3.5);
  EXPECT_EQ(result.solution.assignment, (std::vector<int>{0}));
}

TEST(EdgeCaseTest, CustomerOnFacilityNodeCostsZero) {
  GraphBuilder builder(2);
  builder.AddEdge(0, 1, 9.0);
  const Graph graph = builder.Build();
  McfsInstance instance;
  instance.graph = &graph;
  instance.customers = {1};
  instance.facility_nodes = {1};
  instance.capacities = {1};
  instance.k = 1;
  const WmaResult result = RunWma(instance);
  ASSERT_TRUE(result.solution.feasible);
  EXPECT_DOUBLE_EQ(result.solution.objective, 0.0);
}

TEST(EdgeCaseTest, ZeroCapacityFacilitiesAreNeverUsed) {
  GraphBuilder builder(4);
  builder.AddEdge(0, 1, 1.0);  // nearest facility has capacity 0
  builder.AddEdge(0, 2, 2.0);
  builder.AddEdge(2, 3, 2.0);
  const Graph graph = builder.Build();
  McfsInstance instance;
  instance.graph = &graph;
  instance.customers = {0};
  instance.facility_nodes = {1, 3};
  instance.capacities = {0, 1};
  instance.k = 2;
  const WmaResult result = RunWma(instance);
  ASSERT_TRUE(result.solution.feasible);
  EXPECT_EQ(result.solution.assignment[0], 1);
  EXPECT_DOUBLE_EQ(result.solution.objective, 4.0);
}

TEST(EdgeCaseTest, AllCapacitiesZeroIsInfeasible) {
  GraphBuilder builder(2);
  builder.AddEdge(0, 1, 1.0);
  const Graph graph = builder.Build();
  McfsInstance instance;
  instance.graph = &graph;
  instance.customers = {0};
  instance.facility_nodes = {1};
  instance.capacities = {0};
  instance.k = 1;
  EXPECT_FALSE(IsFeasible(instance));
  const WmaResult result = RunWma(instance);
  EXPECT_FALSE(result.solution.feasible);
  EXPECT_TRUE(VerifySolution(instance, result.solution).ok);
}

TEST(EdgeCaseTest, TightOccupancyExactlyOne) {
  // o = 1: every capacity slot must be used; the matcher must thread
  // customers into the exact feasible packing.
  GraphBuilder builder(6);
  for (int v = 0; v + 1 < 6; ++v) builder.AddEdge(v, v + 1, 1.0);
  const Graph graph = builder.Build();
  McfsInstance instance;
  instance.graph = &graph;
  instance.customers = {0, 1, 4, 5};
  instance.facility_nodes = {2, 3};
  instance.capacities = {2, 2};
  instance.k = 2;
  EXPECT_DOUBLE_EQ(instance.Occupancy(), 1.0);
  const WmaResult result = RunWma(instance);
  ASSERT_TRUE(result.solution.feasible);
  EXPECT_TRUE(VerifySolution(instance, result.solution).ok);
  // Optimal: {0,1}->f0 (2+1), {4,5}->f1 (1+2) = 6.
  EXPECT_NEAR(result.solution.objective, 6.0, 1e-9);
}

TEST(EdgeCaseTest, HeavyContentionSingleHub) {
  // Star network: 30 customers on leaves, facilities on 3 inner nodes
  // with exact total capacity; forces extensive rewiring.
  GraphBuilder builder(34);
  for (int leaf = 0; leaf < 30; ++leaf) {
    builder.AddEdge(33, leaf, 1.0 + leaf * 0.01);
  }
  builder.AddEdge(33, 30, 1.0);
  builder.AddEdge(33, 31, 2.0);
  builder.AddEdge(33, 32, 3.0);
  const Graph graph = builder.Build();
  McfsInstance instance;
  instance.graph = &graph;
  for (int leaf = 0; leaf < 30; ++leaf) instance.customers.push_back(leaf);
  instance.facility_nodes = {30, 31, 32};
  instance.capacities = {10, 10, 10};
  instance.k = 3;
  const WmaResult result = RunWma(instance);
  ASSERT_TRUE(result.solution.feasible);
  EXPECT_TRUE(VerifySolution(instance, result.solution).ok);
  // Exact reference agrees.
  const ExactResult exact = SolveByEnumeration(instance);
  EXPECT_NEAR(result.solution.objective, exact.solution.objective, 1e-6);
}

TEST(EdgeCaseTest, KEqualsOneSelectsBestSingleFacility) {
  Rng rng(55);
  for (int trial = 0; trial < 5; ++trial) {
    RandomInstance ri = MakeRandomInstance(40, 6, 5, 1, 10, rng);
    if (!IsFeasible(ri.instance)) continue;
    const WmaResult wma = RunWma(ri.instance);
    const ExactResult exact = SolveByEnumeration(ri.instance);
    ASSERT_TRUE(wma.solution.feasible);
    // With k=1 and l<=5 candidates, WMA should be near the optimum.
    EXPECT_LE(wma.solution.objective,
              exact.solution.objective * 2.0 + 1e-9);
  }
}

TEST(EdgeCaseTest, MatcherRejectsDuplicateFacilityNodes) {
  GraphBuilder builder(2);
  builder.AddEdge(0, 1, 1.0);
  const Graph graph = builder.Build();
  EXPECT_DEATH(IncrementalMatcher(&graph, {0}, {1, 1}, {1, 1}),
               "two candidate facilities");
}

TEST(EdgeCaseTest, GreedyKMedianDisconnectedComponents) {
  GraphBuilder builder(6);
  builder.AddEdge(0, 1, 1.0);
  builder.AddEdge(2, 3, 1.0);
  builder.AddEdge(4, 5, 1.0);
  const Graph graph = builder.Build();
  McfsInstance instance;
  instance.graph = &graph;
  instance.customers = {0, 2, 4};
  instance.facility_nodes = {1, 3, 5};
  instance.capacities = {1, 1, 1};
  instance.k = 3;
  const McfsSolution solution = RunGreedyKMedian(instance);
  ASSERT_TRUE(solution.feasible);
  EXPECT_NEAR(solution.objective, 3.0, 1e-9);
}

TEST(EdgeCaseTest, LargeDemandsSaturateGracefully) {
  // More exploration demand than total capacity: WMA must terminate via
  // saturation, not loop.
  GraphBuilder builder(5);
  for (int v = 0; v + 1 < 5; ++v) builder.AddEdge(v, v + 1, 1.0);
  const Graph graph = builder.Build();
  McfsInstance instance;
  instance.graph = &graph;
  instance.customers = {0, 1, 2, 3};
  instance.facility_nodes = {4};
  instance.capacities = {4};
  instance.k = 1;
  const WmaResult result = RunWma(instance);
  EXPECT_TRUE(result.solution.feasible);
  EXPECT_LE(result.stats.iterations, 10);
}

}  // namespace
}  // namespace mcfs
