#include "mcfs/core/instance.h"

#include <gtest/gtest.h>

#include "mcfs/core/verifier.h"
#include "mcfs/flow/transport.h"
#include "tests/test_util.h"

namespace mcfs {
namespace {

using testing_util::MakeRandomInstance;
using testing_util::RandomInstance;

TEST(IsFeasibleTest, DetectsCapacityAndBudgetLimits) {
  GraphBuilder builder(4);
  builder.AddEdge(0, 1, 1.0);
  builder.AddEdge(2, 3, 1.0);
  const Graph graph = builder.Build();
  McfsInstance instance;
  instance.graph = &graph;
  instance.customers = {0, 2};
  instance.facility_nodes = {1, 3};
  instance.capacities = {1, 1};
  instance.k = 2;
  EXPECT_TRUE(IsFeasible(instance));
  instance.k = 1;  // two components need two facilities
  EXPECT_FALSE(IsFeasible(instance));
  instance.k = 2;
  instance.capacities = {0, 1};  // component A cannot be served
  EXPECT_FALSE(IsFeasible(instance));
}

TEST(IsFeasibleTest, BudgetAcrossComponents) {
  GraphBuilder builder(6);
  builder.AddEdge(0, 1, 1.0);
  builder.AddEdge(2, 3, 1.0);
  builder.AddEdge(4, 5, 1.0);
  const Graph graph = builder.Build();
  McfsInstance instance;
  instance.graph = &graph;
  instance.customers = {0, 2, 4};
  instance.facility_nodes = {1, 3, 5};
  instance.capacities = {5, 5, 5};
  instance.k = 3;
  EXPECT_TRUE(IsFeasible(instance));
  instance.k = 2;
  EXPECT_FALSE(IsFeasible(instance));
}

TEST(OccupancyTest, MatchesPaperDefinition) {
  GraphBuilder builder(2);
  builder.AddEdge(0, 1, 1.0);
  const Graph graph = builder.Build();
  McfsInstance instance;
  instance.graph = &graph;
  instance.customers = std::vector<NodeId>(10, 0);
  instance.facility_nodes = {1};
  instance.capacities = {20};
  instance.k = 1;
  EXPECT_DOUBLE_EQ(instance.Occupancy(), 0.5);  // o = m / (c*k)
}

TEST(AssignOptimallyTest, MatchesOracleOnRandomInstances) {
  Rng rng(41);
  for (int trial = 0; trial < 10; ++trial) {
    RandomInstance ri = MakeRandomInstance(40, 8, 6, 3, 4, rng);
    // Use the first k facilities as the selection.
    std::vector<int> selected = {0, 1, 2};
    const McfsSolution solution = AssignOptimally(ri.instance, selected);
    EXPECT_TRUE(VerifySolution(ri.instance, solution).ok);

    const std::vector<double> cost = testing_util::DistanceMatrix(ri.instance);
    std::vector<int> capacities(ri.instance.l(), 0);
    for (const int j : selected) capacities[j] = ri.instance.capacities[j];
    const auto oracle = SolveDenseTransport(ri.instance.m(), ri.instance.l(),
                                            cost, capacities);
    EXPECT_EQ(solution.feasible, oracle.has_value());
    if (oracle.has_value()) {
      EXPECT_NEAR(solution.objective, oracle->cost, 1e-6);
    }
  }
}

}  // namespace
}  // namespace mcfs
