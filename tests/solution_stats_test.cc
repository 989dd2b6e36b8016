#include "mcfs/core/solution_stats.h"

#include <gtest/gtest.h>

#include "mcfs/core/verifier.h"
#include "mcfs/core/wma.h"
#include "tests/test_util.h"

namespace mcfs {
namespace {

TEST(SolutionStatsTest, HandComputedExample) {
  GraphBuilder builder(5);
  builder.AddEdge(0, 1, 1.0);
  builder.AddEdge(1, 2, 2.0);
  builder.AddEdge(2, 3, 3.0);
  builder.AddEdge(3, 4, 4.0);
  const Graph graph = builder.Build();
  McfsInstance instance;
  instance.graph = &graph;
  instance.customers = {0, 2, 4};
  instance.facility_nodes = {1, 3};
  instance.capacities = {2, 2};
  instance.k = 2;

  McfsSolution solution;
  solution.selected = {0, 1};
  solution.assignment = {0, 0, 1};
  solution.distances = {1.0, 2.0, 4.0};
  solution.objective = 7.0;
  solution.feasible = true;
  ASSERT_TRUE(VerifySolution(instance, solution).ok);

  const SolutionStats stats = ComputeSolutionStats(instance, solution);
  EXPECT_EQ(stats.assigned_customers, 3);
  EXPECT_EQ(stats.unassigned_customers, 0);
  EXPECT_NEAR(stats.mean_distance, 7.0 / 3.0, 1e-9);
  EXPECT_DOUBLE_EQ(stats.max_distance, 4.0);
  EXPECT_DOUBLE_EQ(stats.median_distance, 2.0);
  EXPECT_EQ(stats.facilities_used, 2);
  EXPECT_EQ(stats.facilities_full, 1);  // facility 0 holds 2/2
  EXPECT_EQ(stats.max_load, 2);
  EXPECT_EQ(stats.load, (std::vector<int>{2, 1}));
  EXPECT_NEAR(stats.mean_utilization, (1.0 + 0.5) / 2, 1e-9);

  const std::string report = FormatSolutionStats(stats);
  EXPECT_NE(report.find("3 assigned"), std::string::npos);
  EXPECT_NE(report.find("1 at capacity"), std::string::npos);
}

TEST(SolutionStatsTest, CountsUnassignedCustomers) {
  GraphBuilder builder(3);
  builder.AddEdge(0, 1, 1.0);
  builder.AddEdge(1, 2, 1.0);
  const Graph graph = builder.Build();
  McfsInstance instance;
  instance.graph = &graph;
  instance.customers = {0, 2};
  instance.facility_nodes = {1};
  instance.capacities = {1};
  instance.k = 1;
  McfsSolution solution;
  solution.selected = {0};
  solution.assignment = {0, -1};
  solution.distances = {1.0, 0.0};
  solution.objective = 1.0;
  solution.feasible = false;
  const SolutionStats stats = ComputeSolutionStats(instance, solution);
  EXPECT_EQ(stats.assigned_customers, 1);
  EXPECT_EQ(stats.unassigned_customers, 1);
  EXPECT_NE(FormatSolutionStats(stats).find("UNASSIGNED"),
            std::string::npos);
}

TEST(SolutionStatsTest, ConsistentWithWmaSolutions) {
  Rng rng(5);
  testing_util::RandomInstance ri =
      testing_util::MakeRandomInstance(80, 20, 12, 5, 6, rng);
  const McfsSolution solution = RunWma(ri.instance).solution;
  const SolutionStats stats = ComputeSolutionStats(ri.instance, solution);
  EXPECT_EQ(stats.assigned_customers + stats.unassigned_customers, 20);
  // Total load equals assigned customers.
  int total_load = 0;
  for (const int load : stats.load) total_load += load;
  EXPECT_EQ(total_load, stats.assigned_customers);
  // Percentiles are monotone.
  EXPECT_LE(stats.median_distance, stats.p90_distance + 1e-12);
  EXPECT_LE(stats.p90_distance, stats.p99_distance + 1e-12);
  EXPECT_LE(stats.p99_distance, stats.max_distance + 1e-12);
}

}  // namespace
}  // namespace mcfs
