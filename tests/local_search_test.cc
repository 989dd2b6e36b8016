#include "mcfs/core/local_search.h"

#include <gtest/gtest.h>

#include "mcfs/core/verifier.h"
#include "mcfs/core/wma.h"
#include "mcfs/exact/bb_solver.h"
#include "tests/test_util.h"

namespace mcfs {
namespace {

using testing_util::MakeRandomInstance;
using testing_util::RandomInstance;

TEST(LocalSearchTest, FixesAnObviouslyBadSelection) {
  // Path graph: customers at both ends, facilities at the ends'
  // neighbors and in the middle. Starting from the two middle
  // facilities, the search should discover the end facilities.
  GraphBuilder builder(7);
  for (int v = 0; v + 1 < 7; ++v) builder.AddEdge(v, v + 1, 1.0);
  const Graph graph = builder.Build();
  McfsInstance instance;
  instance.graph = &graph;
  instance.customers = {0, 6};
  instance.facility_nodes = {1, 3, 5};  // near-left, middle, near-right
  instance.capacities = {2, 2, 2};
  instance.k = 2;

  McfsSolution bad = AssignOptimally(instance, {1});  // middle only... k=2
  bad = AssignOptimally(instance, {1, 0});  // middle + near-left
  ASSERT_TRUE(bad.feasible);
  const LocalSearchResult improved = ImproveByLocalSearch(instance, bad);
  EXPECT_TRUE(improved.solution.feasible);
  // Optimal picks facilities 0 and 2 (cost 1 + 1 = 2).
  EXPECT_NEAR(improved.solution.objective, 2.0, 1e-9);
  EXPECT_GT(improved.swaps_applied, 0);
}

TEST(LocalSearchTest, NeverWorsensTheSolution) {
  Rng rng(10);
  for (int trial = 0; trial < 8; ++trial) {
    RandomInstance ri = MakeRandomInstance(60, 15, 12, 5, 5, rng);
    const McfsSolution start = RunWma(ri.instance).solution;
    const LocalSearchResult improved =
        ImproveByLocalSearch(ri.instance, start);
    EXPECT_TRUE(VerifySolution(ri.instance, improved.solution).ok);
    if (start.feasible) {
      ASSERT_TRUE(improved.solution.feasible);
      EXPECT_LE(improved.solution.objective, start.objective + 1e-9);
    }
  }
}

class LocalSearchQualityTest : public ::testing::TestWithParam<int> {};

TEST_P(LocalSearchQualityTest, ClosesPartOfTheGapToOptimal) {
  Rng rng(8000 + GetParam());
  RandomInstance ri = MakeRandomInstance(60, 12, 8, 3, 6, rng);
  if (!IsFeasible(ri.instance)) return;
  const McfsSolution wma = RunWma(ri.instance).solution;
  ASSERT_TRUE(wma.feasible);
  const LocalSearchResult polished = ImproveByLocalSearch(ri.instance, wma);
  const ExactResult exact = SolveByEnumeration(ri.instance);
  ASSERT_TRUE(exact.solution.feasible);
  // Polished must stay sandwiched between the optimum and WMA.
  EXPECT_GE(polished.solution.objective,
            exact.solution.objective - 1e-6);
  EXPECT_LE(polished.solution.objective, wma.objective + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(RandomSweep, LocalSearchQualityTest,
                         ::testing::Range(0, 20));

TEST(LocalSearchTest, RepairsInfeasibleStart) {
  // Start with a selection that cannot serve everyone; local search
  // first repairs via CoverComponents.
  GraphBuilder builder(4);
  builder.AddEdge(0, 1, 1.0);
  builder.AddEdge(2, 3, 1.0);
  const Graph graph = builder.Build();
  McfsInstance instance;
  instance.graph = &graph;
  instance.customers = {0, 2};
  instance.facility_nodes = {1, 3};
  instance.capacities = {2, 2};
  instance.k = 2;
  McfsSolution start = AssignOptimally(instance, {0});  // one component only
  ASSERT_FALSE(start.feasible);
  const LocalSearchResult improved = ImproveByLocalSearch(instance, start);
  EXPECT_TRUE(improved.solution.feasible);
  EXPECT_NEAR(improved.solution.objective, 2.0, 1e-9);
}

}  // namespace
}  // namespace mcfs
