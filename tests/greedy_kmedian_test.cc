#include "mcfs/baselines/greedy_kmedian.h"

#include <gtest/gtest.h>

#include "mcfs/core/verifier.h"
#include "mcfs/core/wma.h"
#include "mcfs/exact/bb_solver.h"
#include "tests/test_util.h"

namespace mcfs {
namespace {

using testing_util::MakeRandomInstance;
using testing_util::RandomInstance;

TEST(GreedyKMedianTest, PicksTheObviousCenter) {
  // Star: customers on leaves, one central facility candidate plus a
  // remote one; k=1 must take the center.
  GraphBuilder builder(6);
  builder.AddEdge(0, 1, 1.0);
  builder.AddEdge(0, 2, 1.0);
  builder.AddEdge(0, 3, 1.0);
  builder.AddEdge(3, 4, 10.0);
  builder.AddEdge(4, 5, 1.0);
  const Graph graph = builder.Build();
  McfsInstance instance;
  instance.graph = &graph;
  instance.customers = {1, 2, 3};
  instance.facility_nodes = {0, 5};
  instance.capacities = {5, 5};
  instance.k = 1;
  const McfsSolution solution = RunGreedyKMedian(instance);
  ASSERT_TRUE(solution.feasible);
  EXPECT_EQ(solution.selected, (std::vector<int>{0}));
  EXPECT_NEAR(solution.objective, 3.0, 1e-9);
}

class GreedyKMedianValidityTest : public ::testing::TestWithParam<int> {};

TEST_P(GreedyKMedianValidityTest, SolutionsAreValid) {
  Rng rng(700 + GetParam());
  const int parts = 1 + GetParam() % 2;
  RandomInstance ri = MakeRandomInstance(60, 12, 10, 4, 6, rng, parts);
  const McfsSolution solution = RunGreedyKMedian(ri.instance);
  const VerifyReport validation = VerifySolution(ri.instance, solution);
  EXPECT_TRUE(validation.ok) << validation.ToString();
  if (IsFeasible(ri.instance)) {
    EXPECT_TRUE(solution.feasible);
  }
}

INSTANTIATE_TEST_SUITE_P(RandomSweep, GreedyKMedianValidityTest,
                         ::testing::Range(0, 15));

TEST(GreedyKMedianTest, ReasonableQualityVsExact) {
  Rng rng(31);
  int compared = 0;
  double ratio_sum = 0.0;
  for (int trial = 0; trial < 8; ++trial) {
    RandomInstance ri = MakeRandomInstance(50, 10, 7, 3, 6, rng);
    if (!IsFeasible(ri.instance)) continue;
    const McfsSolution greedy = RunGreedyKMedian(ri.instance);
    const ExactResult exact = SolveByEnumeration(ri.instance);
    if (!greedy.feasible || !exact.solution.feasible) continue;
    EXPECT_GE(greedy.objective, exact.solution.objective - 1e-6);
    ratio_sum += greedy.objective / exact.solution.objective;
    ++compared;
  }
  ASSERT_GT(compared, 2);
  EXPECT_LT(ratio_sum / compared, 2.5);  // sane aggregate quality
}

TEST(GreedyKMedianTest, RefusesOversizedInstances) {
  Rng rng(32);
  RandomInstance ri = MakeRandomInstance(60, 12, 10, 4, 6, rng);
  GreedyKMedianOptions options;
  options.max_matrix_entries = 10;
  const McfsSolution solution = RunGreedyKMedian(ri.instance, options);
  EXPECT_FALSE(solution.feasible);
  EXPECT_TRUE(solution.selected.empty());
}

}  // namespace
}  // namespace mcfs
