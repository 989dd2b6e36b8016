#include "mcfs/exact/bb_solver.h"

#include <gtest/gtest.h>

#include "mcfs/core/verifier.h"
#include "mcfs/core/wma.h"
#include "tests/test_util.h"

namespace mcfs {
namespace {

using testing_util::MakeRandomInstance;
using testing_util::RandomInstance;

TEST(SolveByEnumerationTest, TinyInstance) {
  // Path 0-1-2-3-4; customers at ends, facilities at 1, 2, 3; k=1.
  GraphBuilder builder(5);
  for (int v = 0; v < 4; ++v) builder.AddEdge(v, v + 1, 1.0);
  const Graph graph = builder.Build();
  McfsInstance instance;
  instance.graph = &graph;
  instance.customers = {0, 4};
  instance.facility_nodes = {1, 2, 3};
  instance.capacities = {2, 2, 2};
  instance.k = 1;
  const ExactResult result = SolveByEnumeration(instance);
  ASSERT_TRUE(result.solution.feasible);
  // Any single facility costs 1+3 = 2+2 = 3+1 = 4 here.
  EXPECT_NEAR(result.solution.objective, 4.0, 1e-9);
  EXPECT_EQ(result.solution.selected.size(), 1u);
}

class BranchAndBoundOracleTest : public ::testing::TestWithParam<int> {};

TEST_P(BranchAndBoundOracleTest, MatchesEnumeration) {
  Rng rng(7000 + GetParam());
  const int n = 20 + static_cast<int>(rng.UniformInt(0, 40));
  const int m = 4 + static_cast<int>(rng.UniformInt(0, 8));
  const int l = 4 + static_cast<int>(rng.UniformInt(0, 5));
  const int k = 2 + static_cast<int>(rng.UniformInt(0, 2));
  const int parts = 1 + static_cast<int>(rng.UniformInt(0, 1));
  RandomInstance ri = MakeRandomInstance(n, m, l, k, 5, rng, parts);

  const ExactResult enumerated = SolveByEnumeration(ri.instance);
  ExactOptions options;
  options.time_limit_seconds = 30.0;
  const ExactResult bb = SolveExact(ri.instance, options);
  ASSERT_FALSE(bb.failed);
  EXPECT_TRUE(bb.optimal);
  EXPECT_EQ(bb.solution.feasible, enumerated.solution.feasible);
  if (enumerated.solution.feasible) {
    EXPECT_NEAR(bb.solution.objective, enumerated.solution.objective,
                1e-5 * (1.0 + enumerated.solution.objective));
    EXPECT_TRUE(VerifySolution(ri.instance, bb.solution).ok);
  }
}

INSTANTIATE_TEST_SUITE_P(RandomSweep, BranchAndBoundOracleTest,
                         ::testing::Range(0, 40));

TEST(SolveExactTest, LowerBoundsWmaOnMediumInstances) {
  Rng rng(88);
  RandomInstance ri = MakeRandomInstance(150, 25, 20, 6, 5, rng);
  if (!IsFeasible(ri.instance)) GTEST_SKIP();
  ExactOptions options;
  options.time_limit_seconds = 30.0;
  const ExactResult exact = SolveExact(ri.instance, options);
  const WmaResult wma = RunWma(ri.instance);
  if (exact.optimal && exact.solution.feasible && wma.solution.feasible) {
    EXPECT_LE(exact.solution.objective, wma.solution.objective + 1e-6);
  }
}

TEST(SolveExactTest, FailsGracefullyOnTinyBudget) {
  Rng rng(89);
  RandomInstance ri = MakeRandomInstance(120, 30, 25, 5, 4, rng);
  ExactOptions options;
  options.max_nodes = 1;  // guarantees budget exhaustion
  const ExactResult result = SolveExact(ri.instance, options);
  EXPECT_TRUE(result.failed);
  // The incumbent (WMA seed) is still reported.
  if (result.solution.feasible) {
    EXPECT_TRUE(VerifySolution(ri.instance, result.solution).ok);
  }
}

TEST(SolveExactTest, MatrixCapMimicsGurobiFailure) {
  Rng rng(90);
  RandomInstance ri = MakeRandomInstance(60, 10, 12, 4, 4, rng);
  ExactOptions options;
  options.max_matrix_entries = 10;  // force immediate failure
  const ExactResult result = SolveExact(ri.instance, options);
  EXPECT_TRUE(result.failed);
  EXPECT_FALSE(result.optimal);
}

TEST(SolveExactTest, ProvenInfeasibleInstance) {
  GraphBuilder builder(3);
  builder.AddEdge(0, 1, 1.0);
  builder.AddEdge(1, 2, 1.0);
  const Graph graph = builder.Build();
  McfsInstance instance;
  instance.graph = &graph;
  instance.customers = {0, 1, 2};
  instance.facility_nodes = {1};
  instance.capacities = {2};  // three customers, capacity two
  instance.k = 1;
  ExactOptions options;
  options.use_wma_incumbent = false;
  const ExactResult result = SolveExact(instance, options);
  EXPECT_TRUE(result.optimal);
  EXPECT_FALSE(result.failed);
  EXPECT_FALSE(result.solution.feasible);
}

}  // namespace
}  // namespace mcfs
