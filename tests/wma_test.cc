#include "mcfs/core/wma.h"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <string>

#include "mcfs/core/verifier.h"
#include "mcfs/exact/bb_solver.h"
#include "tests/test_util.h"

namespace mcfs {
namespace {

using testing_util::MakeRandomInstance;
using testing_util::RandomInstance;

TEST(WmaTest, SolvesThePapersRunningExample) {
  // Figure 3 of the paper: nine nodes, customers a1..a4, candidate
  // facilities b1..b6, k=2, uniform capacity 2; the optimal solution
  // selects {b2, b6} with objective 16. We reconstruct a compatible
  // bipartite distance structure (Table II) with an explicit network:
  // node ids: a1=0 a2=1 a3=2 a4=3, b1=4 b2=5 b3=6 b4=7 b5=8 b6=9.
  GraphBuilder builder(10);
  builder.AddEdge(0, 7, 1.0);   // a1-b4 = 1
  builder.AddEdge(0, 5, 4.0);   // a1-b2 = 4
  builder.AddEdge(1, 8, 1.0);   // a2-b5 = 1
  builder.AddEdge(1, 9, 2.0);   // a2-b6 = 2
  builder.AddEdge(2, 4, 1.0);   // a3-b1 = 1
  builder.AddEdge(2, 5, 4.0);   // a3-b2 = 4
  builder.AddEdge(3, 6, 1.0);   // a4-b3 = 1
  builder.AddEdge(3, 5, 5.0);   // a4-b2 = 5
  builder.AddEdge(3, 9, 6.0);   // a4-b6 = 6
  const Graph graph = builder.Build();
  McfsInstance instance;
  instance.graph = &graph;
  instance.customers = {0, 1, 2, 3};
  instance.facility_nodes = {4, 5, 6, 7, 8, 9};
  instance.capacities = std::vector<int>(6, 2);
  instance.k = 2;

  const WmaResult result = RunWma(instance);
  EXPECT_TRUE(result.solution.feasible);
  const VerifyReport validation = VerifySolution(instance, result.solution);
  EXPECT_TRUE(validation.ok) << validation.ToString();
  // The optimum here is {b2, b6} with cost 4+2+4+6 = 16.
  const ExactResult exact = SolveByEnumeration(instance);
  EXPECT_NEAR(exact.solution.objective, 16.0, 1e-9);
  EXPECT_NEAR(result.solution.objective, 16.0, 1e-6);
}

TEST(WmaTest, CollectsIterationStats) {
  Rng rng(31);
  RandomInstance ri = MakeRandomInstance(80, 20, 15, 5, 6, rng);
  WmaOptions options;
  options.collect_iteration_stats = true;
  const WmaResult result = RunWma(ri.instance, options);
  ASSERT_FALSE(result.stats.per_iteration.empty());
  EXPECT_EQ(result.stats.iterations,
            static_cast<int>(result.stats.per_iteration.size()));
  // Covered counts are monotonically plausible and end at m when
  // feasible.
  if (result.solution.feasible) {
    EXPECT_EQ(result.stats.per_iteration.back().covered_customers, 20);
  }
  EXPECT_GT(result.stats.dijkstra_runs, 0);
  EXPECT_GT(result.stats.edges_materialized, 0);
}

// Validity sweep: every WMA variant must emit structurally valid
// solutions on random instances (including disconnected ones), and be
// feasible whenever the instance is feasible.
class WmaValidityTest : public ::testing::TestWithParam<int> {};

TEST_P(WmaValidityTest, SolutionsAreValid) {
  Rng rng(4000 + GetParam());
  const int parts = 1 + static_cast<int>(rng.UniformInt(0, 2));
  const int n = 30 + static_cast<int>(rng.UniformInt(0, 100));
  const int m = 5 + static_cast<int>(rng.UniformInt(0, 20));
  const int l = 5 + static_cast<int>(rng.UniformInt(0, 15));
  const int k = 2 + static_cast<int>(rng.UniformInt(0, 5));
  RandomInstance ri = MakeRandomInstance(n, m, l, k, 8, rng, parts);

  for (const bool naive : {false, true}) {
    WmaOptions options;
    options.naive = naive;
    const WmaResult result = RunWma(ri.instance, options);
    const VerifyReport validation =
        VerifySolution(ri.instance, result.solution);
    EXPECT_TRUE(validation.ok)
        << (naive ? "naive: " : "exact: ") << validation.ToString();
    if (IsFeasible(ri.instance)) {
      EXPECT_TRUE(result.solution.feasible)
          << (naive ? "naive" : "exact")
          << " missed a feasible instance (seed " << GetParam() << ")";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(RandomSweep, WmaValidityTest,
                         ::testing::Range(0, 50));

// Quality sweep: WMA must never lose to WMA Naive by more than noise,
// and must stay within a reasonable factor of the exact optimum.
class WmaQualityTest : public ::testing::TestWithParam<int> {};

TEST_P(WmaQualityTest, CompetitiveWithExactAndBeatsNaive) {
  Rng rng(6000 + GetParam());
  const int n = 40 + static_cast<int>(rng.UniformInt(0, 80));
  const int m = 8 + static_cast<int>(rng.UniformInt(0, 10));
  const int l = 6 + static_cast<int>(rng.UniformInt(0, 4));
  const int k = 3;
  RandomInstance ri = MakeRandomInstance(n, m, l, k, 6, rng);
  if (!IsFeasible(ri.instance)) return;

  const WmaResult wma = RunWma(ri.instance);
  ASSERT_TRUE(wma.solution.feasible);
  const ExactResult exact = SolveByEnumeration(ri.instance);
  ASSERT_TRUE(exact.solution.feasible);
  EXPECT_GE(wma.solution.objective, exact.solution.objective - 1e-6);
  // Heuristic quality guardrail; the paper reports near-optimal quality.
  EXPECT_LE(wma.solution.objective, 2.0 * exact.solution.objective + 1e-6);
}

INSTANTIATE_TEST_SUITE_P(RandomSweep, WmaQualityTest,
                         ::testing::Range(0, 30));

TEST(WmaUniformFirstTest, ValidOnNonuniformInstances) {
  Rng rng(77);
  for (int trial = 0; trial < 10; ++trial) {
    RandomInstance ri = MakeRandomInstance(60, 12, 10, 4, 10, rng);
    const WmaResult uf = RunUniformFirstWma(ri.instance);
    const VerifyReport validation = VerifySolution(ri.instance, uf.solution);
    EXPECT_TRUE(validation.ok) << validation.ToString();
    if (IsFeasible(ri.instance)) {
      EXPECT_TRUE(uf.solution.feasible);
    }
  }
}

// The final assignment continues the demand-growth loop's streams
// (IncrementalMatcher::InheritStreams) instead of starting new ones. Its
// answer must be exactly what a fresh matcher over the selection gives,
// field for field and bit for bit, cold and warm, at any thread count.
void ExpectFreshAssignment(const McfsInstance& instance,
                           const McfsSolution& solution) {
  const McfsSolution fresh =
      AssignOptimally(instance, solution.selected, /*threads=*/1);
  EXPECT_EQ(solution.feasible, fresh.feasible);
  EXPECT_EQ(solution.selected, fresh.selected);
  EXPECT_EQ(solution.assignment, fresh.assignment);
  ASSERT_EQ(solution.distances.size(), fresh.distances.size());
  for (size_t i = 0; i < fresh.distances.size(); ++i) {
    EXPECT_EQ(std::bit_cast<uint64_t>(solution.distances[i]),
              std::bit_cast<uint64_t>(fresh.distances[i]))
        << "customer " << i;
  }
  EXPECT_EQ(std::bit_cast<uint64_t>(solution.objective),
            std::bit_cast<uint64_t>(fresh.objective));
}

TEST(WmaTest, FinalAssignmentEqualsAFreshAssignment) {
  int changed_selection_runs = 0;
  for (int trial = 0; trial < 24; ++trial) {
    Rng rng(8100 + trial);
    const int parts = 1 + trial % 3;
    const int n = 60 + static_cast<int>(rng.UniformInt(0, 140));
    const int m = 10 + static_cast<int>(rng.UniformInt(0, 30));
    const int l = 10 + static_cast<int>(rng.UniformInt(0, 20));
    const int k = 3 + static_cast<int>(rng.UniformInt(0, 5));
    RandomInstance ri = MakeRandomInstance(n, m, l, k, 6, rng, parts);
    // The next epoch: one more facility and a quarter of the customers
    // moved, so its selection differs from this one's.
    McfsInstance next = ri.instance;
    next.k = k + 1;
    for (int i = 0; i < m; i += 4) {
      next.customers[i] = static_cast<NodeId>(rng.UniformInt(0, n - 1));
    }
    for (const int threads : {1, 4}) {
      SCOPED_TRACE("trial=" + std::to_string(trial) +
                   " threads=" + std::to_string(threads));
      WmaOptions options;
      options.threads = threads;
      options.export_warm_seed = true;
      const WmaResult cold = RunWma(ri.instance, options);
      ExpectFreshAssignment(ri.instance, cold.solution);

      WmaOptions warm_options;
      warm_options.threads = threads;
      warm_options.warm_seed = cold.warm_seed;
      const WmaResult warm = RunWma(next, warm_options);
      ExpectFreshAssignment(next, warm.solution);
      if (!warm.stats.warm_final_resumed && warm.stats.warm_stream_entries > 0) {
        ++changed_selection_runs;
      }
    }
  }
  EXPECT_GE(changed_selection_runs, 40);
}

TEST(WmaTest, HandlesKGreaterThanNeeded) {
  // k equal to l: every facility can open; WMA must still terminate and
  // produce the optimal transportation assignment.
  Rng rng(55);
  RandomInstance ri = MakeRandomInstance(50, 10, 6, 6, 5, rng);
  const WmaResult result = RunWma(ri.instance);
  const VerifyReport validation =
      VerifySolution(ri.instance, result.solution);
  EXPECT_TRUE(validation.ok) << validation.ToString();
}

TEST(WmaTest, MultipleCustomersPerNode) {
  GraphBuilder builder(3);
  builder.AddEdge(0, 1, 2.0);
  builder.AddEdge(1, 2, 2.0);
  const Graph graph = builder.Build();
  McfsInstance instance;
  instance.graph = &graph;
  instance.customers = {0, 0, 0, 2};  // three customers share node 0
  instance.facility_nodes = {1, 2};
  instance.capacities = {3, 2};
  instance.k = 2;
  const WmaResult result = RunWma(instance);
  EXPECT_TRUE(result.solution.feasible);
  EXPECT_TRUE(VerifySolution(instance, result.solution).ok);
}

}  // namespace
}  // namespace mcfs
