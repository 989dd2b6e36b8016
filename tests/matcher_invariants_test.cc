// Property tests on the incremental matcher's internal invariants: the
// potentials must keep every materialized edge dual-feasible after each
// FindPair (Theorem 1's machinery), across random instances, interleaved
// demands, and tight capacities — plus the batch assignment's contract
// against the dense transportation oracle at every thread count.

#include <cmath>
#include <numeric>

#include <gtest/gtest.h>

#include "mcfs/core/instance.h"
#include "mcfs/flow/matcher.h"
#include "mcfs/flow/transport.h"
#include "tests/test_util.h"

namespace mcfs {
namespace {

using testing_util::DistanceMatrix;
using testing_util::MakeRandomInstance;
using testing_util::RandomInstance;

class MatcherInvariantTest : public ::testing::TestWithParam<int> {};

TEST_P(MatcherInvariantTest, DualFeasibilityAfterEveryAugmentation) {
  Rng rng(9000 + GetParam());
  const int n = 15 + static_cast<int>(rng.UniformInt(0, 60));
  const int m = 3 + static_cast<int>(rng.UniformInt(0, 8));
  const int l = 3 + static_cast<int>(rng.UniformInt(0, 8));
  const int parts = 1 + GetParam() % 2;
  RandomInstance ri = MakeRandomInstance(n, m, l, l, 3, rng, parts);
  IncrementalMatcher matcher(ri.instance.graph, ri.instance.customers,
                             ri.instance.facility_nodes,
                             ri.instance.capacities);

  // Interleave demand satisfaction across customers, verifying the
  // invariant after every single augmentation.
  std::vector<int> demand(m);
  for (int i = 0; i < m; ++i) {
    demand[i] = 1 + static_cast<int>(rng.UniformInt(0, 2));
  }
  for (int round = 0; round < 3; ++round) {
    for (int i = 0; i < m; ++i) {
      if (round < demand[i] &&
          matcher.CustomerMatchCount(i) <= round) {
        matcher.FindPair(i);  // failure (saturation) is fine
        ASSERT_TRUE(matcher.VerifyDualFeasibility())
            << "dual infeasible after customer " << i << " round "
            << round;
      }
    }
  }
  // Global sanity: loads within capacity, match counts within demand.
  for (int j = 0; j < l; ++j) {
    EXPECT_LE(matcher.AssignedCount(j), matcher.Capacity(j));
  }
  int total_assignments = 0;
  for (int j = 0; j < l; ++j) total_assignments += matcher.AssignedCount(j);
  int total_matches = 0;
  for (int i = 0; i < m; ++i) total_matches += matcher.CustomerMatchCount(i);
  EXPECT_EQ(total_assignments, total_matches);
}

INSTANTIATE_TEST_SUITE_P(RandomSweep, MatcherInvariantTest,
                         ::testing::Range(0, 40));

TEST(MatcherInvariantTest, CostIsMonotoneInDemand) {
  // Adding one more unit of demand can only add a non-negative marginal
  // cost, and marginal costs are non-decreasing (SSPA property).
  Rng rng(321);
  RandomInstance ri = MakeRandomInstance(60, 1, 8, 8, 2, rng);
  IncrementalMatcher matcher(ri.instance.graph, ri.instance.customers,
                             ri.instance.facility_nodes,
                             ri.instance.capacities);
  double previous_total = 0.0;
  double previous_marginal = 0.0;
  while (matcher.FindPair(0)) {
    const double total = matcher.TotalCost();
    const double marginal = total - previous_total;
    EXPECT_GE(marginal, -1e-9);
    EXPECT_GE(marginal, previous_marginal - 1e-9)
        << "marginal costs must be non-decreasing";
    previous_total = total;
    previous_marginal = marginal;
  }
}

// The batch assignment solves a min-cost flow: on any instance it must
// assign everyone exactly when the dense transportation oracle is
// feasible and reach the oracle's objective to 1e-9 relative. It takes
// no thread count (it is serial), so the name's "every thread count"
// holds by construction.
class BackendEquivalenceTest : public ::testing::TestWithParam<int> {};

TEST_P(BackendEquivalenceTest, MatchesDenseOracleAtEveryThreadCount) {
  Rng rng(7100 + GetParam());
  const int n = 40 + static_cast<int>(rng.UniformInt(0, 120));
  const int m = 6 + static_cast<int>(rng.UniformInt(0, 18));
  const int l = 3 + static_cast<int>(rng.UniformInt(0, 9));
  const int max_capacity = 1 + static_cast<int>(rng.UniformInt(0, 4));
  const int parts = 1 + GetParam() % 2;
  RandomInstance ri =
      MakeRandomInstance(n, m, l, l, max_capacity, rng, parts);
  std::vector<int> selected(l);
  std::iota(selected.begin(), selected.end(), 0);
  const std::optional<TransportResult> oracle =
      SolveDenseTransport(m, l, DistanceMatrix(ri.instance),
                          ri.instance.capacities);

  const McfsSolution solution = AssignOptimally(ri.instance, selected);
  EXPECT_EQ(solution.feasible, oracle.has_value());
  if (oracle.has_value()) {
    EXPECT_NEAR(solution.objective, oracle->cost,
                1e-9 * (1.0 + std::abs(oracle->cost)));
  }
}

INSTANTIATE_TEST_SUITE_P(RandomSweep, BackendEquivalenceTest,
                         ::testing::Range(0, 20));

}  // namespace
}  // namespace mcfs
