// Cross-cutting WMA properties that tie the pipeline together:
// relaxation lower bounds, selection cardinality, determinism, and the
// Uniform-First == Direct identity on uniform instances.

#include <gtest/gtest.h>

#include <algorithm>

#include "mcfs/core/wma.h"
#include "mcfs/flow/matcher.h"
#include "tests/test_util.h"

namespace mcfs {
namespace {

using testing_util::MakeRandomInstance;
using testing_util::RandomInstance;

class WmaPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(WmaPropertyTest, ObjectiveAboveFullRelaxationBound) {
  // Opening every candidate (ignoring k) can only be cheaper: the
  // optimal transportation onto all facilities lower-bounds any
  // k-selection's assignment cost.
  Rng rng(11000 + GetParam());
  RandomInstance ri = MakeRandomInstance(60, 12, 10, 4, 4, rng);
  const WmaResult wma = RunWma(ri.instance);
  if (!wma.solution.feasible) return;
  std::vector<int> all(ri.instance.l());
  for (int j = 0; j < ri.instance.l(); ++j) all[j] = j;
  McfsInstance relaxed = ri.instance;
  relaxed.k = relaxed.l();
  const McfsSolution bound = AssignOptimally(relaxed, all);
  ASSERT_TRUE(bound.feasible);
  EXPECT_GE(wma.solution.objective, bound.objective - 1e-6);
}

TEST_P(WmaPropertyTest, SelectsExactlyKWhenFeasible) {
  Rng rng(12000 + GetParam());
  const int k = 2 + GetParam() % 4;
  RandomInstance ri = MakeRandomInstance(50, 10, 8, k, 5, rng);
  if (!IsFeasible(ri.instance)) return;
  const WmaResult wma = RunWma(ri.instance);
  // SelectGreedy tops the selection up to the full budget.
  EXPECT_EQ(static_cast<int>(wma.solution.selected.size()),
            std::min(ri.instance.k, ri.instance.l()));
}

INSTANTIATE_TEST_SUITE_P(RandomSweep, WmaPropertyTest,
                         ::testing::Range(0, 25));

TEST(WmaPropertyTest, UniformFirstEqualsDirectOnUniformCapacities) {
  // With uniform capacities the UF transformation is the identity, so
  // both variants must select the same facilities and cost the same.
  Rng rng(99);
  for (int trial = 0; trial < 6; ++trial) {
    RandomInstance ri = MakeRandomInstance(60, 12, 9, 4, 1, rng);
    // Overwrite with uniform capacities.
    std::fill(ri.instance.capacities.begin(), ri.instance.capacities.end(),
              5);
    const WmaResult direct = RunWma(ri.instance);
    const WmaResult uf = RunUniformFirstWma(ri.instance);
    // UF's repair pass re-normalizes the order; compare as sets.
    std::vector<int> direct_selected = direct.solution.selected;
    std::vector<int> uf_selected = uf.solution.selected;
    std::sort(direct_selected.begin(), direct_selected.end());
    std::sort(uf_selected.begin(), uf_selected.end());
    EXPECT_EQ(direct_selected, uf_selected);
    EXPECT_NEAR(direct.solution.objective, uf.solution.objective, 1e-9);
  }
}

TEST(WmaPropertyTest, StatsTimesAreConsistent) {
  Rng rng(100);
  RandomInstance ri = MakeRandomInstance(80, 20, 15, 6, 5, rng);
  WmaOptions options;
  options.collect_iteration_stats = true;
  const WmaResult result = RunWma(ri.instance, options);
  EXPECT_LE(result.stats.matching_seconds + result.stats.cover_seconds,
            result.stats.total_seconds + 1e-6);
  double matching_sum = 0.0;
  for (const WmaIterationStats& it : result.stats.per_iteration) {
    EXPECT_GE(it.matching_seconds, 0.0);
    EXPECT_GE(it.cover_seconds, 0.0);
    EXPECT_GE(it.covered_customers, 0);
    EXPECT_LE(it.covered_customers, ri.instance.m());
    matching_sum += it.matching_seconds;
  }
  EXPECT_NEAR(matching_sum, result.stats.matching_seconds, 1e-6);
}

TEST(WmaPropertyTest, NaiveSeedsProduceValidVariedSolutions) {
  Rng rng(101);
  RandomInstance ri = MakeRandomInstance(70, 15, 12, 5, 3, rng);
  double min_obj = 1e300;
  double max_obj = 0.0;
  for (uint64_t seed = 0; seed < 5; ++seed) {
    WmaOptions options;
    options.naive = true;
    options.seed = seed;
    const WmaResult result = RunWma(ri.instance, options);
    EXPECT_TRUE(ValidateSolution(ri.instance, result.solution, true).ok);
    if (result.solution.feasible) {
      min_obj = std::min(min_obj, result.solution.objective);
      max_obj = std::max(max_obj, result.solution.objective);
    }
  }
  // Seeds explore different greedy orders; objectives may differ but
  // must stay within a sane band of each other.
  if (max_obj > 0.0) {
    EXPECT_LE(max_obj, 5.0 * min_obj + 1e-9);
  }
}

TEST(WmaPropertyTest, ExactWmaBeatsOrMatchesNaiveOnAverage) {
  Rng rng(102);
  double exact_total = 0.0;
  double naive_total = 0.0;
  int counted = 0;
  for (int trial = 0; trial < 10; ++trial) {
    RandomInstance ri = MakeRandomInstance(60, 14, 10, 4, 8, rng);
    if (!IsFeasible(ri.instance)) continue;
    const WmaResult exact = RunWma(ri.instance);
    WmaOptions naive_options;
    naive_options.naive = true;
    const WmaResult naive = RunWma(ri.instance, naive_options);
    if (!exact.solution.feasible || !naive.solution.feasible) continue;
    exact_total += exact.solution.objective;
    naive_total += naive.solution.objective;
    ++counted;
  }
  ASSERT_GT(counted, 3);
  EXPECT_LE(exact_total, naive_total * 1.05);
}

}  // namespace
}  // namespace mcfs
