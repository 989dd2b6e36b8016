#include <gtest/gtest.h>

#include "mcfs/baselines/brnn.h"
#include "mcfs/baselines/hilbert_baseline.h"
#include "mcfs/core/wma.h"
#include "mcfs/graph/generators.h"
#include "mcfs/workload/workload.h"
#include "tests/test_util.h"

namespace mcfs {
namespace {

// Baselines need coordinates; build instances over geometric graphs.
struct GeoInstance {
  Graph graph;
  McfsInstance instance;
};

GeoInstance MakeGeoInstance(int n, int m, int l, int k, int capacity,
                            uint64_t seed) {
  GeoInstance out;
  SyntheticNetworkOptions options;
  options.num_nodes = n;
  options.alpha = 2.0;
  options.seed = seed;
  out.graph = GenerateSyntheticNetwork(options);
  Rng rng(seed + 1);
  out.instance.graph = &out.graph;
  out.instance.customers = SampleDistinctNodes(out.graph, m, rng);
  out.instance.facility_nodes = SampleDistinctNodes(out.graph, l, rng);
  out.instance.capacities = UniformCapacities(l, capacity);
  out.instance.k = k;
  return out;
}

class BaselineValidityTest : public ::testing::TestWithParam<int> {};

TEST_P(BaselineValidityTest, HilbertSolutionsAreValid) {
  GeoInstance geo = MakeGeoInstance(300, 30, 60, 6, 10, 500 + GetParam());
  const McfsSolution solution = RunHilbertBaseline(geo.instance);
  const ValidationResult validation =
      ValidateSolution(geo.instance, solution, true);
  EXPECT_TRUE(validation.ok) << validation.message;
  if (IsFeasible(geo.instance)) {
    EXPECT_TRUE(solution.feasible);
  }
}

TEST_P(BaselineValidityTest, BrnnSolutionsAreValid) {
  GeoInstance geo = MakeGeoInstance(200, 20, 40, 5, 8, 600 + GetParam());
  const McfsSolution solution = RunBrnnBaseline(geo.instance);
  const ValidationResult validation =
      ValidateSolution(geo.instance, solution, true);
  EXPECT_TRUE(validation.ok) << validation.message;
  if (IsFeasible(geo.instance)) {
    EXPECT_TRUE(solution.feasible);
  }
}

INSTANTIATE_TEST_SUITE_P(RandomSweep, BaselineValidityTest,
                         ::testing::Range(0, 10));

TEST(BaselineQualityTest, WmaBeatsBaselinesOnClusteredData) {
  // The paper's headline: on clustered networks WMA outperforms both
  // the Hilbert clustering baseline and BRNN (Fig. 7).
  SyntheticNetworkOptions options;
  options.num_nodes = 1500;
  options.num_clusters = 20;
  options.alpha = 2.0;
  options.seed = 11;
  Graph graph = GenerateSyntheticNetwork(options);
  Rng rng(12);
  McfsInstance instance;
  instance.graph = &graph;
  instance.customers = SampleDistinctNodes(graph, 150, rng);
  instance.facility_nodes = SampleDistinctNodes(graph, 1500, rng);
  instance.capacities = UniformCapacities(1500, 10);
  instance.k = 30;

  const McfsSolution wma = RunWma(instance).solution;
  const McfsSolution hilbert = RunHilbertBaseline(instance);
  const McfsSolution brnn = RunBrnnBaseline(instance);
  ASSERT_TRUE(wma.feasible);
  ASSERT_TRUE(hilbert.feasible);
  ASSERT_TRUE(brnn.feasible);
  EXPECT_LT(wma.objective, hilbert.objective * 1.02);
  EXPECT_LT(wma.objective, brnn.objective);
}

TEST(BaselineQualityTest, HilbertDegradesWithSmallCandidateSet) {
  // Fig. 8a: Hilbert is sensitive to the candidate set size; WMA finds
  // good alternatives when only a fraction of nodes host candidates.
  GeoInstance geo = MakeGeoInstance(800, 80, 80, 8, 20, 13);
  const McfsSolution wma = RunWma(geo.instance).solution;
  const McfsSolution hilbert = RunHilbertBaseline(geo.instance);
  ASSERT_TRUE(wma.feasible);
  ASSERT_TRUE(hilbert.feasible);
  EXPECT_LE(wma.objective, hilbert.objective * 1.05);
}

}  // namespace
}  // namespace mcfs
