// End-to-end integration tests: the full production pipeline — city
// generation, workload simulation, solving, analytics, persistence —
// exercised together, as the examples and benches use it.

#include <gtest/gtest.h>

#include "mcfs/baselines/hilbert_baseline.h"
#include "mcfs/core/instance_io.h"
#include "mcfs/core/local_search.h"
#include "mcfs/core/solution_stats.h"
#include "mcfs/core/validate.h"
#include "mcfs/core/verifier.h"
#include "mcfs/core/wma.h"
#include "mcfs/exact/bb_solver.h"
#include "mcfs/flow/transport.h"
#include "mcfs/graph/dijkstra.h"
#include "mcfs/graph/graph_io.h"
#include "mcfs/graph/road_network.h"
#include "mcfs/workload/bike_sim.h"
#include "mcfs/workload/yelp_sim.h"

namespace mcfs {
namespace {

class IntegrationTest : public ::testing::Test {
 protected:
  static const Graph& City() {
    static const Graph* city =
        new Graph(GenerateCity(AalborgPreset(0.02, 42)));
    return *city;
  }
};

TEST_F(IntegrationTest, CoworkingPipeline) {
  YelpSimOptions yelp;
  yelp.num_venues = 80;
  yelp.num_customers = 120;
  yelp.seed = 7;
  const CoworkingScenario scenario = GenerateCoworkingScenario(City(), yelp);

  McfsInstance instance;
  instance.graph = &City();
  instance.customers = scenario.customers;
  instance.facility_nodes = scenario.venues;
  instance.capacities = scenario.capacities;
  instance.k = 25;
  ASSERT_TRUE(IsFeasible(instance));
  ASSERT_TRUE(ValidateInstance(instance).ok());

  // Solve with every algorithm; all must validate (structural check
  // plus the independent verifier's fresh-Dijkstra re-derivation), and
  // WMA must win or tie against Hilbert.
  const McfsSolution wma = RunWma(instance).solution;
  const McfsSolution uf = RunUniformFirstWma(instance).solution;
  const McfsSolution hilbert = RunHilbertBaseline(instance);
  for (const McfsSolution* solution : {&wma, &uf, &hilbert}) {
    const ValidationResult validation =
        ValidateSolution(instance, *solution, true);
    EXPECT_TRUE(validation.ok) << validation.message;
    EXPECT_TRUE(solution->feasible);
    const VerifyReport report = VerifySolution(instance, *solution);
    EXPECT_TRUE(report.ok) << report.ToString();
  }
  EXPECT_LE(wma.objective, hilbert.objective * 1.1);

  // Polish, analyze, persist, reload.
  const LocalSearchResult polished = ImproveByLocalSearch(instance, wma);
  EXPECT_LE(polished.solution.objective, wma.objective + 1e-9);
  const SolutionStats stats =
      ComputeSolutionStats(instance, polished.solution);
  EXPECT_EQ(stats.assigned_customers, instance.m());

  const std::string dir = ::testing::TempDir();
  ASSERT_TRUE(SaveGraph(City(), dir + "/it.graph"));
  ASSERT_TRUE(SaveInstance(instance, dir + "/it.instance"));
  ASSERT_TRUE(SaveSolution(polished.solution, dir + "/it.solution"));
  const std::optional<Graph> graph2 = LoadGraph(dir + "/it.graph");
  ASSERT_TRUE(graph2.has_value());
  const std::optional<McfsInstance> instance2 =
      LoadInstance(&*graph2, dir + "/it.instance");
  ASSERT_TRUE(instance2.has_value());
  const std::optional<McfsSolution> solution2 =
      LoadSolution(dir + "/it.solution");
  ASSERT_TRUE(solution2.has_value());
  // The reloaded triple still validates, including network distances,
  // and the reloaded solution is consistent with the reloaded instance.
  EXPECT_TRUE(ValidateSolution(*instance2, *solution2, true).ok);
  EXPECT_TRUE(CheckSolutionAgainstInstance(*solution2, *instance2).ok());
  EXPECT_TRUE(VerifySolution(*instance2, *solution2).ok);
}

TEST_F(IntegrationTest, BikePipelineMatchesExactOnSmallK) {
  BikeSimOptions sim;
  sim.num_stations = 60;
  sim.num_bikes = 80;
  sim.num_commuter_flows = 40;
  sim.seed = 11;
  const BikeScenario scenario = GenerateBikeScenario(City(), sim);
  McfsInstance instance;
  instance.graph = &City();
  instance.customers = scenario.bikes;
  instance.facility_nodes = scenario.stations;
  instance.capacities = scenario.capacities;
  instance.k = 20;
  if (!IsFeasible(instance)) GTEST_SKIP();

  const McfsSolution wma = RunWma(instance).solution;
  ASSERT_TRUE(wma.feasible);
  EXPECT_TRUE(VerifySolution(instance, wma).ok);
  ExactOptions options;
  options.time_limit_seconds = 30.0;
  const ExactResult exact = SolveExact(instance, options);
  if (exact.optimal && exact.solution.feasible) {
    EXPECT_GE(wma.objective, exact.solution.objective - 1e-6);
    EXPECT_LE(wma.objective, exact.solution.objective * 1.6);
    const VerifyReport exact_report =
        VerifySolution(instance, exact.solution);
    EXPECT_TRUE(exact_report.ok) << exact_report.ToString();
  }
}

// Final-assignment cross-check on the production pipeline: at every
// supported thread count the full solve is bit-identical, its
// assignment reaches the dense transportation optimum over the selected
// facilities (1e-9 relative), and it passes the independent verifier.
TEST_F(IntegrationTest, FinalAssignmentMatchesDenseOracleAcrossThreadCounts) {
  YelpSimOptions yelp;
  yelp.num_venues = 80;
  yelp.num_customers = 120;
  yelp.seed = 7;
  const CoworkingScenario scenario = GenerateCoworkingScenario(City(), yelp);
  McfsInstance instance;
  instance.graph = &City();
  instance.customers = scenario.customers;
  instance.facility_nodes = scenario.venues;
  instance.capacities = scenario.capacities;
  instance.k = 25;
  ASSERT_TRUE(IsFeasible(instance));

  WmaOptions serial;
  serial.threads = 1;
  const WmaResult reference = RunWma(instance, serial);
  ASSERT_TRUE(reference.solution.feasible);
  const std::vector<int>& selected = reference.solution.selected;
  const int m = instance.m();
  const int l = static_cast<int>(selected.size());
  std::vector<double> cost(static_cast<size_t>(m) * l);
  std::vector<int> capacities;
  for (const int j : selected) capacities.push_back(instance.capacities[j]);
  for (int i = 0; i < m; ++i) {
    const std::vector<double> dist =
        ShortestPathsFrom(City(), instance.customers[i]);
    for (int s = 0; s < l; ++s) {
      cost[static_cast<size_t>(i) * l + s] =
          dist[instance.facility_nodes[selected[s]]];
    }
  }
  const std::optional<TransportResult> oracle =
      SolveDenseTransport(m, l, cost, capacities);
  ASSERT_TRUE(oracle.has_value());
  EXPECT_NEAR(reference.solution.objective, oracle->cost,
              1e-9 * (1.0 + oracle->cost));

  for (const int threads : {1, 2, 8}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    WmaOptions options;
    options.threads = threads;
    const WmaResult result = RunWma(instance, options);
    ASSERT_TRUE(result.solution.feasible);
    EXPECT_EQ(result.solution.selected, selected);
    EXPECT_EQ(result.solution.assignment, reference.solution.assignment);
    EXPECT_EQ(result.solution.objective, reference.solution.objective);
    const VerifyReport report = VerifySolution(instance, result.solution);
    EXPECT_TRUE(report.ok) << report.ToString();
  }
}

TEST_F(IntegrationTest, DeterministicAcrossRuns) {
  YelpSimOptions yelp;
  yelp.num_venues = 40;
  yelp.num_customers = 60;
  yelp.seed = 3;
  const CoworkingScenario scenario = GenerateCoworkingScenario(City(), yelp);
  McfsInstance instance;
  instance.graph = &City();
  instance.customers = scenario.customers;
  instance.facility_nodes = scenario.venues;
  instance.capacities = scenario.capacities;
  instance.k = 12;
  const McfsSolution a = RunWma(instance).solution;
  const McfsSolution b = RunWma(instance).solution;
  EXPECT_EQ(a.selected, b.selected);
  EXPECT_EQ(a.assignment, b.assignment);
  EXPECT_DOUBLE_EQ(a.objective, b.objective);
}

}  // namespace
}  // namespace mcfs
