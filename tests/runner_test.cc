#include "mcfs/bench/runner.h"

#include <gtest/gtest.h>

#include <limits>

#include "mcfs/bench/run_report.h"
#include "mcfs/graph/generators.h"
#include "mcfs/workload/workload.h"

namespace mcfs {
namespace {

McfsInstance SmallGeoInstance(const Graph& graph, Rng& rng) {
  McfsInstance instance;
  instance.graph = &graph;
  instance.customers = SampleDistinctNodes(graph, 20, rng);
  instance.facility_nodes = SampleDistinctNodes(graph, 40, rng);
  instance.capacities = UniformCapacities(40, 5);
  instance.k = 6;
  return instance;
}

TEST(RunnerTest, SuiteProducesOneOutcomePerEnabledAlgorithm) {
  SyntheticNetworkOptions options;
  options.num_nodes = 300;
  options.alpha = 2.0;
  options.seed = 5;
  const Graph graph = GenerateSyntheticNetwork(options);
  Rng rng(6);
  const McfsInstance instance = SmallGeoInstance(graph, rng);

  AlgorithmSuite suite;
  suite.with_brnn = true;
  suite.with_uf_wma = true;
  suite.with_wma_ls = true;
  suite.with_greedy_kmedian = true;
  suite.exact_options.time_limit_seconds = 10.0;
  const std::vector<AlgoOutcome> outcomes = RunSuite(instance, suite);
  ASSERT_EQ(outcomes.size(), 8u);
  EXPECT_EQ(outcomes[0].algorithm, "BRNN");
  EXPECT_EQ(outcomes[1].algorithm, "Hilbert");
  EXPECT_EQ(outcomes[2].algorithm, "Greedy k-med");
  EXPECT_EQ(outcomes[3].algorithm, "WMA Naive");
  EXPECT_EQ(outcomes[4].algorithm, "WMA");
  EXPECT_EQ(outcomes[5].algorithm, "UF WMA");
  EXPECT_EQ(outcomes[6].algorithm, "WMA+LS");
  EXPECT_EQ(outcomes[7].algorithm, "Exact (B&B)");
  for (const AlgoOutcome& outcome : outcomes) {
    EXPECT_GE(outcome.seconds, 0.0);
    if (!outcome.failed) {
      EXPECT_TRUE(outcome.feasible);
    }
  }
  // The exact reference (when it succeeds) lower-bounds everything.
  const AlgoOutcome& exact = outcomes.back();
  if (!exact.failed) {
    for (const AlgoOutcome& outcome : outcomes) {
      if (!outcome.failed) {
        EXPECT_GE(outcome.objective, exact.objective - 1e-6);
      }
    }
  }
  // WMA+LS never loses to WMA.
  EXPECT_LE(outcomes[6].objective, outcomes[4].objective + 1e-9);

  // The suite collects the phase/iteration breakdown and per-cell
  // metrics snapshots by default.
  EXPECT_FALSE(outcomes[1].has_wma_stats);  // Hilbert: no WMA phases
  EXPECT_TRUE(outcomes[4].has_wma_stats);
  EXPECT_GT(outcomes[4].wma_stats.iterations, 0);
  EXPECT_FALSE(outcomes[4].wma_stats.per_iteration.empty());
  EXPECT_GT(outcomes[4].wma_stats.edges_materialized, 0);
  EXPECT_FALSE(outcomes[4].metrics.counters.empty());
  EXPECT_GT(outcomes[4].metrics.counters.at("matcher/edges_materialized"),
            0);
}

TEST(RunnerTest, EmptySuiteAndDegenerateThreadCountsYieldNoOutcomes) {
  SyntheticNetworkOptions options;
  options.num_nodes = 200;
  options.alpha = 2.0;
  options.seed = 7;
  const Graph graph = GenerateSyntheticNetwork(options);
  Rng rng(8);
  const McfsInstance instance = SmallGeoInstance(graph, rng);

  AlgorithmSuite suite;
  suite.with_wma = false;
  suite.with_wma_naive = false;
  suite.with_hilbert = false;
  suite.with_exact = false;
  // Degenerate thread counts must not crash the cell dispatch (the
  // ParallelFor underneath treats a negative cap as serial).
  for (const int threads : {-4, 0, 1}) {
    for (const bool metrics : {false, true}) {
      suite.threads = threads;
      suite.metrics = metrics;
      EXPECT_TRUE(RunSuite(instance, suite).empty())
          << "threads " << threads << " metrics " << metrics;
    }
  }
}

TEST(RunnerTest, RunReportSerializesNonFiniteDoublesAsNull) {
  // Regression for the JSON layer: an infeasible/timed-out cell can
  // carry inf or NaN objectives and phase times; the report must emit
  // null for them, never the invalid-JSON tokens "inf"/"nan".
  RunReport report("nonfinite");
  AlgoOutcome outcome;
  outcome.algorithm = "WMA";
  outcome.objective = std::numeric_limits<double>::infinity();
  outcome.seconds = std::numeric_limits<double>::quiet_NaN();
  outcome.has_wma_stats = true;
  outcome.wma_stats.matching_seconds =
      -std::numeric_limits<double>::infinity();
  outcome.wma_stats.per_iteration.push_back(
      {1, 5, std::numeric_limits<double>::quiet_NaN(), 0.5, 0, 0});
  report.AddCell("cell", outcome);

  const std::string json = report.Json();
  EXPECT_NE(json.find("\"objective\": null"), std::string::npos) << json;
  EXPECT_NE(json.find("\"seconds\": null"), std::string::npos) << json;
  EXPECT_NE(json.find("\"matching_seconds\": null"), std::string::npos)
      << json;
  EXPECT_EQ(json.find("inf"), std::string::npos) << json;
  EXPECT_EQ(json.find("nan"), std::string::npos) << json;
}

TEST(RunnerTest, FormatOutcomeVariants) {
  AlgoOutcome ok;
  ok.objective = 1234.5;
  ok.seconds = 0.5;
  ok.feasible = true;
  EXPECT_EQ(FormatOutcome(ok), "1234 / 500.0 ms");  // %.0f rounds to even
  AlgoOutcome failed;
  failed.failed = true;
  failed.seconds = 60.0;
  EXPECT_EQ(FormatOutcome(failed), "fail (60.00 s)");
  AlgoOutcome infeasible;
  infeasible.feasible = false;
  EXPECT_EQ(FormatOutcome(infeasible), "infeasible");
}

}  // namespace
}  // namespace mcfs
