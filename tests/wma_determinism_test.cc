// Property test for the parallel-prefetch determinism contract: RunWma
// (and RunUniformFirstWma) must return bit-identical solutions for any
// thread count, because the final assignment's stream prefetch only
// changes *when* candidate distances are computed, never *which* entry
// the matcher consumes. The demand-growth loop itself never dispatches
// to the pool.
// The same contract extends to the obs layer's logical counters
// (everything outside the exec/ prefix): identical values for any
// thread count.

#include <cmath>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "mcfs/common/random.h"
#include "mcfs/core/wma.h"
#include "mcfs/flow/cost_scaling.h"
#include "mcfs/graph/generators.h"
#include "mcfs/obs/metrics.h"
#include "mcfs/workload/workload.h"
#include "tests/test_util.h"

namespace mcfs {
namespace {

constexpr int kThreadCounts[] = {1, 2, 8};

McfsInstance MakeInstanceOnGraph(const Graph& graph, int m, int l, int k,
                                 int max_capacity, Rng& rng) {
  McfsInstance instance;
  instance.graph = &graph;
  instance.customers = SampleDistinctNodes(graph, m, rng);
  instance.facility_nodes = SampleDistinctNodes(graph, l, rng);
  for (int j = 0; j < l; ++j) {
    instance.capacities.push_back(
        static_cast<int>(rng.UniformInt(1, max_capacity)));
  }
  instance.k = k;
  return instance;
}

void ExpectIdenticalAcrossThreadCounts(const McfsInstance& instance,
                                       bool naive, bool uniform_first) {
  WmaOptions base;
  base.naive = naive;
  base.threads = 1;
  const WmaResult reference = uniform_first
                                  ? RunUniformFirstWma(instance, base)
                                  : RunWma(instance, base);
  for (const int threads : kThreadCounts) {
    WmaOptions options = base;
    options.threads = threads;
    const WmaResult result = uniform_first
                                 ? RunUniformFirstWma(instance, options)
                                 : RunWma(instance, options);
    SCOPED_TRACE("threads=" + std::to_string(threads) +
                 " naive=" + std::to_string(naive) +
                 " uf=" + std::to_string(uniform_first));
    EXPECT_EQ(result.solution.feasible, reference.solution.feasible);
    // Bit-identical, not merely close: determinism is the contract.
    EXPECT_EQ(result.solution.objective, reference.solution.objective);
    EXPECT_EQ(result.solution.selected, reference.solution.selected);
    EXPECT_EQ(result.solution.assignment, reference.solution.assignment);
    EXPECT_EQ(result.solution.distances, reference.solution.distances);
  }
}

TEST(WmaDeterminismTest, UniformNetworkExactMatcher) {
  SyntheticNetworkOptions network;
  network.num_nodes = 600;
  network.alpha = 2.0;
  network.seed = 11;
  const Graph graph = GenerateSyntheticNetwork(network);
  Rng rng(21);
  const McfsInstance instance =
      MakeInstanceOnGraph(graph, /*m=*/80, /*l=*/120, /*k=*/15,
                          /*max_capacity=*/8, rng);
  ExpectIdenticalAcrossThreadCounts(instance, /*naive=*/false,
                                    /*uniform_first=*/false);
}

TEST(WmaDeterminismTest, UniformNetworkNaiveMatcher) {
  SyntheticNetworkOptions network;
  network.num_nodes = 600;
  network.alpha = 2.0;
  network.seed = 11;
  const Graph graph = GenerateSyntheticNetwork(network);
  Rng rng(21);
  const McfsInstance instance =
      MakeInstanceOnGraph(graph, /*m=*/80, /*l=*/120, /*k=*/15,
                          /*max_capacity=*/8, rng);
  ExpectIdenticalAcrossThreadCounts(instance, /*naive=*/true,
                                    /*uniform_first=*/false);
}

TEST(WmaDeterminismTest, ClusteredNetworkExactMatcher) {
  SyntheticNetworkOptions network;
  network.num_nodes = 800;
  network.alpha = 2.0;
  network.num_clusters = 8;
  network.seed = 33;
  const Graph graph = GenerateSyntheticNetwork(network);
  Rng rng(34);
  const McfsInstance instance =
      MakeInstanceOnGraph(graph, /*m=*/100, /*l=*/150, /*k=*/20,
                          /*max_capacity=*/6, rng);
  ExpectIdenticalAcrossThreadCounts(instance, /*naive=*/false,
                                    /*uniform_first=*/false);
}

TEST(WmaDeterminismTest, ClusteredNetworkNaiveMatcher) {
  SyntheticNetworkOptions network;
  network.num_nodes = 800;
  network.alpha = 2.0;
  network.num_clusters = 8;
  network.seed = 33;
  const Graph graph = GenerateSyntheticNetwork(network);
  Rng rng(34);
  const McfsInstance instance =
      MakeInstanceOnGraph(graph, /*m=*/100, /*l=*/150, /*k=*/20,
                          /*max_capacity=*/6, rng);
  ExpectIdenticalAcrossThreadCounts(instance, /*naive=*/true,
                                    /*uniform_first=*/false);
}

TEST(WmaDeterminismTest, UniformFirstVariant) {
  SyntheticNetworkOptions network;
  network.num_nodes = 500;
  network.alpha = 2.0;
  network.num_clusters = 5;
  network.seed = 55;
  const Graph graph = GenerateSyntheticNetwork(network);
  Rng rng(56);
  const McfsInstance instance =
      MakeInstanceOnGraph(graph, /*m=*/60, /*l=*/90, /*k=*/12,
                          /*max_capacity=*/7, rng);
  ExpectIdenticalAcrossThreadCounts(instance, /*naive=*/false,
                                    /*uniform_first=*/true);
}

// Runs WMA with metrics on and returns the logical counter map (the
// exec/ family measures physical execution — prefetch hits, pool
// dispatch — and is exempt from the determinism contract by design).
std::map<std::string, int64_t> LogicalCounters(const McfsInstance& instance,
                                               const WmaOptions& base,
                                               int threads) {
  obs::ResetMetrics();
  WmaOptions options = base;
  options.metrics = true;
  options.threads = threads;
  RunWma(instance, options);
  const obs::MetricsSnapshot snapshot = obs::SnapshotMetrics();
  std::map<std::string, int64_t> logical;
  for (const auto& [name, value] : snapshot.counters) {
    if (name.rfind("exec/", 0) != 0) logical[name] = value;
  }
  return logical;
}

TEST(WmaDeterminismTest, LogicalCountersIdenticalAcrossThreadCounts) {
  SyntheticNetworkOptions network;
  network.num_nodes = 600;
  network.alpha = 2.0;
  network.seed = 11;
  const Graph graph = GenerateSyntheticNetwork(network);
  Rng rng(21);
  const McfsInstance instance =
      MakeInstanceOnGraph(graph, /*m=*/80, /*l=*/120, /*k=*/15,
                          /*max_capacity=*/8, rng);

  WmaOptions base;
  const std::map<std::string, int64_t> reference =
      LogicalCounters(instance, base, /*threads=*/1);

  // The instrumented hot paths actually fired.
  EXPECT_GT(reference.at("stream/nodes_settled"), 0);
  EXPECT_GT(reference.at("stream/edges_relaxed"), 0);
  EXPECT_GT(reference.at("matcher/edges_materialized"), 0);
  EXPECT_GT(reference.at("matcher/theorem1_prunes"), 0);
  EXPECT_GT(reference.at("cover/candidates_scanned"), 0);
  EXPECT_GT(reference.at("wma/iterations"), 0);

  for (const int threads : kThreadCounts) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    const std::map<std::string, int64_t> counters =
        LogicalCounters(instance, base, threads);
    EXPECT_EQ(counters, reference);
  }
  obs::EnableMetrics(false);
}

TEST(WmaDeterminismTest, NaiveLogicalCountersIdenticalAcrossThreadCounts) {
  SyntheticNetworkOptions network;
  network.num_nodes = 600;
  network.alpha = 2.0;
  network.seed = 11;
  const Graph graph = GenerateSyntheticNetwork(network);
  Rng rng(21);
  const McfsInstance instance =
      MakeInstanceOnGraph(graph, /*m=*/80, /*l=*/120, /*k=*/15,
                          /*max_capacity=*/8, rng);

  WmaOptions base;
  base.naive = true;
  const std::map<std::string, int64_t> reference =
      LogicalCounters(instance, base, /*threads=*/1);
  EXPECT_GT(reference.at("stream/nodes_settled"), 0);
  EXPECT_GT(reference.at("stream/candidates_popped"), 0);

  for (const int threads : kThreadCounts) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    EXPECT_EQ(LogicalCounters(instance, base, threads), reference);
  }
  obs::EnableMetrics(false);
}

// The only parallel section of a solve is the final assignment's
// one-shot stream prefetch: the demand-growth loop runs the serial code
// at every thread count, so a multi-iteration exact run dispatches one
// ParallelFor and a naive run (whose greedy final assignment has no
// prefetch) dispatches none. The pool counts inline sections too, so
// this holds on a single-core host.
TEST(WmaDeterminismTest, OnlyTheFinalAssignmentDispatchesToThePool) {
  SyntheticNetworkOptions network;
  network.num_nodes = 600;
  network.alpha = 2.0;
  network.seed = 11;
  const Graph graph = GenerateSyntheticNetwork(network);
  Rng rng(21);
  const McfsInstance instance =
      MakeInstanceOnGraph(graph, /*m=*/80, /*l=*/120, /*k=*/15,
                          /*max_capacity=*/8, rng);

  for (const bool naive : {false, true}) {
    SCOPED_TRACE(naive ? "naive" : "exact");
    obs::ResetMetrics();
    WmaOptions options;
    options.naive = naive;
    options.threads = 4;
    options.metrics = true;
    const WmaResult result = RunWma(instance, options);
    ASSERT_TRUE(result.solution.feasible);
    ASSERT_GE(result.stats.iterations, 5);
    const obs::MetricsSnapshot snapshot = obs::SnapshotMetrics();
    const auto it = snapshot.counters.find("exec/pool/parallel_fors");
    const int64_t parallel_fors =
        it == snapshot.counters.end() ? 0 : it->second;
    EXPECT_EQ(parallel_fors, naive ? 0 : 1);
  }
  obs::EnableMetrics(false);
}

// The cost-scaling backend must reach the SSPA objective on the final
// assignment (the growth loop is SSPA under every backend, so the
// selection is identical) — and must itself be deterministic across
// thread counts.
TEST(WmaDeterminismTest, CostScalingBackendMatchesSspaAcrossThreadCounts) {
  SyntheticNetworkOptions network;
  network.num_nodes = 600;
  network.alpha = 2.0;
  network.seed = 11;
  const Graph graph = GenerateSyntheticNetwork(network);
  Rng rng(21);
  const McfsInstance instance =
      MakeInstanceOnGraph(graph, /*m=*/80, /*l=*/120, /*k=*/15,
                          /*max_capacity=*/8, rng);

  WmaOptions sspa_options;
  sspa_options.threads = 1;
  const WmaResult sspa = RunWma(instance, sspa_options);
  ASSERT_TRUE(sspa.solution.feasible);
  EXPECT_EQ(sspa.stats.matcher_backend, "sspa");

  const WmaResult* reference = nullptr;
  WmaResult first;
  for (const int threads : kThreadCounts) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    WmaOptions options;
    options.matcher = MatcherBackendKind::kCostScaling;
    options.threads = threads;
    const WmaResult result = RunWma(instance, options);
    EXPECT_EQ(result.stats.matcher_backend, "cost_scaling");
    EXPECT_TRUE(result.solution.feasible);
    EXPECT_EQ(result.solution.selected, sspa.solution.selected);
    EXPECT_NEAR(result.solution.objective, sspa.solution.objective,
                1e-9 * (1.0 + std::abs(sspa.solution.objective)));
    if (reference == nullptr) {
      first = result;
      reference = &first;
    } else {
      // Bit-identical across thread counts, like the SSPA contract.
      EXPECT_EQ(result.solution.objective, reference->solution.objective);
      EXPECT_EQ(result.solution.assignment, reference->solution.assignment);
    }
  }
}

// A warm seed offered to the cost-scaling backend is refused with the
// typed kUnsupported status and the final assignment runs cold — same
// objective as a warm SSPA epoch, refusal counted, nothing resumed.
TEST(WmaDeterminismTest, CostScalingRefusesWarmSeedAndFallsBackCold) {
  SyntheticNetworkOptions network;
  network.num_nodes = 600;
  network.alpha = 2.0;
  network.seed = 11;
  const Graph graph = GenerateSyntheticNetwork(network);
  Rng rng(21);
  const McfsInstance instance =
      MakeInstanceOnGraph(graph, /*m=*/80, /*l=*/120, /*k=*/15,
                          /*max_capacity=*/8, rng);

  WmaOptions epoch0;
  epoch0.threads = 1;
  epoch0.export_warm_seed = true;
  const WmaResult cold = RunWma(instance, epoch0);
  ASSERT_TRUE(cold.solution.feasible);
  ASSERT_NE(cold.warm_seed, nullptr);
  EXPECT_EQ(cold.stats.warm_backend_refusals, 0);

  WmaOptions warm_sspa;
  warm_sspa.threads = 1;
  warm_sspa.warm_seed = cold.warm_seed;
  const WmaResult sspa = RunWma(instance, warm_sspa);
  ASSERT_TRUE(sspa.solution.feasible);
  EXPECT_TRUE(sspa.stats.warm_final_resumed);

  WmaOptions warm_cs = warm_sspa;
  warm_cs.matcher = MatcherBackendKind::kCostScaling;
  const WmaResult cs = RunWma(instance, warm_cs);
  EXPECT_TRUE(cs.solution.feasible);
  EXPECT_EQ(cs.stats.matcher_backend, "cost_scaling");
  EXPECT_GT(cs.stats.warm_backend_refusals, 0);
  EXPECT_FALSE(cs.stats.warm_final_resumed);
  EXPECT_NEAR(cs.solution.objective, sspa.solution.objective,
              1e-9 * (1.0 + std::abs(sspa.solution.objective)));
  // The refusal itself is the typed status, not a crash or a silent
  // downgrade to SSPA.
  const Status refusal = CostScalingMatcher::WarmSeedStatus();
  EXPECT_EQ(refusal.code(), StatusCode::kUnsupported);
}

// With export_warm_seed under the cost-scaling backend only the
// trajectory half is exported: cost scaling has no resumable matcher
// state, so final_assign stays empty and the next epoch re-matches
// from seeded streams.
TEST(WmaDeterminismTest, CostScalingExportsTrajectoryOnlySeed) {
  SyntheticNetworkOptions network;
  network.num_nodes = 500;
  network.alpha = 2.0;
  network.seed = 55;
  const Graph graph = GenerateSyntheticNetwork(network);
  Rng rng(56);
  const McfsInstance instance =
      MakeInstanceOnGraph(graph, /*m=*/60, /*l=*/90, /*k=*/12,
                          /*max_capacity=*/7, rng);

  WmaOptions options;
  options.threads = 1;
  options.matcher = MatcherBackendKind::kCostScaling;
  options.export_warm_seed = true;
  const WmaResult result = RunWma(instance, options);
  ASSERT_TRUE(result.solution.feasible);
  ASSERT_NE(result.warm_seed, nullptr);
  EXPECT_FALSE(result.warm_seed->trajectory.customers.empty());
  EXPECT_TRUE(result.warm_seed->final_assign.customers.empty());

  // The trajectory-only seed still warms the next epoch (streams are
  // replayed; the final assignment just re-matches).
  WmaOptions next;
  next.threads = 1;
  next.warm_seed = result.warm_seed;
  const WmaResult warm = RunWma(instance, next);
  EXPECT_TRUE(warm.solution.feasible);
  EXPECT_FALSE(warm.stats.warm_final_resumed);
  EXPECT_GT(warm.stats.warm_stream_entries, 0);
  EXPECT_NEAR(warm.solution.objective, result.solution.objective,
              1e-9 * (1.0 + std::abs(result.solution.objective)));
}

TEST(WmaDeterminismTest, RandomSparseInstancesSweep) {
  // Several small random instances, including capacity-tight ones where
  // demand growth iterates many times.
  for (uint64_t seed = 1; seed <= 5; ++seed) {
    Rng rng(seed);
    testing_util::RandomInstance random = testing_util::MakeRandomInstance(
        /*n=*/200, /*m=*/40, /*l=*/60, /*k=*/10, /*max_capacity=*/4, rng);
    SCOPED_TRACE("seed=" + std::to_string(seed));
    ExpectIdenticalAcrossThreadCounts(random.instance, /*naive=*/false,
                                      /*uniform_first=*/false);
  }
}

}  // namespace
}  // namespace mcfs
