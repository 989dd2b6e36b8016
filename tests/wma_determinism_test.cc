// Property test for the determinism contract: RunWma (and
// RunUniformFirstWma) must return bit-identical solutions for any
// thread count. No solve dispatches to the pool, so the thread count
// must not reach the answer at all.
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

// A solve has no parallel section: the demand-growth loop and the final
// assignment run the serial code at every thread count, so neither an
// exact nor a naive run dispatches a ParallelFor. The pool counts
// inline sections too, so this holds on a single-core host.
TEST(WmaDeterminismTest, NoSolveDispatchesToThePool) {
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
    for (const int threads : kThreadCounts) {
      SCOPED_TRACE(std::string(naive ? "naive" : "exact") +
                   " threads=" + std::to_string(threads));
      obs::ResetMetrics();
      WmaOptions options;
      options.naive = naive;
      options.threads = threads;
      options.metrics = true;
      const WmaResult result = RunWma(instance, options);
      ASSERT_TRUE(result.solution.feasible);
      ASSERT_GE(result.stats.iterations, 5);
      const obs::MetricsSnapshot snapshot = obs::SnapshotMetrics();
      const auto it = snapshot.counters.find("exec/pool/parallel_fors");
      const int64_t parallel_fors =
          it == snapshot.counters.end() ? 0 : it->second;
      EXPECT_EQ(parallel_fors, 0);
    }
  }
  obs::EnableMetrics(false);
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
