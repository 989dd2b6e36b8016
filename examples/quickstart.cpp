// Quickstart: build a small road network, place customers and candidate
// facilities with capacities, and solve the Multicapacity Facility
// Selection problem with the Wide Matching Algorithm.
//
//   ./examples/quickstart

#include <cstdio>

#include "mcfs/core/verifier.h"
#include "mcfs/core/wma.h"
#include "mcfs/exact/bb_solver.h"
#include "mcfs/graph/generators.h"
#include "mcfs/obs/metrics.h"
#include "mcfs/workload/workload.h"

int main() {
  using namespace mcfs;

  // 1. A synthetic network: 2,000 nodes on a 1000 x 1000 plane,
  //    connected within the paper's alpha = 2 radius.
  SyntheticNetworkOptions network;
  network.num_nodes = 2000;
  network.alpha = 2.0;
  network.seed = 7;
  const Graph graph = GenerateSyntheticNetwork(network);
  std::printf("network: %d nodes, %lld edges, average degree %.2f\n",
              graph.NumNodes(), static_cast<long long>(graph.NumEdges()),
              graph.AverageDegree());

  // 2. An MCFS instance: 200 customers, every node a candidate facility
  //    with capacity 20, and a budget of k = 20 facilities.
  Rng rng(13);
  McfsInstance instance;
  instance.graph = &graph;
  instance.customers = SampleDistinctNodes(graph, 200, rng);
  instance.facility_nodes = SampleDistinctNodes(graph, graph.NumNodes(), rng);
  instance.capacities = UniformCapacities(graph.NumNodes(), 20);
  instance.k = 20;
  std::printf("instance: m=%d customers, l=%d candidates, k=%d, o=%.2f\n",
              instance.m(), instance.l(), instance.k, instance.Occupancy());

  // 3. Solve with WMA (serial; see DESIGN.md §4.5).
  WmaOptions wma_options;
  // Turn on the instrumentation layer for this run: counters accumulate
  // in the process-wide registry and the result carries per-phase and
  // per-iteration statistics (the structured run report of step 7).
  wma_options.metrics = true;
  wma_options.collect_iteration_stats = true;
  const WmaResult result = RunWma(instance, wma_options);
  std::printf("WMA: objective %.1f in %.0f ms over %d iterations "
              "(feasible=%s)\n",
              result.solution.objective,
              result.stats.total_seconds * 1e3, result.stats.iterations,
              result.solution.feasible ? "yes" : "no");

  // 4. Verify the solution structurally and against true network
  //    distances.
  const VerifyReport verified = VerifySolution(instance, result.solution);
  std::printf("validation: %s\n",
              verified.ok ? "ok" : verified.failures.front().c_str());

  // 5. Compare with the exact reference on this (still small) instance.
  ExactOptions exact_options;
  exact_options.time_limit_seconds = 30.0;
  const ExactResult exact = SolveExact(instance, exact_options);
  if (!exact.failed) {
    std::printf("exact optimum: %.1f -> WMA is within %.1f%%\n",
                exact.solution.objective,
                100.0 * (result.solution.objective /
                             exact.solution.objective -
                         1.0));
  } else {
    std::printf("exact solver exceeded its budget (expected on big "
                "instances)\n");
  }

  // 6. Inspect a few assignments.
  std::printf("sample assignments (customer -> facility node, meters):\n");
  for (int i = 0; i < 5; ++i) {
    std::printf("  customer@%d -> facility@%d (%.1f)\n",
                instance.customers[i],
                instance.facility_nodes[result.solution.assignment[i]],
                result.solution.distances[i]);
  }

  // 7. The structured run report: phase breakdown from WmaStats plus the
  //    hot-path counters the instrumentation layer collected (the same
  //    numbers the bench binaries write to run_report.json).
  std::printf("\nrun report:\n");
  std::printf("  phases: matching %.1fms, cover %.1fms, "
              "final assign %.1fms\n",
              result.stats.matching_seconds * 1e3,
              result.stats.cover_seconds * 1e3,
              result.stats.final_assign_seconds * 1e3);
  std::printf("  matcher: %lld edges materialized, %lld Theorem-1 prunes, "
              "%lld rewirings, %lld G_b searches\n",
              static_cast<long long>(result.stats.edges_materialized),
              static_cast<long long>(result.stats.theorem1_prunes),
              static_cast<long long>(result.stats.rewirings),
              static_cast<long long>(result.stats.dijkstra_runs));
  const obs::MetricsSnapshot metrics = obs::SnapshotMetrics();
  for (const char* key :
       {"stream/nodes_settled", "stream/edges_relaxed",
        "exec/stream/candidates_discovered",
        "cover/candidates_scanned"}) {
    const auto it = metrics.counters.find(key);
    if (it != metrics.counters.end()) {
      std::printf("  %-28s %lld\n", key,
                  static_cast<long long>(it->second));
    }
  }
  return 0;
}
