// Service demo: run MCFS as a long-lived solver service. One road
// network and one candidate catalog are loaded a single time; many
// solve requests — different customer sets, budgets, catalog slices,
// and per-request deadlines — then share the warm preprocessing state
// through a bounded admission queue. Shows epoch-bumping catalog
// updates, the solve cache, and the structured service report.
//
//   ./examples/serve_demo

#include <cstdio>
#include <vector>

#include "mcfs/graph/generators.h"
#include "mcfs/serve/solver_service.h"
#include "mcfs/workload/workload.h"

int main() {
  using namespace mcfs;

  // 1. The long-lived part: one network and one candidate catalog.
  SyntheticNetworkOptions network;
  network.num_nodes = 2000;
  network.alpha = 2.0;
  network.seed = 7;
  const Graph graph = GenerateSyntheticNetwork(network);
  Rng rng(13);
  const std::vector<NodeId> catalog_nodes =
      SampleDistinctNodes(graph, 150, rng);
  const std::vector<int> catalog_caps = UniformCapacities(150, 20);

  ServiceOptions options;
  options.serve_threads = 0;  // MCFS_THREADS / hardware default
  options.queue_depth = 32;
  options.max_batch = 4;
  options.verify = true;  // re-check every answer independently
  SolverService service(&graph, catalog_nodes, catalog_caps, options);
  std::printf("service up: %d nodes, %zu candidates, epoch %llu\n",
              graph.NumNodes(), catalog_nodes.size(),
              static_cast<unsigned long long>(service.epoch()));

  // 2. Fire a burst of concurrent requests (the handles resolve as the
  //    dispatcher drains its batches).
  std::vector<std::shared_ptr<ResponseHandle>> handles;
  for (int r = 0; r < 6; ++r) {
    SolveRequest request;
    request.customers =
        SampleNodesWithReplacement(graph, 120 + 30 * r, rng);
    request.k = 15;
    handles.push_back(service.Submit(request));
  }
  for (size_t r = 0; r < handles.size(); ++r) {
    const SolveResponse& response = handles[r]->Wait();
    std::printf("request %zu: %s objective %.1f (%d iterations, "
                "%.1f ms solve, verify %s)\n",
                r, response.status.ok() ? "ok," : "FAILED:",
                response.solution.objective, response.stats.iterations,
                response.solve_seconds * 1e3,
                response.verify_ok ? "clean" : "FAILED");
  }

  // 3. A repeated request is served from the epoch's solve cache.
  SolveRequest repeat;
  repeat.customers = SampleNodesWithReplacement(graph, 100, rng);
  repeat.k = 12;
  service.SolveSync(repeat);
  const SolveResponse cached = service.SolveSync(repeat);
  std::printf("repeat request: cache_hit=%s, objective %.1f\n",
              cached.cache_hit ? "yes" : "no", cached.solution.objective);

  // 4. A catalog update (capacities shrink) bumps the epoch and
  //    invalidates the cache; the same request now re-solves.
  std::vector<int> tighter = catalog_caps;
  for (int& c : tighter) c = c / 2;
  const Status updated = service.UpdateCapacities(tighter);
  if (!updated.ok()) {
    std::fprintf(stderr, "update failed: %s\n", updated.ToString().c_str());
    return 1;
  }
  const SolveResponse fresh = service.SolveSync(repeat);
  std::printf("after update: epoch %llu, cache_hit=%s, objective %.1f\n",
              static_cast<unsigned long long>(fresh.epoch),
              fresh.cache_hit ? "yes" : "no", fresh.solution.objective);

  // 5. A request with its own tight deadline degrades anytime — it
  //    alone; everything else on the service is untouched.
  SolveRequest hurried;
  hurried.customers = SampleNodesWithReplacement(graph, 400, rng);
  hurried.k = 60;  // the halved capacities need the wider budget
  hurried.deadline_ms = 1;
  const SolveResponse rushed = service.SolveSync(hurried);
  std::printf("deadline request: termination=%s, feasible=%s\n",
              TerminationName(rushed.solution.termination),
              rushed.solution.feasible ? "yes" : "no");

  // 6. The aggregated service report (the JSON feeds dashboards / CI).
  const ServiceReport report = service.Report();
  std::printf("report: %lld completed (%lld failed), %lld cache hits, "
              "p50 %.1f ms, p99 %.1f ms\n%s\n",
              static_cast<long long>(report.requests_completed),
              static_cast<long long>(report.requests_failed),
              static_cast<long long>(report.cache_hits),
              report.latency.p50 * 1e3, report.latency.p99 * 1e3,
              report.Json().c_str());
  return 0;
}
