// Ablation: swap-based local-search polishing after each algorithm.
// Quantifies how much of the gap to the exact optimum the local search
// (an extension beyond the paper) recovers when started from WMA,
// WMA Naive, and Hilbert solutions.

#include "bench/bench_util.h"
#include "mcfs/baselines/hilbert_baseline.h"
#include "mcfs/common/timer.h"
#include "mcfs/core/local_search.h"
#include "mcfs/core/wma.h"
#include "mcfs/exact/bb_solver.h"
#include "mcfs/graph/generators.h"
#include "mcfs/workload/workload.h"

int main(int argc, char** argv) {
  using namespace mcfs;
  const Flags flags(argc, argv);
  const auto bench = bench_util::BenchConfig::FromFlags(flags, 1.0);
  bench_util::Banner("Ablation: local-search polishing", bench);

  Table table({"start", "seed", "objective", "polished", "improvement",
               "swaps", "vs exact"});
  for (int trial = 0; trial < 3; ++trial) {
    const uint64_t seed = bench.seed + trial;
    SyntheticNetworkOptions graph_options;
    graph_options.num_nodes = 1024;
    graph_options.alpha = 1.5;
    graph_options.num_clusters = 10;
    graph_options.seed = seed + 99;
    const Graph graph = GenerateSyntheticNetwork(graph_options);
    auto build = [&](uint64_t s) {
      Rng rng(s);
      McfsInstance instance;
      instance.graph = &graph;
      instance.customers = SampleDistinctNodes(graph, 100, rng);
      instance.facility_nodes =
          SampleDistinctNodes(graph, graph.NumNodes(), rng);
      instance.capacities = UniformCapacities(graph.NumNodes(), 10);
      instance.k = 20;
      return instance;
    };
    const McfsInstance instance =
        bench_util::BuildFeasibleInstance(build, seed + 100);

    ExactOptions exact_options;
    exact_options.time_limit_seconds = bench.exact_seconds;
    const ExactResult exact = SolveExact(instance, exact_options);
    const bool have_exact = !exact.failed && exact.solution.feasible;

    struct Start {
      const char* name;
      McfsSolution solution;
    };
    WmaOptions wma_options;
    WmaOptions naive_options = wma_options;
    naive_options.naive = true;
    const Start starts[] = {
        {"WMA", RunWma(instance, wma_options).solution},
        {"WMA Naive", RunWma(instance, naive_options).solution},
        {"Hilbert", RunHilbertBaseline(instance)},
    };
    for (const Start& start : starts) {
      const LocalSearchResult polished =
          ImproveByLocalSearch(instance, start.solution);
      const double gain =
          start.solution.objective - polished.solution.objective;
      table.AddRow(
          {start.name, FmtInt(seed), FmtDouble(start.solution.objective, 1),
           FmtDouble(polished.solution.objective, 1),
           FmtDouble(100.0 * gain /
                         std::max(start.solution.objective, 1e-9),
                     1) +
               "%",
           FmtInt(polished.swaps_applied),
           have_exact ? FmtDouble(polished.solution.objective /
                                      exact.solution.objective,
                                  2) +
                            "x"
                      : "-"});
    }
  }
  table.Print();
  return 0;
}
