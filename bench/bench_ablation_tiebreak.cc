// Ablation: CheckCover tie-breaking strategy. The paper breaks ties
// between equal marginal gains by selecting the least recently chosen
// facility (diversification). Our implementation adds an optional
// cost-aware primary tie-break (prefer the facility whose matched
// customers are nearest); this bench quantifies its effect across the
// regimes where ties dominate (sparse customers, k a large fraction of
// m, F_p = V).

#include "bench/bench_util.h"
#include "mcfs/core/wma.h"
#include "mcfs/exact/bb_solver.h"
#include "mcfs/graph/generators.h"
#include "mcfs/workload/workload.h"

int main(int argc, char** argv) {
  using namespace mcfs;
  const Flags flags(argc, argv);
  const auto bench = bench_util::BenchConfig::FromFlags(flags, 1.0);
  bench_util::Banner("Ablation: CheckCover tie-break strategy", bench);

  Table table({"config", "seed", "recency-only", "cost-aware",
               "exact", "gap recency", "gap cost-aware"});
  struct Config {
    const char* name;
    double alpha;
    int clusters;
    int n, m, k, c;
  };
  const Config configs[] = {
      {"sparse uniform", 1.2, 0, 512, 51, 25, 10},
      {"dense uniform", 2.0, 0, 512, 102, 51, 4},
      {"clustered", 2.0, 20, 512, 51, 10, 20},
  };
  for (const Config& config : configs) {
    for (int trial = 0; trial < 3; ++trial) {
      const uint64_t seed = bench.seed + trial;
      SyntheticNetworkOptions graph_options;
      graph_options.num_nodes = config.n;
      graph_options.alpha = config.alpha;
      graph_options.num_clusters = config.clusters;
      graph_options.seed = seed + 512;
      const Graph graph = GenerateSyntheticNetwork(graph_options);
      Rng rng(seed + 513);
      McfsInstance instance;
      instance.graph = &graph;
      instance.customers = SampleDistinctNodes(graph, config.m, rng);
      instance.facility_nodes = SampleDistinctNodes(graph, config.n, rng);
      instance.capacities = UniformCapacities(config.n, config.c);
      instance.k = config.k;

      WmaOptions recency;
      recency.cost_tie_break = false;
      const double obj_recency = RunWma(instance, recency).solution.objective;
      WmaOptions cost_aware;  // default: cost tie-break on
      const double obj_cost = RunWma(instance, cost_aware).solution.objective;
      ExactOptions exact_options;
      exact_options.time_limit_seconds = bench.exact_seconds;
      const ExactResult exact = SolveExact(instance, exact_options);
      const bool have_exact = !exact.failed && exact.solution.feasible;
      const double opt = exact.solution.objective;
      table.AddRow(
          {config.name, FmtInt(seed), FmtDouble(obj_recency, 1),
           FmtDouble(obj_cost, 1), have_exact ? FmtDouble(opt, 1) : "-",
           have_exact ? FmtDouble(obj_recency / opt, 2) + "x" : "-",
           have_exact ? FmtDouble(obj_cost / opt, 2) + "x" : "-"});
    }
  }
  table.Print();
  return 0;
}
