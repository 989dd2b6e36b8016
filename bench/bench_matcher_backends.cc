// Crossover study for the matcher backend selection (DESIGN.md §4.12):
// times the SSPA IncrementalMatcher against the cost-scaling engine on
// the same batch assignment (AssignOptimally over a fixed selection)
// across instance shapes, checks the two reach equal objectives, and
// scores the `auto` decision model against the measured winners. The
// committed artifact is BENCH_matcher_backends.json; CI replays a
// smaller preset and validates the schema (matcher-backends-smoke).
//
// Flags beyond the shared bench_util set:
//   --repeat=N   timing repeats per (cell, backend); the median is
//                reported (default 5)
//   --backends-out=PATH  JSON artifact path (default
//                BENCH_matcher_backends.json)
//
// Exit status is nonzero when any cell's backends disagree (objective
// beyond 1e-9 relative, or feasibility mismatch) — the bench doubles as
// the cross-check the integration tests run at small scale.

#include <algorithm>
#include <cmath>
#include <fstream>
#include <numeric>
#include <sstream>
#include <vector>

#include "bench/bench_util.h"
#include "mcfs/common/timer.h"
#include "mcfs/core/instance.h"
#include "mcfs/flow/matcher_backend.h"
#include "mcfs/graph/road_network.h"
#include "mcfs/workload/workload.h"

namespace mcfs {
namespace {

struct CellSpec {
  const char* name;
  // "dense" cells are where cost scaling should win (>= 1.3x on the
  // committed preset); "sparse" cells are where SSPA stays the default.
  const char* preset;
  int customers;
  int facilities;
  int capacity;     // uniform per-facility capacity
  int seed_offset;  // added to --seed; stable even if cells reorder
};

struct CellResult {
  CellSpec spec;
  int64_t total_capacity = 0;
  double occupancy = 0.0;
  double sspa_seconds = 0.0;
  double cost_scaling_seconds = 0.0;
  double speedup = 0.0;  // sspa / cost_scaling (>1: cost scaling faster)
  double objective_rel_gap = 0.0;
  bool feasible_agree = false;
  MatcherBackendKind auto_backend = MatcherBackendKind::kSspa;
  bool auto_correct = false;
};

double MedianSeconds(std::vector<double> samples) {
  std::sort(samples.begin(), samples.end());
  const size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2]
                    : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

}  // namespace

int RunBackendCrossover(const Flags& flags,
                        const bench_util::BenchConfig& bench) {
  const int repeat = static_cast<int>(flags.GetInt("repeat", 5));
  // One shared city network: the cells vary the bipartite shape, not
  // the road topology, so backend differences are not confounded by
  // graph size.
  const Graph city = GenerateCity(AalborgPreset(bench.scale, bench.seed));
  std::printf("network: %d nodes\n", city.NumNodes());

  // The crossover preset. Dense/large-k cells run near saturation,
  // where every late customer rewires a long SSPA augmentation chain;
  // sparse cells keep occupancy low so SSPA's first candidates mostly
  // stick; the "crossover" cells straddle the measured boundary (occ
  // ~0.97, or batches just under the auto model's size floor) and
  // document where the engines tie.
  const CellSpec specs[] = {
      {"sparse_few_customers", "sparse", 96, 24, 8, 1},
      {"sparse_low_occupancy", "sparse", 160, 48, 8, 2},
      {"sparse_wide_catalog", "sparse", 192, 96, 6, 3},
      {"crossover_mid_occupancy", "crossover", 620, 40, 16, 4},
      {"crossover_small_batch", "crossover", 560, 35, 16, 5},
      {"dense_saturated", "dense", 640, 40, 16, 6},
      {"dense_near_saturated", "dense", 632, 40, 16, 7},
      {"dense_wide_catalog", "dense", 640, 80, 8, 8},
      {"dense_large_k", "dense", 1200, 60, 20, 9},
  };

  Table table({"cell", "m", "l", "occ", "sspa", "cost_scaling", "speedup",
               "auto", "auto_ok"});
  std::vector<CellResult> results;
  int disagreements = 0;
  for (const CellSpec& spec : specs) {
    Rng rng(bench.seed + static_cast<uint64_t>(spec.seed_offset));
    McfsInstance instance;
    instance.graph = &city;
    instance.customers = SampleDistinctNodes(city, spec.customers, rng);
    instance.facility_nodes =
        SampleDistinctNodes(city, spec.facilities, rng);
    instance.capacities = UniformCapacities(spec.facilities, spec.capacity);
    instance.k = spec.facilities;
    std::vector<int> selected(spec.facilities);
    std::iota(selected.begin(), selected.end(), 0);

    CellResult cell;
    cell.spec = spec;
    cell.total_capacity =
        static_cast<int64_t>(spec.facilities) * spec.capacity;
    cell.occupancy = static_cast<double>(spec.customers) /
                     static_cast<double>(cell.total_capacity);

    McfsSolution sspa_solution;
    McfsSolution cs_solution;
    std::vector<double> sspa_times, cs_times;
    for (int r = 0; r < repeat; ++r) {
      WallTimer timer;
      sspa_solution = AssignOptimally(instance, selected, /*threads=*/1,
                                      MatcherBackendKind::kSspa);
      sspa_times.push_back(timer.Seconds());
    }
    for (int r = 0; r < repeat; ++r) {
      WallTimer timer;
      cs_solution = AssignOptimally(instance, selected, /*threads=*/1,
                                    MatcherBackendKind::kCostScaling);
      cs_times.push_back(timer.Seconds());
    }
    cell.sspa_seconds = MedianSeconds(sspa_times);
    cell.cost_scaling_seconds = MedianSeconds(cs_times);
    cell.speedup = cell.cost_scaling_seconds > 0.0
                       ? cell.sspa_seconds / cell.cost_scaling_seconds
                       : 0.0;
    cell.objective_rel_gap =
        std::abs(sspa_solution.objective - cs_solution.objective) /
        (1.0 + std::abs(sspa_solution.objective));
    cell.feasible_agree = sspa_solution.feasible == cs_solution.feasible;
    if (cell.objective_rel_gap > 1e-9 || !cell.feasible_agree) {
      ++disagreements;
    }

    MatchShape shape;
    shape.customers = spec.customers;
    shape.facilities = spec.facilities;
    shape.total_capacity = cell.total_capacity;
    cell.auto_backend =
        ResolveMatcherBackend(MatcherBackendKind::kAuto, shape);
    const double picked = cell.auto_backend == MatcherBackendKind::kSspa
                              ? cell.sspa_seconds
                              : cell.cost_scaling_seconds;
    const double best =
        std::min(cell.sspa_seconds, cell.cost_scaling_seconds);
    // "Correct" allows a 10% tie band: on near-equal cells either
    // engine is a fine pick and timer noise should not flip the score.
    cell.auto_correct = picked <= best * 1.10;

    table.AddRow({spec.name, FmtInt(spec.customers), FmtInt(spec.facilities),
                  FmtDouble(cell.occupancy, 2),
                  FmtSeconds(cell.sspa_seconds),
                  FmtSeconds(cell.cost_scaling_seconds),
                  FmtDouble(cell.speedup, 2),
                  MatcherBackendName(cell.auto_backend),
                  cell.auto_correct ? "yes" : "NO"});
    results.push_back(cell);
  }
  table.Print();

  int auto_correct = 0;
  double dense_min_speedup = 0.0;
  double sparse_max_speedup = 0.0;
  int dense_cells = 0, sparse_cells = 0;
  for (const CellResult& cell : results) {
    if (cell.auto_correct) ++auto_correct;
    const std::string preset = cell.spec.preset;
    if (preset == "dense") {
      dense_min_speedup = dense_cells == 0
                              ? cell.speedup
                              : std::min(dense_min_speedup, cell.speedup);
      ++dense_cells;
    } else if (preset == "sparse") {
      sparse_max_speedup = std::max(sparse_max_speedup, cell.speedup);
      ++sparse_cells;
    }
    // "crossover" cells score the auto model only; neither preset
    // aggregate should be dragged by deliberately-tied shapes.
  }
  const double auto_fraction =
      results.empty() ? 0.0
                      : static_cast<double>(auto_correct) /
                            static_cast<double>(results.size());
  std::printf(
      "dense: min cost-scaling speedup %.2fx over %d cells; sparse: max "
      "%.2fx over %d cells; auto correct on %d/%zu (%.0f%%); "
      "%d objective disagreements\n",
      dense_min_speedup, dense_cells, sparse_max_speedup, sparse_cells,
      auto_correct, results.size(), 100.0 * auto_fraction, disagreements);

  const std::string out = flags.GetString(
      "backends-out",
      flags.GetString("backends_out", "BENCH_matcher_backends.json"));
  if (!out.empty()) {
    std::ostringstream json;
    json << "{\"config\": {\"scale\": " << obs::JsonNumber(bench.scale)
         << ", \"seed\": " << bench.seed << ", \"nodes\": " << city.NumNodes()
         << ", \"repeat\": " << repeat << ", \"threads\": 1}, \"cells\": [";
    for (size_t i = 0; i < results.size(); ++i) {
      const CellResult& cell = results[i];
      if (i > 0) json << ", ";
      json << "{\"name\": \"" << cell.spec.name << "\", \"preset\": \""
           << cell.spec.preset << "\", \"customers\": " << cell.spec.customers
           << ", \"facilities\": " << cell.spec.facilities
           << ", \"total_capacity\": " << cell.total_capacity
           << ", \"occupancy\": " << obs::JsonNumber(cell.occupancy)
           << ", \"sspa_seconds\": " << obs::JsonNumber(cell.sspa_seconds)
           << ", \"cost_scaling_seconds\": "
           << obs::JsonNumber(cell.cost_scaling_seconds)
           << ", \"speedup\": " << obs::JsonNumber(cell.speedup)
           << ", \"objective_rel_gap\": "
           << obs::JsonNumber(cell.objective_rel_gap)
           << ", \"feasible_agree\": "
           << (cell.feasible_agree ? "true" : "false")
           << ", \"auto_backend\": \""
           << MatcherBackendName(cell.auto_backend) << "\""
           << ", \"auto_correct\": "
           << (cell.auto_correct ? "true" : "false") << "}";
    }
    json << "], \"summary\": {\"cells\": " << results.size()
         << ", \"auto_correct\": " << auto_correct
         << ", \"auto_correct_fraction\": " << obs::JsonNumber(auto_fraction)
         << ", \"dense_cells\": " << dense_cells
         << ", \"dense_min_speedup\": " << obs::JsonNumber(dense_min_speedup)
         << ", \"sparse_cells\": " << sparse_cells
         << ", \"sparse_max_speedup\": "
         << obs::JsonNumber(sparse_max_speedup)
         << ", \"objective_disagreements\": " << disagreements << "}}";
    std::ofstream file(out);
    if (file.is_open()) {
      file << json.str() << "\n";
      if (file.good()) {
        std::printf("(backend crossover written to %s)\n", out.c_str());
      }
    }
  }
  bench_util::FlushArtifacts(flags);
  return disagreements == 0 ? 0 : 1;
}

}  // namespace mcfs

int main(int argc, char** argv) {
  using namespace mcfs;
  const Flags flags(argc, argv);
  const auto bench = bench_util::BenchConfig::FromFlags(flags, 0.05);
  bench_util::Banner("Matcher backends: SSPA vs cost-scaling crossover",
                     bench);
  return RunBackendCrossover(flags, bench);
}
