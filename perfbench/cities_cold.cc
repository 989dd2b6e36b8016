// cities_cold: the four Table IV city presets (c=20, every node a
// candidate; bench_table4_cities scales m=512, k=51 down to m=32, k=4 at
// scale 0.01), each solved cold by exact WMA with one thread. A round
// solves all four; each city's solve is timed on its own, and a batch
// time (median, p10, p90) is the sum of the per-city ones.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>

#include "common.h"
#include "mcfs/common/random.h"
#include "mcfs/core/validate.h"
#include "mcfs/core/verifier.h"
#include "mcfs/graph/road_network.h"
#include "mcfs/obs/trace.h"
#include "mcfs/workload/workload.h"

namespace mcfs::perf {
namespace {

// At 0.01 a round takes about 1 s, over some 3,600 demand-growth
// iterations that are 97% of the solve time (as at 0.04, where a round
// takes 12 s), so a run times every city some 25 times.
constexpr double kScale = 0.01;
constexpr double kSmokeScale = 0.005;
// The cities are the Table IV instances of bench_table4_cities at its
// default seed. They stay fixed so that batch_solve_s measures the code,
// not the luck of the draw (across seeds one round ranges over a factor
// of two); the run seed only orders the cities within each round.
constexpr uint64_t kInstanceSeed = 42;
// Timed rounds per run, at least, so each city's p10 and p90 are
// apart from its extremes.
constexpr int kMinRounds = 10;

struct CitySet {
  std::vector<std::string> names;
  std::vector<std::unique_ptr<Graph>> graphs;
  std::vector<McfsInstance> instances;
};

// Mirrors bench_table4_cities: presets seeded seed..seed+3, customers
// and the candidate order drawn from Rng(seed + 17).
CitySet BuildCities(double scale, uint64_t seed) {
  const CityOptions presets[] = {
      AalborgPreset(scale, seed), RigaPreset(scale, seed + 1),
      CopenhagenPreset(scale, seed + 2), LasVegasPreset(scale, seed + 3)};
  const int m =
      std::max(32, static_cast<int>(512 * std::min(1.0, 4 * scale)));
  CitySet set;
  for (const CityOptions& preset : presets) {
    set.names.push_back(preset.name);
    set.graphs.push_back(std::make_unique<Graph>(GenerateCity(preset)));
    const Graph& city = *set.graphs.back();
    Rng rng(seed + 17);
    McfsInstance instance;
    instance.graph = &city;
    instance.customers = SampleDistinctNodes(city, m, rng);
    instance.facility_nodes = SampleDistinctNodes(city, city.NumNodes(), rng);
    instance.capacities = UniformCapacities(city.NumNodes(), 20);
    instance.k = std::max(4, m / 10);
    set.instances.push_back(std::move(instance));
  }
  return set;
}

// Recorded per-city objectives ("objective <scale> <seed> <city> <v>")
// and exact-match counters ("counter <scale> <seed> <name> <v>").
struct Recorded {
  std::map<std::string, double> objectives;  // city -> objective
  std::map<std::string, int64_t> counters;
};

Recorded LoadRecorded(const std::string& path, double scale, uint64_t seed) {
  Recorded recorded;
  std::ifstream file(path);
  std::string line;
  while (std::getline(file, line)) {
    std::istringstream in(line);
    std::string kind, name;
    double line_scale = 0.0;
    uint64_t line_seed = 0;
    if (!(in >> kind >> line_scale >> line_seed >> name)) continue;
    if (line_scale != scale || line_seed != seed) continue;
    if (kind == "objective") {
      in >> recorded.objectives[name];
    } else if (kind == "counter") {
      in >> recorded.counters[name];
    }
  }
  return recorded;
}

// Orders the four cities by the run seed (Fisher-Yates).
void ShuffleCities(uint64_t seed, CitySet* set) {
  Rng rng(seed);
  for (size_t i = set->names.size() - 1; i > 0; --i) {
    const size_t j = static_cast<size_t>(
        rng.UniformInt(0, static_cast<int64_t>(i)));
    std::swap(set->names[i], set->names[j]);
    std::swap(set->graphs[i], set->graphs[j]);
    std::swap(set->instances[i], set->instances[j]);
  }
}

struct CitySolve {
  double seconds = 0.0;  // the SolveWma call only
  McfsSolution solution;
  std::string error;  // why the answer is bad; empty when it is good
};

struct CityPass {
  double wall = 0.0;  // SolveWma calls only
  std::vector<CitySolve> solves;  // in set order
  WmaTotals wma;
  double validate_seconds = 0.0;
  double verify_seconds = 0.0;
  obs::MetricsSnapshot counters;  // after the solves, before verifying
  int64_t verify_dijkstra_runs = 0;
};

// One round over the four cities. The benchmark's own ValidateInstance
// and VerifySolution calls around the solves are timed on their own.
CityPass RunPass(const CitySet& set, int threads) {
  CityPass pass;
  const WmaOptions options = BaseWmaOptions(threads);
  for (size_t c = 0; c < set.instances.size(); ++c) {
    CitySolve& solve = pass.solves.emplace_back();
    {
      MCFS_SPAN("bench/validate_instance");
      const double t0 = NowSeconds();
      const Status valid = ValidateInstance(set.instances[c]);
      pass.validate_seconds += NowSeconds() - t0;
      if (!valid.ok()) solve.error = "invalid: " + valid.ToString();
    }
    const double t0 = NowSeconds();
    StatusOr<WmaResult> result = [&] {
      MCFS_SPAN("bench/solve_wma");
      return SolveWma(set.instances[c], options);
    }();
    solve.seconds = NowSeconds() - t0;
    pass.wall += solve.seconds;
    if (!result.ok()) {
      solve.error = "solve failed: " + result.status().ToString();
      continue;
    }
    pass.wma.Add(result.value().stats);
    solve.solution = std::move(result).value().solution;
  }
  pass.counters = obs::SnapshotMetrics();
  const double t0 = NowSeconds();
  for (size_t c = 0; c < set.instances.size(); ++c) {
    MCFS_SPAN("bench/verify_solution");
    const VerifyReport report =
        VerifySolution(set.instances[c], pass.solves[c].solution);
    pass.verify_dijkstra_runs += report.dijkstra_runs;
    if (!report.ok && pass.solves[c].error.empty()) {
      pass.solves[c].error = "verifier rejected";
    }
  }
  pass.verify_seconds = NowSeconds() - t0;
  return pass;
}

// One check per answer: it passed validation and the verifier, it is a
// converged feasible solution, and it reproduces the first round (and
// the recorded objective when this scale and seed have one) bit for bit.
void CheckPass(const CitySet& set, const CityPass& pass,
               const CityPass& first, const Recorded& recorded,
               Outcome* outcome) {
  for (size_t c = 0; c < set.names.size(); ++c) {
    const McfsSolution& solution = pass.solves[c].solution;
    std::string error = pass.solves[c].error;
    if (error.empty() && (solution.termination != Termination::kConverged ||
                          !solution.feasible)) {
      error = "not a converged feasible solution";
    }
    if (error.empty() && !SameSolution(solution, first.solves[c].solution)) {
      error = "solution differs between rounds";
    }
    const auto it = recorded.objectives.find(set.names[c]);
    if (error.empty() && it != recorded.objectives.end() &&
        std::memcmp(&it->second, &solution.objective, sizeof(double)) != 0) {
      char message[128];
      std::snprintf(message, sizeof(message),
                    "objective %.17g != recorded %.17g", solution.objective,
                    it->second);
      error = message;
    }
    outcome->Check(error.empty(), set.names[c] + ": " + error);
  }
}

}  // namespace

WorkloadResult RunCitiesCold(const Args& args) {
  WorkloadResult result;
  const double scale = args.smoke ? kSmokeScale : kScale;
  Outcome& outcome = result.outcome;

  CitySet set;
  const double setup_s = MedianSetupSeconds([&] {
    set = CitySet();  // the old cities are freed outside the timing
    const double t0 = NowSeconds();
    set = BuildCities(scale, kInstanceSeed);
    return NowSeconds() - t0;
  });
  // One untimed solve of the smallest city (Aalborg, first before the
  // shuffle) pays for the process's first-touch allocations.
  SetObservability(false);
  (void)SolveWma(set.instances[0], BaseWmaOptions(kWmaThreads));
  ShuffleCities(args.seed, &set);
  const Recorded recorded =
      LoadRecorded(args.reference_path, scale, kInstanceSeed);
  {
    std::ostringstream env;
    env << "scale=" << scale << " cities=" << set.names.size()
        << " m=" << set.instances[0].m() << " k=" << set.instances[0].k
        << " recorded_objectives=" << recorded.objectives.size();
    result.environment = env.str();
  }
  if (recorded.objectives.empty()) {
    std::printf("(no recorded objectives at scale %g: rounds are checked "
                "against each other and the verifier only)\n",
                scale);
  }

  if (!args.trace) {
    const double start = NowSeconds();
    std::vector<CityPass> passes;
    do {
      passes.push_back(RunPass(set, kWmaThreads));
    } while (passes.size() < kMinRounds ||
             NowSeconds() - start < args.seconds);
    std::vector<std::vector<double>> per_city(set.names.size());
    double solve_seconds = 0.0;
    for (const CityPass& pass : passes) {
      CheckPass(set, pass, passes.front(), recorded, &outcome);
      for (size_t c = 0; c < set.names.size(); ++c) {
        per_city[c].push_back(pass.solves[c].seconds);
      }
      solve_seconds += pass.wall;
    }
    // On a shared host each vCPU runs fast or about 1.6x slower in
    // phases of seconds to minutes, so the median and the p10 move with
    // the share of fast phases in a run. The p90 sits in the slow mode,
    // which every run reaches, and is the figure that is gated.
    double batch = 0.0, batch_p10 = 0.0, batch_p90 = 0.0;
    for (size_t c = 0; c < set.names.size(); ++c) {
      batch += Median(per_city[c]);
      batch_p10 += Quantile(per_city[c], 0.1);
      batch_p90 += Quantile(per_city[c], 0.9);
      std::printf("city %-10s solve p10 %.6f s median %.6f s p90 %.6f s "
                  "over %zu, objective %.17g\n",
                  set.names[c].c_str(), Quantile(per_city[c], 0.1),
                  Median(per_city[c]), Quantile(per_city[c], 0.9),
                  per_city[c].size(),
                  passes.back().solves[c].solution.objective);
    }
    const double solves = static_cast<double>(passes.size() * set.names.size());
    result.end_to_end = {
        {"setup_s", setup_s, "s"},
        {"op_tail_ms", batch_p90 * 1e3, "ms"},
        {"peak_rss_mb", PeakRssMb(), "MB"},
    };
    result.named = {
        {"batch_solve_s", batch, "s"},
        {"batch_solve_p10_s", batch_p10, "s"},
        {"batch_solve_p90_s", batch_p90, "s"},
        {"batch_solve_rounds", static_cast<double>(passes.size()), "count"},
        {"throughput_solves", solves / solve_seconds, "1/s"},
        {"setup_s", setup_s, "s"},
    };
    return result;
  }

  // Per-layer: an untraced round for the overhead baseline, then traced
  // rounds at threads=1 and threads=2 whose non-exec/ counters must agree.
  const CityPass plain = RunPass(set, 1);
  SetObservability(true);
  const CityPass one = RunPass(set, 1);
  ReportSpans(args, "cities_cold");
  SetObservability(true);
  const CityPass two = RunPass(set, 2);
  SetObservability(false);
  for (const CityPass* pass : {&plain, &one, &two}) {
    CheckPass(set, *pass, plain, recorded, &outcome);
  }

  // Deterministic counters: identical at threads=1 and threads=2.
  int differing = 0, recorded_match = 0, recorded_differ = 0;
  std::printf("exact-match counters (threads=1 round):\n");
  for (const auto& [name, value] : one.counters.counters) {
    if (name.rfind("exec/", 0) == 0) continue;
    const int64_t other = CounterValue(two.counters, name);
    std::printf("counter %s %lld%s\n", name.c_str(),
                static_cast<long long>(value),
                other == value ? "" : "  DIFFERS at threads=2");
    if (other != value) {
      ++differing;
      outcome.Problem("counter " + name + " differs between threads=1 and 2");
    }
    const auto it = recorded.counters.find(name);
    if (it != recorded.counters.end()) {
      ++(it->second == value ? recorded_match : recorded_differ);
    }
  }
  std::printf("non-exec counters: %d differ between threads=1 and "
              "threads=2; %d match and %d differ from the recorded values\n",
              differing, recorded_match, recorded_differ);

  if (!CheckPhases("cities_cold traced round", one.wall,
                   {{"wma.matching_s", one.wma.matching, "s"},
                    {"cover.s", one.wma.cover, "s"},
                    {"flow.final_assign_s", one.wma.final_assign, "s"},
                    {"wma.other_s",
                     one.wma.total - one.wma.matching - one.wma.cover -
                         one.wma.final_assign,
                     "s"}},
                   "solve_wrapper_s")) {
    outcome.Problem("phase accounting");
  }

  AddSolverLayerRows(one.counters, one.wma, 1.0, &result.per_layer);
  const int64_t hits = CounterValue(two.counters, "exec/stream/prefetch_hits");
  const int64_t misses =
      CounterValue(two.counters, "exec/stream/prefetch_misses");
  result.per_layer.insert(
      result.per_layer.end(),
      {{"graph.prefetch_s", two.wma.prefetch, "s"},
       {"graph.prefetch_hit_ratio",
        Ratio(static_cast<double>(hits), static_cast<double>(hits + misses)),
        "ratio"},
       {"core.validate_s", one.validate_seconds, "s"},
       {"verify.s", one.verify_seconds, "s"},
       {"verify.dijkstra_runs",
        static_cast<double>(one.verify_dijkstra_runs), "count"},
       {"obs.trace_overhead", one.wall / plain.wall - 1.0, "ratio"}});
  return result;
}

}  // namespace mcfs::perf
