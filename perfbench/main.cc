// mcfs_perf: the MCFS end-to-end benchmark.
//
//   mcfs_perf --workload {cities_cold|serve_read|serve_churn} --seed N
//             --seconds S --trace {0|1} [--smoke 1]
//             [--reference perfbench/cities_reference.txt]
//             [--trace-dir DIR]
//
// --trace 0 measures the end-to-end rows with obs metrics and tracing
// off; --trace 1 runs the same work untraced and then traced, and
// reports the per-layer rows (counters, phase seconds, the benchmark's
// own timing of ValidateInstance / VerifySolution / ApplyUpdate / ...).
// Every answer is checked; the last stdout line is one JSON object:
//   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
// where attempted counts answers and failed the bad ones. The exit code
// is nonzero when any check failed, answer or not.
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <thread>

#include "common.h"

#ifndef MCFS_PERF_BUILD_TYPE
#define MCFS_PERF_BUILD_TYPE "unknown"
#endif

namespace mcfs::perf {
namespace {

// Every end-to-end row, in output order. A workload reports each one
// for its own unit of work (see perfbench/README.md).
const char* const kEndToEnd[] = {"setup_s", "op_tail_ms", "peak_rss_mb"};

// Every per-layer row with its unit. Rows a workload does not exercise
// read 0 (no serve phases on cities_cold, no prefetch at wma.threads=1).
const std::pair<const char*, const char*> kPerLayer[] = {
    {"graph.stream_nodes_settled", "count"},
    {"graph.stream_edges_relaxed", "count"},
    {"graph.dijkstra_nodes_settled", "count"},
    {"graph.dijkstra_runs", "count"},
    {"graph.prefetch_s", "s"},
    {"graph.prefetch_hit_ratio", "ratio"},
    {"flow.gb_searches", "count"},
    {"flow.edges_materialized", "count"},
    {"flow.gb_nodes_settled", "count"},
    {"flow.gb_heap_pushes", "count"},
    {"flow.rewirings", "count"},
    {"flow.searches_per_edge", "ratio"},
    {"flow.theorem1_prune_ratio", "ratio"},
    {"flow.final_assign_s", "s"},
    {"flow.fast_match_rounds", "count"},
    {"wma.iterations", "count"},
    {"wma.demand_increments", "count"},
    {"wma.matching_s", "s"},
    {"wma.matching_s_per_iter", "s"},
    {"wma.other_s", "s"},
    {"wma.total_s", "s"},
    {"cover.s", "s"},
    {"cover.s_per_iter", "s"},
    {"cover.candidates_scanned", "count"},
    {"cover.stale_reinserts", "count"},
    {"cover.scans_per_selection", "ratio"},
    {"core.validate_s", "s"},
    {"verify.s", "s"},
    {"verify.dijkstra_runs", "count"},
    {"serve.queue_s_p50", "s"},
    {"serve.queue_s_p99", "s"},
    {"serve.preprocess_s_p50", "s"},
    {"serve.preprocess_s_p99", "s"},
    {"serve.solve_s_p50", "s"},
    {"serve.solve_s_p99", "s"},
    {"serve.other_s_p50", "s"},
    {"serve.other_s_p99", "s"},
    {"serve.cache_hit_ratio", "ratio"},
    {"serve.fast_share", "ratio"},
    {"serve.batch_size_mean", "count"},
    {"serve.requests_shed", "count"},
    {"serve.fast_fallthroughs", "count"},
    {"serve.refine_runs", "count"},
    {"serve.tier_upgrades", "count"},
    {"serve.update_s", "s"},
    {"serve.resolve_wma_s", "s"},
    {"serve.resolve_other_s", "s"},
    {"serve.warm_served_ratio", "ratio"},
    {"serve.warm_reuse_ratio", "ratio"},
    {"serve.epoch_rebuilds", "count"},
    {"serve.warm_build_s", "s"},
    {"obs.trace_overhead", "ratio"},
};

void Usage() {
  std::fprintf(stderr,
               "usage: mcfs_perf --workload {cities_cold|serve_read|"
               "serve_churn} --seed N --seconds S --trace {0|1} "
               "[--smoke 1] [--reference PATH] [--trace-dir DIR]\n");
}

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      args->workload = value;
    } else if (key == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      args->seconds = std::strtod(value.c_str(), nullptr);
    } else if (key == "--trace") {
      args->trace = value == "1";
    } else if (key == "--smoke") {
      args->smoke = value == "1";
    } else if (key == "--reference") {
      args->reference_path = value;
    } else if (key == "--trace-dir") {
      args->trace_dir = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args->workload.empty() && args->seconds > 0.0;
}

std::string MetricJson(double value, const std::string& unit) {
  char buffer[96];
  std::snprintf(buffer, sizeof(buffer), "{\"value\": %.17g, \"unit\": \"%s\"}",
                value, unit.c_str());
  return buffer;
}

}  // namespace
}  // namespace mcfs::perf

int main(int argc, char** argv) {
  using namespace mcfs::perf;
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    Usage();
    return 2;
  }
  // The shared pool is sized before anything can create it.
  setenv("MCFS_THREADS", std::to_string(kPoolThreads).c_str(), 1);

  WorkloadResult result;
  if (args.workload == "cities_cold") {
    result = RunCitiesCold(args);
  } else if (args.workload == "serve_read") {
    result = RunServeRead(args);
  } else if (args.workload == "serve_churn") {
    result = RunServeChurn(args);
  } else {
    Usage();
    return 2;
  }

  std::printf(
      "env nproc=%u build_type=%s workload=%s seed=%llu seconds=%g trace=%d "
      "smoke=%d pool_threads=%d clients=%d serve_threads=%d wma_threads=%d "
      "%s\n",
      std::thread::hardware_concurrency(), MCFS_PERF_BUILD_TYPE,
      args.workload.c_str(), static_cast<unsigned long long>(args.seed),
      args.seconds, args.trace ? 1 : 0, args.smoke ? 1 : 0, kPoolThreads,
      kClients, kServeThreads, kWmaThreads, result.environment.c_str());
  const Outcome& outcome = result.outcome;
  for (const std::string& message : outcome.messages) {
    std::printf("FAILED: %s\n", message.c_str());
  }
  for (const std::string& problem : outcome.problems) {
    std::printf("PROBLEM: %s\n", problem.c_str());
  }
  const double failed_frac =
      outcome.attempted == 0
          ? 1.0
          : static_cast<double>(outcome.failed) / outcome.attempted;
  result.named.push_back({"failed_frac", failed_frac, "ratio"});
  result.named.push_back({"peak_rss_mb", PeakRssMb(), "MB"});
  for (const Metric& metric : result.named) {
    std::printf("metric %s = %.6g %s\n", metric.name.c_str(), metric.value,
                metric.unit.c_str());
  }

  std::map<std::string, Metric> rows;
  for (const Metric& metric :
       args.trace ? result.per_layer : result.end_to_end) {
    rows[metric.name] = metric;
  }
  std::string metrics;
  const auto emit = [&](const std::string& name, const std::string& unit) {
    const auto it = rows.find(name);
    const double value = it == rows.end() ? 0.0 : it->second.value;
    if (!metrics.empty()) metrics += ", ";
    metrics += "\"" + name + "\": " + MetricJson(value, unit);
    std::printf("%s %s = %.6g %s\n", args.trace ? "layer" : "e2e",
                name.c_str(), value, unit.c_str());
  };
  if (args.trace) {
    for (const auto& [name, unit] : kPerLayer) emit(name, unit);
  } else {
    for (const char* name : kEndToEnd) {
      const auto it = rows.find(name);
      emit(name, it == rows.end() ? "" : it->second.unit);
    }
  }
  const bool correct = outcome.failed == 0 && outcome.problems.empty() &&
                       outcome.attempted > 0;
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": {%s}}\n",
              correct ? "true" : "false",
              static_cast<long long>(outcome.attempted),
              static_cast<long long>(outcome.failed), metrics.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
