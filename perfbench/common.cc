#include "common.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <map>

#include "mcfs/obs/trace.h"

namespace mcfs::perf {

void Outcome::Check(bool ok, const std::string& message) {
  ++attempted;
  if (ok) return;
  ++failed;
  if (messages.size() < 20) messages.push_back(message);
}

void Outcome::Problem(const std::string& message) {
  problems.push_back(message);
}

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const size_t index = static_cast<size_t>(std::max(1.0, rank)) - 1;
  return values[std::min(index, values.size() - 1)];
}

double PeakRssMb() {
  rusage usage;
  std::memset(&usage, 0, sizeof(usage));
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double MedianSetupSeconds(const std::function<double()>& one_setup) {
  std::vector<double> samples;
  double spent = 0.0;
  while (samples.size() < static_cast<size_t>(kMinSetups) ||
         (spent < kSetupBudgetSeconds &&
          samples.size() < static_cast<size_t>(kMaxSetups))) {
    samples.push_back(one_setup());
    spent += samples.back();
  }
  return Median(samples);
}

bool SameSolution(const McfsSolution& a, const McfsSolution& b) {
  return a.selected == b.selected && a.assignment == b.assignment &&
         a.distances == b.distances &&
         std::memcmp(&a.objective, &b.objective, sizeof(double)) == 0;
}

WmaOptions BaseWmaOptions(int threads) {
  WmaOptions options;
  options.threads = threads;
  options.matcher = MatcherBackendKind::kSspa;
  options.metrics = false;
  return options;
}

void SetObservability(bool on) {
  obs::EnableMetrics(on);
  obs::EnableTracing(on);
  obs::ResetMetrics();
  obs::ClearTrace();
}

int64_t CounterValue(const obs::MetricsSnapshot& snapshot,
                     const std::string& name) {
  const auto it = snapshot.counters.find(name);
  return it == snapshot.counters.end() ? 0 : it->second;
}

double Ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

void WmaTotals::Add(const WmaStats& stats) {
  matching += stats.matching_seconds;
  cover += stats.cover_seconds;
  final_assign += stats.final_assign_seconds;
  prefetch += stats.prefetch_seconds;
  total += stats.total_seconds;
  iterations += stats.iterations;
}

void AddSolverLayerRows(const obs::MetricsSnapshot& c, const WmaTotals& wma,
                        double units, std::vector<Metric>* rows) {
  const auto per = [&](const std::string& counter) {
    return Ratio(static_cast<double>(CounterValue(c, counter)), units);
  };
  const double searches = per("matcher/searches");
  const double edges = per("matcher/edges_materialized");
  const double iterations = per("wma/iterations");
  const double matching = wma.matching / units;
  const double cover = wma.cover / units;
  const double final_assign = wma.final_assign / units;
  const double total = wma.total / units;
  const std::vector<Metric> layer = {
      {"graph.stream_nodes_settled", per("stream/nodes_settled"), "count"},
      {"graph.stream_edges_relaxed", per("stream/edges_relaxed"), "count"},
      {"graph.dijkstra_nodes_settled", per("dijkstra/nodes_settled"),
       "count"},
      {"graph.dijkstra_runs",
       per("dijkstra/full_runs") + per("dijkstra/bounded_runs") +
           per("dijkstra/multi_source_runs"),
       "count"},
      {"flow.gb_searches", searches, "count"},
      {"flow.edges_materialized", edges, "count"},
      {"flow.gb_nodes_settled", per("matcher/gb_nodes_settled"), "count"},
      {"flow.gb_heap_pushes", per("matcher/gb_heap_pushes"), "count"},
      {"flow.rewirings", per("matcher/rewirings"), "count"},
      {"flow.searches_per_edge", Ratio(searches, edges), "ratio"},
      {"flow.theorem1_prune_ratio",
       Ratio(per("matcher/theorem1_prunes"), searches), "ratio"},
      {"flow.final_assign_s", final_assign, "s"},
      {"flow.fast_match_rounds", per("fast_match/rounds"), "count"},
      {"wma.iterations", iterations, "count"},
      {"wma.demand_increments", per("wma/demand_increments"), "count"},
      {"wma.matching_s", matching, "s"},
      {"wma.matching_s_per_iter", Ratio(matching, iterations), "s"},
      {"wma.other_s", total - matching - cover - final_assign, "s"},
      {"wma.total_s", total, "s"},
      {"cover.s", cover, "s"},
      {"cover.s_per_iter", Ratio(cover, iterations), "s"},
      {"cover.candidates_scanned", per("cover/candidates_scanned"), "count"},
      {"cover.stale_reinserts", per("cover/stale_reinserts"), "count"},
      {"cover.scans_per_selection",
       Ratio(per("cover/candidates_scanned"), per("cover/selections")),
       "ratio"},
  };
  rows->insert(rows->end(), layer.begin(), layer.end());
}

bool CheckPhases(const std::string& label, double end_to_end,
                 const std::vector<Metric>& phases,
                 const std::string& remainder_name) {
  double sum = 0.0;
  bool ok = true;
  for (const Metric& phase : phases) {
    sum += phase.value;
    if (phase.value < 0.0) ok = false;
  }
  const double remainder = end_to_end - sum;
  // A remainder below zero means the phases claim more time than the
  // end-to-end window holds; allow float rounding only.
  if (remainder < -1e-9 * std::max(1.0, end_to_end)) ok = false;
  std::printf("phases %s (end to end %.6f s):\n", label.c_str(), end_to_end);
  for (const Metric& phase : phases) {
    std::printf("  %-26s %12.6f s %6.1f%%\n", phase.name.c_str(), phase.value,
                100.0 * Ratio(phase.value, end_to_end));
  }
  std::printf("  %-26s %12.6f s %6.1f%%  (remainder)\n",
              remainder_name.c_str(), remainder,
              100.0 * Ratio(remainder, end_to_end));
  const double total = sum + remainder;
  std::printf("  %-26s %12.6f s  rows sum to end to end: %s\n", "sum", total,
              std::abs(total - end_to_end) <= 1e-9 * std::max(1.0, end_to_end)
                  ? "yes"
                  : "NO");
  if (!ok) std::printf("  PHASE ACCOUNTING FAILED for %s\n", label.c_str());
  return ok;
}

void ReportSpans(const Args& args, const std::string& label) {
  if (!args.trace_dir.empty()) {
    std::error_code error;
    std::filesystem::create_directories(args.trace_dir, error);
    const std::string path = args.trace_dir + "/trace-" + label + ".json";
    if (obs::WriteChromeTrace(path)) {
      std::printf("(chrome trace written to %s)\n", path.c_str());
    }
  }
  // Self time: a span's duration minus its direct children's, found by
  // walking each thread's spans in start order with a nesting stack.
  struct Agg {
    int64_t count = 0;
    int64_t total_us = 0;
    int64_t self_us = 0;
  };
  std::map<std::string, Agg> by_name;
  std::map<int, std::vector<obs::TraceEvent>> by_thread;
  for (obs::TraceEvent& event : obs::CollectTraceEvents()) {
    by_thread[event.tid].push_back(std::move(event));
  }
  for (auto& [tid, events] : by_thread) {
    std::sort(events.begin(), events.end(),
              [](const obs::TraceEvent& a, const obs::TraceEvent& b) {
                return a.start_us != b.start_us ? a.start_us < b.start_us
                                                : a.depth < b.depth;
              });
    std::vector<size_t> stack;
    std::vector<int64_t> child_us(events.size(), 0);
    const auto close = [&](size_t i) {
      Agg& agg = by_name[events[i].name];
      ++agg.count;
      agg.total_us += events[i].dur_us;
      agg.self_us += events[i].dur_us - child_us[i];
    };
    for (size_t i = 0; i < events.size(); ++i) {
      while (!stack.empty() &&
             events[stack.back()].start_us + events[stack.back()].dur_us <=
                 events[i].start_us) {
        close(stack.back());
        stack.pop_back();
      }
      if (!stack.empty()) child_us[stack.back()] += events[i].dur_us;
      stack.push_back(i);
    }
    while (!stack.empty()) {
      close(stack.back());
      stack.pop_back();
    }
  }
  std::printf("spans %s (count, total s, self s):\n", label.c_str());
  for (const auto& [name, agg] : by_name) {
    std::printf("  %-24s %9lld %12.6f %12.6f\n", name.c_str(),
                static_cast<long long>(agg.count), agg.total_us * 1e-6,
                agg.self_us * 1e-6);
  }
}

}  // namespace mcfs::perf
