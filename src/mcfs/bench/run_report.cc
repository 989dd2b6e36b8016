#include "mcfs/bench/run_report.h"

#include <fstream>
#include <sstream>

#include "mcfs/obs/metrics.h"

namespace mcfs {

namespace {

// Doubles go through obs::JsonNumber so inf/NaN (e.g. an infeasible or
// deadline-truncated cell's objective) serialize as null, never as the
// invalid-JSON tokens "inf"/"nan".
using obs::JsonNumber;

void AppendWmaStats(const WmaStats& stats, std::ostringstream& out) {
  out << "{\"iterations\": " << stats.iterations
      << ", \"dijkstra_runs\": " << stats.dijkstra_runs
      << ", \"edges_materialized\": " << stats.edges_materialized
      << ", \"theorem1_prunes\": " << stats.theorem1_prunes
      << ", \"rewirings\": " << stats.rewirings
      << ", \"label_correcting_runs\": " << stats.label_correcting_runs
      << ", \"matching_seconds\": " << JsonNumber(stats.matching_seconds)
      << ", \"cover_seconds\": " << JsonNumber(stats.cover_seconds)
      << ", \"prefetch_seconds\": " << JsonNumber(stats.prefetch_seconds)
      << ", \"final_assign_seconds\": "
      << JsonNumber(stats.final_assign_seconds)
      << ", \"total_seconds\": " << JsonNumber(stats.total_seconds)
      << ", \"per_iteration\": [";
  for (size_t i = 0; i < stats.per_iteration.size(); ++i) {
    const WmaIterationStats& iter = stats.per_iteration[i];
    if (i > 0) out << ", ";
    out << "{\"iteration\": " << iter.iteration
        << ", \"covered_customers\": " << iter.covered_customers
        << ", \"matching_seconds\": " << JsonNumber(iter.matching_seconds)
        << ", \"cover_seconds\": " << JsonNumber(iter.cover_seconds)
        << ", \"dijkstra_runs\": " << iter.dijkstra_runs
        << ", \"edges_materialized\": " << iter.edges_materialized << "}";
  }
  out << "]}";
}

}  // namespace

void RunReport::AddCell(const std::string& instance_label,
                        const AlgoOutcome& outcome) {
  cells_.push_back({instance_label, outcome});
}

void RunReport::AddSuite(const std::string& instance_label,
                         const std::vector<AlgoOutcome>& outcomes) {
  for (const AlgoOutcome& outcome : outcomes) {
    AddCell(instance_label, outcome);
  }
}

std::string RunReport::Json() const {
  std::ostringstream out;
  out << "{\"bench\": \"" << obs::JsonEscape(bench_name_)
      << "\", \"cells\": [";
  for (size_t c = 0; c < cells_.size(); ++c) {
    const Cell& cell = cells_[c];
    const AlgoOutcome& outcome = cell.outcome;
    if (c > 0) out << ", ";
    out << "{\"instance\": \"" << obs::JsonEscape(cell.instance_label)
        << "\", \"algorithm\": \"" << obs::JsonEscape(outcome.algorithm)
        << "\", \"objective\": " << JsonNumber(outcome.objective)
        << ", \"seconds\": " << JsonNumber(outcome.seconds)
        << ", \"feasible\": " << (outcome.feasible ? "true" : "false")
        << ", \"failed\": " << (outcome.failed ? "true" : "false")
        << ", \"termination\": \"" << TerminationName(outcome.termination)
        << "\"";
    if (outcome.verify_ran) {
      out << ", \"verified\": " << (outcome.verify_ok ? "true" : "false");
    }
    if (outcome.has_wma_stats) {
      out << ", \"wma\": ";
      AppendWmaStats(outcome.wma_stats, out);
    }
    if (!outcome.metrics.empty()) {
      // Derived convenience value: share of consumed stream candidates
      // the final assignment's parallel prefetch had already buffered
      // (0 when the cell ran serially).
      const auto hits = outcome.metrics.counters.find(
          "exec/stream/prefetch_hits");
      const auto misses = outcome.metrics.counters.find(
          "exec/stream/prefetch_misses");
      if (hits != outcome.metrics.counters.end() &&
          misses != outcome.metrics.counters.end()) {
        const int64_t total = hits->second + misses->second;
        out << ", \"prefetch_hit_rate\": "
            << JsonNumber(total == 0 ? 0.0
                                     : static_cast<double>(hits->second) /
                                           static_cast<double>(total));
      }
      out << ", \"metrics\": " << obs::MetricsJson(outcome.metrics);
    }
    out << "}";
  }
  out << "]}";
  return out.str();
}

bool RunReport::WriteJson(const std::string& path) const {
  std::ofstream file(path);
  if (!file.is_open()) return false;
  file << Json() << "\n";
  return file.good();
}

}  // namespace mcfs
