#include "mcfs/serve/service_report.h"

#include <algorithm>
#include <fstream>
#include <sstream>

#include "mcfs/obs/metrics.h"

namespace mcfs {

LatencySummary SummarizeLatencies(std::vector<double> samples) {
  LatencySummary summary;
  if (samples.empty()) return summary;
  std::sort(samples.begin(), samples.end());
  const size_t n = samples.size();
  summary.count = static_cast<int64_t>(n);
  double sum = 0.0;
  for (const double s : samples) sum += s;
  summary.mean = sum / static_cast<double>(n);
  // Nearest-rank on the sorted samples; with one sample every quantile
  // is that sample.
  summary.p50 = samples[(n - 1) / 2];
  summary.p95 = samples[(n - 1) * 95 / 100];
  summary.p99 = samples[(n - 1) * 99 / 100];
  summary.max = samples.back();
  return summary;
}

LatencySummary SummarizeHistogram(const obs::HistogramSnapshot& snapshot) {
  LatencySummary summary;
  if (snapshot.count == 0) return summary;
  summary.count = snapshot.count;
  summary.mean = snapshot.Mean();
  summary.p50 = snapshot.Quantile(0.50);
  summary.p95 = snapshot.Quantile(0.95);
  summary.p99 = snapshot.Quantile(0.99);
  summary.max = snapshot.max;
  summary.p99_exemplar = snapshot.TailExemplar(0.99);
  return summary;
}

std::string LatencySummaryJson(const LatencySummary& latency) {
  using obs::JsonNumber;
  std::ostringstream out;
  out << "{\"count\": " << latency.count;
  if (latency.count == 0) {
    out << ", \"mean\": null, \"p50\": null, \"p95\": null"
        << ", \"p99\": null, \"max\": null, \"p99_exemplar\": null}";
  } else {
    out << ", \"mean\": " << JsonNumber(latency.mean)
        << ", \"p50\": " << JsonNumber(latency.p50)
        << ", \"p95\": " << JsonNumber(latency.p95)
        << ", \"p99\": " << JsonNumber(latency.p99)
        << ", \"max\": " << JsonNumber(latency.max)
        << ", \"p99_exemplar\": " << latency.p99_exemplar << "}";
  }
  return out.str();
}

std::string SloReportsJson(const std::vector<SloReport>& slos) {
  using obs::JsonNumber;
  std::ostringstream out;
  out << "[";
  for (size_t i = 0; i < slos.size(); ++i) {
    const SloReport& slo = slos[i];
    if (i > 0) out << ", ";
    out << "{\"tier\": \"" << obs::JsonEscape(slo.tier) << "\""
        << ", \"target_latency_ms\": " << JsonNumber(slo.target_latency_ms)
        << ", \"error_budget\": " << JsonNumber(slo.error_budget)
        << ", \"requests\": " << slo.requests
        << ", \"violations\": " << slo.violations
        << ", \"burn\": " << JsonNumber(slo.burn)
        << ", \"last_violation_trace_id\": " << slo.last_violation_trace_id
        << "}";
  }
  out << "]";
  return out.str();
}

std::string ServiceReport::Json() const {
  using obs::JsonNumber;
  const double per_request_preprocess =
      requests_completed == 0
          ? 0.0
          : preprocess_seconds_total / static_cast<double>(requests_completed);
  // One warm-state build does the same component scan a cold
  // ValidateInstance pays per solve, so build_seconds / builds is the
  // per-request preprocessing cost the service amortizes away.
  const double cold_estimate =
      epochs_built == 0 ? 0.0
                        : warm_build_seconds / static_cast<double>(epochs_built);
  std::ostringstream out;
  out << "{\"service\": {\"epoch\": " << epoch
      << ", \"epochs_built\": " << epochs_built
      << ", \"warm_build_seconds\": " << JsonNumber(warm_build_seconds)
      << "}"
      << ", \"requests\": {\"admitted\": " << requests_admitted
      << ", \"rejected\": " << requests_rejected
      << ", \"completed\": " << requests_completed
      << ", \"failed\": " << requests_failed
      << ", \"shed\": " << requests_shed
      << ", \"degraded\": " << degraded_responses
      << ", \"fast\": " << fast_responses
      << ", \"cache_hits\": " << cache_hits
      << ", \"deadline_terminations\": " << deadline_terminations << "}"
      << ", \"batches\": {\"count\": " << batches
      << ", \"max_size\": " << max_batch_size << "}";
  // Latency block: histogram-derived quantiles. An empty histogram has
  // no statistics — the helper emits explicit nulls so consumers never
  // see 0.0 (or worse, +/-inf fold results) masquerading as a
  // measurement.
  out << ", \"latency_seconds\": " << LatencySummaryJson(latency);
  out << ", \"slo\": " << SloReportsJson(slos)
      << ", \"phase_seconds\": {\"queue\": " << JsonNumber(queue_seconds_total)
      << ", \"preprocess\": " << JsonNumber(preprocess_seconds_total)
      << ", \"solve\": " << JsonNumber(solve_seconds_total) << "}"
      << ", \"resolve\": {\"updates\": " << resolve_updates
      << ", \"noop_updates\": " << resolve_noop_updates
      << ", \"ops_applied\": " << resolve_ops_applied
      << ", \"components_dirtied\": " << resolve_components_dirtied
      << ", \"warm\": " << resolves_warm << ", \"cold\": " << resolves_cold
      << ", \"verify_rejections\": " << resolve_verify_rejections
      << ", \"warm_customers_reused\": " << warm_customers_reused
      << ", \"warm_customers_repaired\": " << warm_customers_repaired
      << ", \"warm_seconds\": " << JsonNumber(resolve_warm_seconds)
      << ", \"cold_seconds\": " << JsonNumber(resolve_cold_seconds) << "}"
      << ", \"postmortems\": " << postmortems
      << ", \"tiered\": {\"fast_responses\": " << fast_responses
      << ", \"fast_fallthroughs\": " << fast_fallthroughs
      << ", \"refines_enqueued\": " << refines_enqueued
      << ", \"refine_runs\": " << refine_runs
      << ", \"refine_upgrades\": " << refine_upgrades
      << ", \"refine_discards\": " << refine_discards << "}"
      << ", \"latency_by_tier\": {\"fast\": "
      << LatencySummaryJson(latency_fast)
      << ", \"full\": " << LatencySummaryJson(latency_full)
      << ", \"degraded\": " << LatencySummaryJson(latency_degraded) << "}"
      << ", \"fault_tolerance\": {\"degraded_responses\": "
      << degraded_responses << ", \"degraded_fallbacks\": " << degraded_fallbacks
      << ", \"requests_shed\": " << requests_shed
      << ", \"checkpoints\": {\"saved\": " << checkpoints_saved
      << ", \"restored\": " << checkpoints_restored
      << ", \"failures\": " << checkpoint_failures << "}"
      << ", \"faults_injected\": " << faults_injected << "}"
      << ", \"amortization\": {\"cold_preprocess_seconds_per_request\": "
      << JsonNumber(cold_estimate)
      << ", \"warm_preprocess_seconds_per_request\": "
      << JsonNumber(per_request_preprocess) << "}}";
  return out.str();
}

bool ServiceReport::WriteJson(const std::string& path) const {
  std::ofstream file(path);
  if (!file.is_open()) return false;
  file << Json() << "\n";
  return file.good();
}

}  // namespace mcfs
