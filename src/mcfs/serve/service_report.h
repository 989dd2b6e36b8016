#ifndef MCFS_SERVE_SERVICE_REPORT_H_
#define MCFS_SERVE_SERVICE_REPORT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "mcfs/obs/histogram.h"

namespace mcfs {

// End-to-end request latency summary (seconds, admission to completion).
// Derived from the service's log-scale latency histogram — quantiles
// are exact to within one histogram bucket width (a factor of
// obs::kHistogramGrowth) and clamped to the exact tracked max, so
// p50 <= p95 <= p99 <= max always holds. `count == 0` means "no data":
// Json() then emits null for every statistic, never garbage.
struct LatencySummary {
  int64_t count = 0;
  double mean = 0.0;
  double p50 = 0.0;
  double p95 = 0.0;
  double p99 = 0.0;
  double max = 0.0;
  // Trace id of a recent request in the tail (>= p99) bucket, 0 when
  // unattributed — the "why is p99 bad" jump-off point.
  uint64_t p99_exemplar = 0;
};

// Per-tier SLO accounting (DESIGN.md §4.11). A tier's error budget is
// the tolerated fraction of requests allowed to miss the latency
// target; `burn` is the fraction of that budget consumed so far
// (violations / (budget * requests), >1 = budget blown).
struct SloReport {
  std::string tier;
  double target_latency_ms = 0.0;
  double error_budget = 0.0;  // tolerated violation fraction, in (0,1]
  int64_t requests = 0;
  int64_t violations = 0;
  double burn = 0.0;
  // Trace id of the most recent violating request (0 = none).
  uint64_t last_violation_trace_id = 0;
};

// Aggregated SolverService statistics: request counts, batch shape,
// phase times, and the inputs of the cold-vs-warm amortization story
// (what one warm-state build cost vs. what requests pay per solve).
// Produced by SolverService::Report(); serialized by Json() with
// non-finite doubles rendered as null (obs::JsonNumber).
struct ServiceReport {
  uint64_t epoch = 0;         // current warm-state epoch
  int64_t epochs_built = 0;   // warm-state builds (initial + updates)
  double warm_build_seconds = 0.0;  // total across all builds

  int64_t requests_admitted = 0;
  int64_t requests_rejected = 0;  // queue full / shut down
  int64_t requests_completed = 0;
  int64_t requests_failed = 0;  // completed with a non-OK status
  // Admission-time overload sheds (DESIGN.md §4.13): estimated queue
  // wait already exceeded the request deadline, or a fault-injected
  // queue pulse. Distinct from requests_rejected (hard queue-full).
  int64_t requests_shed = 0;
  int64_t cache_hits = 0;
  int64_t deadline_terminations = 0;

  int64_t batches = 0;
  int max_batch_size = 0;

  // Totals across completed requests, by phase.
  double queue_seconds_total = 0.0;
  double preprocess_seconds_total = 0.0;
  double solve_seconds_total = 0.0;

  // --- Incremental re-solve (DESIGN.md §4.10) ---
  int64_t resolve_updates = 0;       // state-changing updates applied
  int64_t resolve_noop_updates = 0;  // updates detected as no-ops
  // Typed ops across accepted updates; UpdateCapacities counts one
  // kCapacityDelta per changed facility.
  int64_t resolve_ops_applied = 0;
  int64_t resolve_components_dirtied = 0;  // dirty bits flipped 0 -> 1
  int64_t resolves_warm = 0;         // ResolveTracked runs off a seed
  int64_t resolves_cold = 0;         // ResolveTracked cold runs
  int64_t resolve_verify_rejections = 0;  // warm solves the verifier vetoed
  int64_t warm_customers_reused = 0;      // adopted from the previous epoch
  int64_t warm_customers_repaired = 0;    // re-enqueued after the resume
  double resolve_warm_seconds = 0.0;
  double resolve_cold_seconds = 0.0;

  // --- Observability v2 (DESIGN.md §4.11) ---
  // Flight-recorder postmortems captured (verifier rejections,
  // kInternal/kInfeasible responses, deadline-exceeded warm solves).
  int64_t postmortems = 0;

  // --- Fault-tolerant serving (DESIGN.md §4.13) ---
  int64_t degraded_responses = 0;  // responses served tier=degraded
  int64_t degraded_fallbacks = 0;  // of those, synthesized baselines
  int64_t checkpoints_saved = 0;
  int64_t checkpoints_restored = 0;
  int64_t checkpoint_failures = 0;  // failed saves + failed restores
  int64_t faults_injected = 0;      // FaultPlan fires acted on in-serve

  // --- Tiered serving (DESIGN.md §4.14) ---
  int64_t fast_responses = 0;     // responses served tier=fast
  int64_t fast_fallthroughs = 0;  // fast attempts that fell to the queue
  int64_t refines_enqueued = 0;   // background refinements queued
  int64_t refine_runs = 0;        // background refinements completed
  int64_t refine_upgrades = 0;    // cache entries upgraded in place
  // Refinements whose target vanished first: the epoch moved, the entry
  // was evicted, or a full solve already overtook the upgrade.
  int64_t refine_discards = 0;

  LatencySummary latency;
  // Latency split by the tier the response was served at (DESIGN.md
  // §4.14) — the fast-vs-converged p99 comparison the tiered bench
  // gates on. Tiers with no traffic carry count == 0 (JSON nulls).
  LatencySummary latency_fast;
  LatencySummary latency_full;
  LatencySummary latency_degraded;
  std::vector<SloReport> slos;  // one row per configured tier

  std::string Json() const;
  bool WriteJson(const std::string& path) const;
};

// Fills `latency` from raw per-request samples (sorts a copy; empty
// input yields an all-zero summary). Exact nearest-rank quantiles —
// kept as the brute-force reference the histogram path is tested
// against (quantile agreement within one bucket width).
LatencySummary SummarizeLatencies(std::vector<double> samples);

// Fills `latency` from a log-scale histogram snapshot: exact
// count/mean/max, bucket-quantile p50/p95/p99 clamped to the exact
// extremes, and the tail exemplar trace id.
LatencySummary SummarizeHistogram(const obs::HistogramSnapshot& snapshot);

// JSON object for one latency summary: {"count":..,"mean":..,"p50":..,
// "p95":..,"p99":..,"max":..,"p99_exemplar":..}. count == 0 emits null
// for every statistic (no data is not the same as 0 seconds). Shared by
// ServiceReport::Json and ServiceSnapshot::Json so the two stay
// schema-identical.
std::string LatencySummaryJson(const LatencySummary& latency);

// JSON array of SLO rows, one object per tier.
std::string SloReportsJson(const std::vector<SloReport>& slos);

}  // namespace mcfs

#endif  // MCFS_SERVE_SERVICE_REPORT_H_
