#ifndef MCFS_CORE_WMA_H_
#define MCFS_CORE_WMA_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "mcfs/common/deadline.h"
#include "mcfs/common/status.h"
#include "mcfs/core/instance.h"
#include "mcfs/flow/matcher.h"

namespace mcfs {

// Cross-epoch warm-start state for the exact WMA path (DESIGN.md
// §4.10). Node-keyed, so it stays meaningful after catalog edits; the
// consuming run maps nodes back into its own index space and drops
// whatever a delta invalidated.
struct WmaWarmSeed {
  // Full-catalog matcher snapshot from the demand-growth loop. Only its
  // *stream prefixes* are reused: the discovery sequence is a pure
  // function of (graph, source, candidate membership), so seeding them
  // replays the trajectory bit-identically to a cold run minus the
  // network-Dijkstra cost. Its matches/potentials are never adopted —
  // that could steer the loop onto a different selection than cold.
  WarmSeed trajectory;
  // Final-assignment matcher snapshot over the previously selected
  // facilities. Resumed wholesale (edges, matches, potentials) when the
  // new run selects the same facility node set.
  WarmSeed final_assign;
};

// Exact equality (bitwise on doubles) — see flow/matcher.h; used to
// hold checkpoint round trips to byte identity.
inline bool operator==(const WmaWarmSeed& a, const WmaWarmSeed& b) {
  return a.trajectory == b.trajectory && a.final_assign == b.final_assign;
}

// Options for the Wide Matching Algorithm.
struct WmaOptions {
  // Use the greedy "WMA Naive" matching instead of the exact
  // incremental bipartite matching (the paper's scalable baseline,
  // Sec. VII-A): each iteration assigns customers to their nearest
  // available facilities in a random order, without rewiring.
  bool naive = false;
  // Seed for the naive variant's random customer orders.
  uint64_t seed = 42;
  // Break equal-coverage ties in CheckCover toward the facility whose
  // matched customers are nearest (improves the objective noticeably on
  // sparse instances; see the tie-break ablation bench). When false,
  // ties fall back to the paper's recency-only rule.
  bool cost_tie_break = true;
  // Record per-iteration statistics (Fig. 12b).
  bool collect_iteration_stats = false;
  // Safety cap on main-loop iterations; 0 derives the paper's m*l bound.
  int max_iterations = 0;
  // Threads for the one parallel burst of a solve: the nearest-facility
  // stream prefetch that opens the final batch assignment. The
  // demand-growth loop is serial at every value. 0 resolves via
  // MCFS_THREADS / hardware_concurrency, 1 (or negative) is fully
  // serial. Results are bit-identical for every value — parallelism
  // only moves when distances are computed, never which entry the
  // matcher consumes next (see DESIGN.md "Parallel execution layer").
  int threads = 0;
  // Turn on the process-wide obs MetricsRegistry for this run (same as
  // exporting MCFS_METRICS=1): hot-path counters and phase-time
  // distributions accumulate under wma/, matcher/, stream/, dijkstra/,
  // cover/, ch/ and exec/* names. Off by default — the guarded macros
  // then cost one relaxed atomic load per site (see DESIGN.md
  // "Observability").
  bool metrics = false;
  // Wall-clock budget in milliseconds; 0 = unlimited. On expiry the
  // demand-growth loop stops at the next checkpoint (iteration top,
  // per-customer augmentation boundary, every 64 CheckCover scans) and
  // the run degrades to anytime mode: the wrap-up provisions and the
  // final assignment still execute, so the returned solution is the
  // best-so-far feasible one, marked Termination::kDeadline. Without a
  // deadline the solver's behavior is bit-identical to before.
  int64_t deadline_ms = 0;
  // Direct deadline object; used when deadline_ms == 0. Lets callers
  // share one budget across phases, and Deadline::AfterPolls(n) gives
  // the fault-injection tests a deterministic mid-solve expiry point.
  Deadline deadline = Deadline::Infinite();
  // Optional external cancellation, polled at the same checkpoints as
  // the deadline and reported as Termination::kDeadline.
  const CancelToken* cancel = nullptr;
  // Matching engine for the *final assignment* (the demand-growth loop
  // always runs the SSPA IncrementalMatcher — its per-iteration deltas
  // have no cost-scaling counterpart). kSspa keeps the seed-identical
  // path; kCostScaling batch-solves the closing assignment; kAuto
  // resolves by shape (flow/matcher_backend.h). Cost scaling has no
  // warm resume: a warm seed on offer is refused with a typed
  // kUnsupported status (counted in stats.warm_backend_refusals) and
  // the final assignment runs cold; with export_warm_seed only the
  // trajectory half of the seed is exported (final_assign stays empty,
  // so the next epoch re-matches from seeded streams). Both engines
  // reach the same objective on every feasible instance.
  MatcherBackendKind matcher = MatcherBackendKind::kSspa;

  // --- Warm-started re-solve (DESIGN.md §4.10) ---
  // Previous epoch's exported state; ignored by the naive variant.
  std::shared_ptr<const WmaWarmSeed> warm_seed;
  // Per-seed-customer invalidation masks, aligned with
  // warm_seed->trajectory.customers (the final_assign customers are the
  // same list). Empty mask = nothing invalidated.
  //   warm_stream_invalid[s] != 0: drop seed customer s entirely — its
  //     component's candidate set changed, so even its discovery prefix
  //     may be stale (a new facility can appear mid-prefix).
  //   warm_match_invalid[s] != 0: reuse streams and edges but drop the
  //     customer's matched pairs — the repair for deltas that relax the
  //     problem without touching distances (e.g. a capacity increase).
  std::vector<uint8_t> warm_stream_invalid;
  std::vector<uint8_t> warm_match_invalid;
  // Export the end-of-run matcher state into WmaResult::warm_seed (only
  // the exact variant exports; naive runs leave it null).
  bool export_warm_seed = false;

  // --- Request-scoped attribution (DESIGN.md §4.11) ---
  // Trace context id for this solve. When nonzero, RunWma installs it
  // as the calling thread's obs::ScopedTraceContext for the whole run,
  // so every span, flight-recorder event and histogram exemplar emitted
  // by the solve (including inside ParallelFor workers) carries this
  // id. 0 = inherit whatever context the caller already installed.
  // Purely observational: has no effect on the computed solution.
  uint64_t trace_id = 0;
};

// Per-iteration instrumentation (covered customers after CheckCover,
// matching time, set-cover time) — the quantities of Fig. 12b.
struct WmaIterationStats {
  int iteration = 0;
  int covered_customers = 0;
  double matching_seconds = 0.0;
  double cover_seconds = 0.0;
  // Work done within this iteration (deltas of the matcher's cumulative
  // counts; zero for the naive variant).
  int64_t dijkstra_runs = 0;
  int64_t edges_materialized = 0;
};

struct WmaStats {
  int iterations = 0;
  int64_t dijkstra_runs = 0;         // on G_b (exact variant only)
  int64_t edges_materialized = 0;    // bipartite edges added on demand
  // Exact-variant matcher detail (zero for naive): augmentations
  // accepted early by the Theorem-1 threshold, matched edges flipped
  // back while augmenting, and searches that ran in label-correcting
  // mode because of temporarily negative reduced costs.
  int64_t theorem1_prunes = 0;
  int64_t rewirings = 0;
  int64_t label_correcting_runs = 0;
  double matching_seconds = 0.0;
  double cover_seconds = 0.0;
  // Retired: always 0. The only prefetch, the final assignment's burst,
  // is counted in final_assign_seconds. Kept for readers that still
  // print it.
  double prefetch_seconds = 0.0;
  // The single assignment of every customer to the selected facilities
  // that closes the algorithm.
  double final_assign_seconds = 0.0;
  double total_seconds = 0.0;
  // Mirrors solution.termination (kDeadline when the demand-growth loop
  // was cut short; the solution is still the best-so-far feasible one).
  Termination termination = Termination::kConverged;
  std::vector<WmaIterationStats> per_iteration;
  // --- Warm-start effectiveness (all zero on cold runs) ---
  // Customers whose previous-epoch final assignment was adopted
  // unchanged vs. re-enqueued through FindPair after the resume.
  int64_t warm_customers_reused = 0;
  int64_t warm_customers_repaired = 0;
  // Discovery-prefix entries handed to the trajectory replay.
  int64_t warm_stream_entries = 0;
  // The final assignment resumed the previous epoch's matching (same
  // selected facility node set); false = it re-matched from seeded
  // streams only.
  bool warm_final_resumed = false;
  // Engine that actually ran the final assignment ("sspa" or
  // "cost_scaling", after kAuto resolution).
  std::string matcher_backend;
  // Warm seeds offered to a backend without warm-resume support
  // (cost scaling): each refusal is typed kUnsupported and the final
  // assignment ran cold instead.
  int64_t warm_backend_refusals = 0;
};

struct WmaResult {
  McfsSolution solution;
  WmaStats stats;
  // End-of-run state for the next epoch; null unless
  // WmaOptions::export_warm_seed was set on the exact variant.
  std::shared_ptr<WmaWarmSeed> warm_seed;
};

// Runs the Wide Matching Algorithm (Algorithm 1) on the instance:
// iteratively grows customer demands, matches customers to candidate
// facilities (optimal incremental matching, or greedy when
// options.naive), selects k facilities by the CheckCover max-coverage
// heuristic, applies the SelectGreedy / CoverComponents provisions, and
// finishes with a single optimal (or greedy, when naive) assignment of
// every customer to the selected facilities.
WmaResult RunWma(const McfsInstance& instance, const WmaOptions& options = {});

// The "Uniform First" (UF) variant of Sec. VII-F: select facilities as
// if every facility had the average capacity, then assign customers
// under the true nonuniform capacities in one bipartite matching step
// (repairing per-component feasibility first if needed).
WmaResult RunUniformFirstWma(const McfsInstance& instance,
                             const WmaOptions& options = {});

// Checked entry point: preflight-validates the instance (core/validate)
// and returns kInvalidInput / kInfeasible with a diagnosis instead of
// tripping RunWma's MCFS_CHECKs or grinding on a hopeless instance.
// Infeasible instances are rejected here; callers that want WMA's
// best-effort partial cover on them should call RunWma directly.
StatusOr<WmaResult> SolveWma(const McfsInstance& instance,
                             const WmaOptions& options = {});

}  // namespace mcfs

#endif  // MCFS_CORE_WMA_H_
