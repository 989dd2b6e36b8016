#ifndef MCFS_SERVE_SOLVER_SERVICE_H_
#define MCFS_SERVE_SOLVER_SERVICE_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "mcfs/common/deadline.h"
#include "mcfs/common/fault_plan.h"
#include "mcfs/common/status.h"
#include "mcfs/core/instance.h"
#include "mcfs/core/wma.h"
#include "mcfs/graph/dijkstra.h"
#include "mcfs/graph/graph.h"
#include "mcfs/serve/service_counts.h"
#include "mcfs/serve/service_report.h"

namespace mcfs {

// Long-lived warm-state solver service (DESIGN.md §4.9). Loads one road
// network and one candidate-facility catalog, builds the shared
// read-only state once per catalog epoch (the node -> candidate map and
// each node's nearest catalog facility; the component labeling lives on
// the Graph), and then admits many solve requests — each with its own
// customers, k, optional candidate subset, and per-request
// deadline/cancellation — through a bounded admission queue. A
// dispatcher thread drains the queue in batches and executes each batch
// as one ParallelFor on the shared ThreadPool, so concurrent requests
// respect one process-wide concurrency limit instead of stacking
// private pools.
//
// Contract: a response is bit-identical to calling SolveWma directly on
// the instance the request describes (same graph, catalog slice,
// customers, k, options) — warm state only moves *where* preprocessing
// happens, never what is computed. Per-request deadlines degrade that
// request alone to an anytime solution; other requests in the same
// batch are unaffected.
//
// Catalog updates (capacities / candidate set, the paper's "solved
// repeatedly" scenario) bump an epoch and atomically publish a freshly
// built warm state; in-flight requests keep the snapshot they admitted
// under, so a request always sees a fully pre- or fully post-update
// catalog, never a torn mix. The epoch also stamps (and on change invalidates) the
// solve cache that short-circuits repeated identical requests.

// One latency SLO tier (DESIGN.md §4.11): requests naming `tier` are
// held to `target_latency_ms` end to end, with `error_budget` the
// tolerated violation fraction. Report()/DebugSnapshot() expose the
// per-tier request/violation counts and the budget burn rate. The
// SolverService constructor CHECKs each policy: error_budget in (0, 1],
// a finite target_latency_ms >= 0, and tiers distinct once "" reads
// "default".
struct SloPolicy {
  std::string tier = "default";
  double target_latency_ms = 0.0;  // 0 = no target (tier only counts)
  double error_budget = 0.01;      // tolerated violation fraction
};

struct ServiceOptions {
  // Participants for each batch's ParallelFor (0 = MCFS_THREADS /
  // hardware default, 1 or negative = serial). Responses are bit-identical for
  // every value (determinism contract of the pool).
  int serve_threads = 0;
  // Bounded admission queue: Submit rejects with kUnavailable once this
  // many requests are waiting (load shedding, never silent loss).
  int queue_depth = 64;
  // Requests drained per dispatcher wake-up into one batch.
  int max_batch = 8;
  // Deadline applied to requests that carry none (0 = unlimited).
  int64_t default_deadline_ms = 0;
  // Run the independent verifier on every OK response (outside the
  // solve timing; verdict lands in SolveResponse::verify_ok).
  bool verify = false;
  // Completed deadline-free responses cached per epoch, keyed by the
  // full request (customers, k, subset). 0 disables the cache.
  int cache_capacity = 128;
  // Base solver options applied to every request (seed, tie-break,
  // metrics...). The per-request deadline_ms and cancel fields are
  // overridden per request; the `deadline` object is NOT — it is copied
  // into every solve (each copy gets its own poll budget), which is how
  // the fault-injection tests plant a deterministic
  // Deadline::AfterPolls(n) expiry inside served solves.
  WmaOptions wma;

  // --- Observability v2 (DESIGN.md §4.11) ---
  // Latency SLO tiers surfaced in Report()/DebugSnapshot(). Requests
  // with an empty tier land on "default"; a request naming an
  // unconfigured tier is counted nowhere (no implicit tiers).
  std::vector<SloPolicy> slos;
  // Turn the process-wide flight recorder on at construction (same as
  // MCFS_FLIGHT_RECORDER=1). Postmortems still work when this is off —
  // they just dump empty event lists.
  bool flight_recorder = false;
  // When nonempty, every captured postmortem is also written to this
  // path (overwriting; the file always holds the most recent one).
  std::string postmortem_path;
  // Events included in a postmortem dump (most recent, across threads).
  int postmortem_events = 128;

  // --- Fault-tolerant serving (DESIGN.md §4.13) ---
  // Seeded deterministic fault schedule (common/fault_plan.h), polled
  // at the failure-injection sites: pre-solve (deadline cut), post-
  // solve and warm-resolve verification (verifier rejection), admission
  // (queue-overflow pulse), and checkpoint write (IO error). Shared so
  // the chaos harness can read fire counts after the run. Null = no
  // injection (zero overhead).
  std::shared_ptr<FaultPlan> fault_plan;
  // Seeds the queue-delay estimator (overload control) before the first
  // completion: expected per-request service time in ms. 0 = the
  // estimator starts blind and shedding begins only after the first
  // completed request taught it a service time.
  double expected_solve_ms = 0.0;

  // --- Tiered serving (DESIGN.md §4.14) ---
  // CPU niceness applied to the service's background threads (the
  // dispatcher running full batches and the refiner): > 0 lowers their
  // scheduling priority so the inline instant responder — which runs
  // on the submitting thread — preempts batch work instead of being
  // descheduled behind it. This is what keeps the fast tier's tail
  // latency honest on CPU-saturated hosts; on a single-core box a
  // nice-0 batch burst otherwise adds a full scheduler round (~5-10ms)
  // to p99 of a 0.5ms fast answer. Linux-only (no-op elsewhere);
  // 0 = inherit the process priority. Shared ThreadPool workers are
  // not re-niced — only threads the service owns.
  int background_nice = 0;
};

// --- Delta-typed updates (DESIGN.md §4.10) ---
//
// Instead of replacing whole catalogs, callers describe what changed.
// The service classifies each delta, accumulates per-component dirty
// bits against the previous ResolveTracked's warm seed, and the next
// re-solve repairs the previous epoch's matching instead of
// cold-running WMA.

enum class UpdateKind {
  // `node` holds a catalog facility; its capacity changes by
  // `capacity_delta`. Decreases are warm-repairable in place (the
  // resumed matching sheds deterministic overflow); increases dirty the
  // component's matches (a relaxed constraint can lower the optimum).
  kCapacityDelta = 0,
  // `node` joins the catalog with capacity `capacity_delta` (>= 0).
  // Dirties the component's streams and matches: a new candidate can
  // appear anywhere inside a customer's discovery prefix.
  kCandidateAdd,
  // The facility on `node` leaves the catalog. Warm-repairable: stale
  // edges/matches are filtered at resume and their customers re-enqueued.
  kCandidateRemove,
  // One customer appears on `node` (tracked population).
  kCustomerArrive,
  // One tracked customer on `node` departs.
  kCustomerDepart,
};

struct UpdateOp {
  UpdateKind kind = UpdateKind::kCapacityDelta;
  NodeId node = -1;
  // kCapacityDelta: signed change; kCandidateAdd: initial capacity.
  int capacity_delta = 0;
};

// One atomic delta: every op is validated up front and either all ops
// apply or none do.
struct UpdateRequest {
  std::vector<UpdateOp> ops;
};

// How ApplyUpdate classified and applied a delta.
struct UpdateResult {
  uint64_t epoch = 0;          // epoch after the update
  bool epoch_bumped = false;   // catalog changed -> new warm state
  bool noop = false;           // state identical afterwards; epoch kept
  int components_dirtied = 0;  // components newly invalidated
  int ops_applied = 0;
};

struct SolveRequest {
  std::vector<NodeId> customers;
  int k = 0;
  // Indices into the service catalog; empty = the whole catalog.
  std::vector<int> facility_subset;
  // Per-request wall-clock budget in ms (0 = the service default).
  int64_t deadline_ms = 0;
  // Optional external cancellation, polled at the solver checkpoints.
  const CancelToken* cancel = nullptr;
  // Request-scoped trace id (DESIGN.md §4.11). 0 = the service assigns
  // a fresh process-unique id at admission. Every span, flight event
  // and histogram exemplar the request produces carries this id, and it
  // comes back in SolveResponse::trace_id.
  uint64_t trace_id = 0;
  // SLO tier this request is held to; empty = "default".
  std::string tier{};
  // Opt into degraded-mode answers (DESIGN.md §4.13): when this solve
  // deadline-cuts or the verifier rejects it, the service walks the
  // degradation ladder — anytime answer if it verifies, else the
  // instant responder's answer (see max_latency_ms) — and responds with
  // SolveResponse::tier == "degraded" plus a quality bound instead of
  // surfacing the failure. Degraded answers are always verifier-checked
  // and never cached. Off = the pre-existing fail-closed behavior.
  bool allow_degraded = false;
  // --- Tiered serving (DESIGN.md §4.14) ---
  // End-to-end latency SLA in ms; 0 = no SLA (the full-fidelity path).
  // When set, admission estimates whether the queue wait plus a full
  // solve fits the budget (the same EWMA the overload control reads; a
  // blind estimator is treated as "will not fit"). If not, the request
  // is answered inline by the instant responder — greedy selection +
  // bounded-work matching over precomputed nearest-facility distances —
  // as tier == "fast" with a quality bound, bypassing the queue
  // entirely. Fast answers are always verifier-checked; a fast attempt
  // that fails verification (or the instance) falls through to the
  // normal queued full solve, trading the SLA for fidelity.
  int64_t max_latency_ms = 0;
  // When a fast answer was served for a cacheable request, run the full
  // WMA in the background under the same trace id and upgrade the
  // cached fast entry in place with the converged answer (same key,
  // same epoch), so later hits see tier == "full". false = the fast
  // answer is final and never cached (mirrors degraded answers).
  bool refine = true;
};

struct SolveResponse {
  // kOk, or kInvalidInput / kInfeasible / kUnavailable. The message is
  // byte-identical to what SolveWma returns for the same instance.
  Status status;
  McfsSolution solution;
  WmaStats stats;
  // Warm-state epoch this request was served under.
  uint64_t epoch = 0;
  // True when the response came from the epoch's solve cache.
  bool cache_hit = false;
  bool verify_ran = false;
  bool verify_ok = false;
  // ResolveTracked only: a warm seed was on offer for this solve, and
  // whether the served solution actually came from the warm repair path
  // (false when the verifier vetoed it and the solve fell back cold, or
  // when no seed was usable). bench_serve --churn classifies rows by
  // warm_served — the path taken — never by warm_attempted.
  bool warm_attempted = false;
  bool warm_served = false;
  double queue_seconds = 0.0;       // admission -> execution start
  double preprocess_seconds = 0.0;  // ValidateInstance, SolveWma's preflight
  double solve_seconds = 0.0;       // SolveWma proper
  // The trace id this request was served under (assigned at admission
  // when the request carried none) — the join key into trace spans,
  // flight-recorder events, and histogram exemplars.
  uint64_t trace_id = 0;
  // "full" for the normal path; "degraded" when the answer came off the
  // degradation ladder (allow_degraded requests only; DESIGN.md §4.13);
  // "fast" when the instant responder answered under a max_latency_ms
  // SLA (DESIGN.md §4.14). Cache hits carry the tier of the entry they
  // hit — a refined entry serves "full" even to an SLA request.
  std::string tier = "full";
  // Degraded and fast responses: upper bound on objective / optimum,
  // derived from the capacity- and budget-relaxed lower bound (every
  // customer at its nearest catalog facility, one multi-source
  // Dijkstra — precomputed per epoch for full-catalog requests). 0 when
  // the response is full-tier (no bound computed);
  // kDegenerateQualityBound when the lower bound is 0 with a positive
  // objective (every customer co-located with a facility) — no finite
  // ratio exists, which is not the same as "unbounded".
  double quality_bound = 0.0;
  // kUnavailable responses: suggested client backoff before retrying,
  // derived from the estimated queue drain time. 0 on non-kUnavailable
  // responses and on shutdown rejections (a retry cannot succeed).
  int64_t retry_after_ms = 0;
  // True only on kUnavailable rejections from a stopped service: the
  // one rejection a retry can never outwait. Clients must key "stop
  // retrying" on this, not on retry_after_ms == 0 — a live-but-idle
  // service also hints 0.
  bool shutdown = false;
};

// SolveResponse::quality_bound sentinel: the nearest-facility lower
// bound was exactly 0 (every customer sits on a facility node) while
// the served objective was positive, so no finite approximation ratio
// exists. Distinct from 0.0, which means "no bound computed" (full-tier
// responses). Consumers comparing bounds against 1.0 must accept this
// value as "served, bound degenerate", not as a quality failure.
inline constexpr double kDegenerateQualityBound = -1.0;

// Lock-free EWMA teach-in shared by the request-completion paths: the
// first positive-state sample seeds the estimate, later samples decay
// it 0.8/0.2. A compare-exchange loop, not load-then-store — concurrent
// completions must not lose updates (admission-time shedding and the
// fast-tier admission estimate both read this). Returns the value
// installed.
double UpdateEwma(std::atomic<double>& ewma, double sample);

// Point-in-time live introspection of a running service (DESIGN.md
// §4.11): what an operator needs to answer "is it stuck, backed up, or
// slow?" without stopping anything. Produced by
// SolverService::DebugSnapshot(); serialized by bench_serve
// --introspect-every-ms and validated in CI.
struct ServiceSnapshot {
  uint64_t epoch = 0;
  int64_t t_us = 0;  // obs::TraceNowUs() at capture
  int queue_depth = 0;
  int queue_capacity = 0;
  int cache_size = 0;
  int cache_capacity = 0;
  int64_t tracked_customers = 0;
  // Trace ids of requests currently inside Execute/ResolveTracked.
  std::vector<uint64_t> in_flight;
  LatencySummary latency;
  std::vector<SloReport> slos;
  int64_t postmortems = 0;
  // Fault-tolerance counters (DESIGN.md §4.13): degraded-tier responses
  // served, admission-time sheds, and checkpoints saved + restored.
  int64_t degraded = 0;
  int64_t shed = 0;
  int64_t checkpoints = 0;
  // Tiered serving (DESIGN.md §4.14): fast-tier responses served,
  // cache entries upgraded in place, and the refinement backlog.
  int64_t fast = 0;
  int64_t upgrades = 0;
  int refine_backlog = 0;

  std::string Json() const;
};

// What ProbeCache found for one request identity (DESIGN.md §4.14) —
// the introspection the upgrade-in-place tests and the bench gate on:
// after a refinement drains, the entry a fast answer planted must still
// sit under the same key, same epoch, and same trace id, now holding
// the converged tier.
struct CacheProbe {
  bool present = false;
  std::string tier;          // "fast" or "full"
  uint64_t epoch = 0;        // cache epoch the entry lives under
  uint64_t trace_id = 0;     // request that planted (and refines) it
  double quality_bound = 0.0;
  bool verify_ok = false;
};

// Completion handle for one submitted request. Wait() blocks until the
// dispatcher has filled the response; handles are single-use and safe
// to wait on from any thread.
class ResponseHandle {
 public:
  const SolveResponse& Wait() const;
  // Bounded wait: true once the response is ready (Wait() then returns
  // without blocking), false when `timeout_ms` elapsed first. A
  // non-positive timeout is an instantaneous poll. The escape hatch a
  // caller needs against a wedged dispatcher — Wait() alone can hang.
  bool WaitFor(int64_t timeout_ms) const;
  bool Done() const;

 private:
  friend class SolverService;
  void Complete(SolveResponse response);

  mutable std::mutex mutex_;
  mutable std::condition_variable cv_;
  bool done_ = false;
  SolveResponse response_;
};

class SolverService {
 public:
  // The graph must outlive the service. `facility_nodes` / `capacities`
  // form the candidate catalog (distinct in-range nodes, caps >= 0 —
  // checked). Builds the epoch-0 warm state and starts the dispatcher.
  SolverService(const Graph* graph, std::vector<NodeId> facility_nodes,
                std::vector<int> capacities,
                const ServiceOptions& options = {});
  ~SolverService();

  SolverService(const SolverService&) = delete;
  SolverService& operator=(const SolverService&) = delete;

  // Enqueues a request. Returns immediately; when the admission queue
  // is full the returned handle is already completed with kUnavailable.
  std::shared_ptr<ResponseHandle> Submit(SolveRequest request);

  // Convenience: Submit + Wait.
  SolveResponse SolveSync(SolveRequest request);

  // Whole-vector capacity update, one entry per catalog facility:
  // shorthand for an ApplyUpdate of one kCapacityDelta per changed
  // facility, in catalog order, taken under the same lock hold. A size
  // mismatch or a negative entry is rejected with kInvalidInput and
  // changes nothing; an unchanged vector is a no-op.
  Status UpdateCapacities(std::vector<int> capacities);

  // Applies one typed delta atomically: every op is validated first and
  // a failure (kInvalidInput naming the offending op and node) leaves
  // catalog, tracked population, and epoch untouched. Catalog-changing
  // deltas bump the epoch and publish a fresh warm state; customer-only
  // deltas do not. Deltas that leave the state identical are detected
  // as no-ops (epoch and cache kept). Per-component dirty bits
  // accumulate for the next ResolveTracked.
  StatusOr<UpdateResult> ApplyUpdate(const UpdateRequest& update);

  // Re-solves the current catalog + tracked customer population for a
  // budget of k, warm-starting from the previous ResolveTracked's
  // exported seed whenever the deltas since then allow it (same k, seed
  // present, per-component dirty bits narrowing what gets re-enqueued).
  // Every warm-started solve runs the independent verifier as a safety
  // net; a failed verdict falls back to a cold solve (counted under
  // resolve/verify_rejections). The response is equal in objective to a
  // cold SolveWma on TrackedInstance(k) — and bit-identical in solution
  // bytes when nothing changed since the seed was exported.
  // `deadline_ms` 0 = unlimited; `force_cold` skips the seed (the
  // bench's cold baseline). Serialized: concurrent calls run one at a
  // time.
  SolveResponse ResolveTracked(int k, int64_t deadline_ms = 0,
                               bool force_cold = false);

  // Snapshot of the instance ResolveTracked(k) would solve.
  McfsInstance TrackedInstance(int k) const;

  // Current tracked customer population size.
  size_t tracked_customer_count() const;

  uint64_t epoch() const;

  // --- Warm-state checkpoint/restore (DESIGN.md §4.13) ---
  // Writes a versioned, checksummed snapshot of the catalog, the
  // tracked customer population, and the exported warm seed (when the
  // dirty bits say it is still clean) to `path`. Serialized against
  // updates and resolves; serving continues around it. Failures
  // (including fault-injected kCheckpointIo) return typed kIoError.
  Status CheckpointTo(const std::string& path);

  // Restores a checkpoint into this service: republishes the warm state
  // at the checkpointed epoch (epoch continuity across process
  // restart), adopts the tracked population and warm seed, and clears
  // the response cache. The checkpoint is validated against the current
  // graph first; any defect — unreadable, truncated, corrupted,
  // version-mismatched, or graph-incompatible — returns typed kIoError
  // and leaves the service untouched (a clean cold start).
  Status RestoreFrom(const std::string& path);

  // Blocks until every queued background refinement has run to
  // completion (queue empty, worker idle). Tests and the bench call
  // this to observe the post-upgrade cache deterministically; serving
  // continues around it.
  void DrainRefinements();

  // Cache introspection for one request identity (same key derivation
  // as Execute): what tier the entry holds, under which epoch and trace
  // id. Safe to call concurrently; the answer is a snapshot.
  CacheProbe ProbeCache(const SolveRequest& request) const;

  // Stops admission, drains the queue, joins the dispatcher, then
  // drains and joins the background refiner (every fast answer's
  // promised refinement still happens). Idempotent (also run by the
  // destructor).
  void Shutdown();

  // Aggregated service statistics (counts, latency percentiles, phase
  // seconds, amortization inputs). Safe to call concurrently.
  ServiceReport Report() const;

  // Live introspection (DESIGN.md §4.11): epoch, queue/cache occupancy,
  // in-flight request trace ids, histogram latency summary, SLO burn.
  // Safe to call concurrently with serving; takes each internal lock
  // briefly and in the service lock order.
  ServiceSnapshot DebugSnapshot() const;

  // Captures a flight-recorder postmortem on demand (same bounded JSON
  // the automatic triggers produce) and returns it. Also stored as
  // LastPostmortem() and written to ServiceOptions::postmortem_path.
  std::string DumpPostmortem(const std::string& reason);

  // The most recent postmortem JSON; empty when none was captured.
  std::string LastPostmortem() const;

 private:
  // Immutable per-epoch preprocessing shared by every request admitted
  // under that epoch. Requests hold it by shared_ptr, so an epoch bump
  // never tears state under an in-flight solve.
  struct WarmState {
    uint64_t epoch = 0;
    std::vector<NodeId> facility_nodes;
    std::vector<int> capacities;
    // node -> catalog index (or -1): ApplyUpdate's node-keyed catalog
    // lookups and diff. Each IncrementalMatcher builds its own map.
    std::vector<int> facility_index_of_node;
    // Nearest catalog facility per node (one multi-source Dijkstra per
    // epoch; DESIGN.md §4.14): the instant responder's selection signal
    // and the quality-bound denominator for full-catalog requests.
    // Subset requests recompute against their own facility slice.
    MultiSourceResult nearest_facility;
    double build_seconds = 0.0;
  };

  struct PendingRequest {
    SolveRequest request;
    std::shared_ptr<ResponseHandle> handle;
    double admitted_at = 0.0;  // TraceNowUs-based, seconds
  };

  // Cache key: the full request identity (no hashing collisions).
  struct CacheKey {
    std::vector<NodeId> customers;
    int k;
    std::vector<int> facility_subset;
    bool operator<(const CacheKey& other) const;
  };
  struct CacheEntry {
    McfsSolution solution;
    WmaStats stats;
    bool verify_ran = false;
    bool verify_ok = false;
    // Tiered serving (DESIGN.md §4.14): "full" entries are converged
    // WMA answers; "fast" entries are instant-responder answers
    // awaiting background refinement, carrying their quality bound and
    // the trace id of the request that planted them (the refinement
    // publishes the converged answer in place under the same id).
    std::string tier = "full";
    double quality_bound = 0.0;
    uint64_t trace_id = 0;
  };

  // One queued background refinement (DESIGN.md §4.14): re-solve the
  // fast-answered request with the full WMA and upgrade its cache entry
  // in place — same key, same epoch, same trace id.
  struct RefineTask {
    CacheKey key;
    uint64_t epoch = 0;
    uint64_t trace_id = 0;
  };

  std::shared_ptr<const WarmState> BuildWarmState(
      uint64_t epoch, std::vector<NodeId> facility_nodes,
      std::vector<int> capacities) const;
  void PublishWarmState(std::shared_ptr<const WarmState> state);
  std::shared_ptr<const WarmState> SnapshotWarmState() const;

  // ApplyUpdate's body, the one catalog-mutation validator. Caller
  // holds resolve_mutex_.
  StatusOr<UpdateResult> ApplyUpdateLocked(const UpdateRequest& update);
  // The one catalog-commit path (DESIGN.md §4.10), for a validated new
  // state over the current `warm` one. Caller holds resolve_mutex_.
  // No-ops keep epoch, cache and seed; otherwise the dirty bits come
  // from the node-keyed old -> new catalog diff.
  UpdateResult CommitLocked(const WarmState& warm,
                            std::vector<NodeId> facility_nodes,
                            std::vector<int> capacities,
                            std::vector<NodeId> tracked, int ops_applied);

  void DispatcherLoop();
  void Execute(PendingRequest& pending);
  // Counts the completion, bumps its SLO row and completes the handle.
  void FinishRequest(PendingRequest& pending, SolveResponse response);

  // --- The request front-end every serving path shares ---
  // The request's own deadline, else the service default.
  int64_t DeadlineMs(const SolveRequest& request) const;
  bool Cacheable(const SolveRequest& request) const;
  // The instance a request describes under `warm`'s catalog (all of it
  // when `subset` is empty). A subset index outside the catalog is the
  // service's own kInvalidInput; the whole-catalog view cannot fail.
  Status BuildInstance(const WarmState& warm,
                       const std::vector<NodeId>& customers, int k,
                       const std::vector<int>& subset,
                       McfsInstance* instance) const;
  static CacheKey MakeCacheKey(const SolveRequest& request) {
    return CacheKey{request.customers, request.k, request.facility_subset};
  }
  // SolveWma's own preflight (ValidateInstance, timed as
  // preprocess_seconds), then its m() == 0 shortcut. True when either
  // one settled `response` without a solve.
  static bool SettledBeforeSolve(const McfsInstance& instance,
                                 SolveResponse* response);
  // Caller holds cache_mutex_. Fills `response` on a hit under `epoch`.
  bool FillFromCacheLocked(const CacheKey& key, uint64_t epoch,
                           SolveResponse* response) const;
  // Caller holds cache_mutex_. Inserts `entry` (moved from only then)
  // with FIFO eviction; false when the key is taken or the cache holds
  // another epoch.
  bool InsertCacheLocked(uint64_t epoch, const CacheKey& key,
                         CacheEntry& entry);
  // Replaces the "fast" entry under (epoch, key) in place with the
  // converged `full`, keeping the planting trace id; counts the upgrade
  // and records it under `trace_id`. False when absent or converged.
  bool UpgradeFastEntry(uint64_t epoch, const CacheKey& key,
                        CacheEntry& full, uint64_t trace_id);

  // Walks the degradation ladder (DESIGN.md §4.13) for an allow_degraded
  // request whose solve deadline-cut or verify-rejected: serve the
  // anytime answer if the independent verifier blesses it, else the
  // instant responder's answer — always verified, never cached,
  // postmortem recorded. `rejected` marks the candidate untrusted.
  // `nearest` forwards the epoch's precomputed nearest-facility result
  // for full-catalog requests (null = one MultiSourceDijkstra over the
  // subset, shared by the responder and the quality bound).
  void DegradeResponse(const McfsInstance& instance, uint64_t epoch_at,
                       bool rejected, const MultiSourceResult* nearest,
                       SolveResponse* response);
  // The fast tier (DESIGN.md §4.14): serves `pending` inline on the
  // submitting thread — cache lookup, the instant responder over the
  // epoch's nearest-facility distances, quality bound — and completes
  // the handle as tier == "fast". Returns false when the fast attempt
  // could not produce a verified feasible answer (the caller enqueues
  // the request for the normal full solve) and true when the handle was
  // completed (fast answer, cache hit, or a definitive error).
  bool FastServe(PendingRequest& pending);
  // Background refinement worker: full WMA re-solves of fast-answered
  // requests, upgrading their cache entries in place.
  void RefinerLoop();
  void RunRefinement(const RefineTask& task);
  // Suggested client backoff for a kUnavailable rejection: half the
  // estimated queue drain time at the current service-time estimate,
  // never less than 1 ms.
  int64_t RetryAfterMs(size_t queue_len) const;
  // Builds + stores (and optionally writes) a bounded flight-recorder
  // postmortem. `reason` must outlive the call (string literal).
  void RecordPostmortem(const char* reason, uint64_t trace_id,
                        uint64_t epoch_at);

  // Warm-resolve state (DESIGN.md §4.10): the previous ResolveTracked's
  // exported seed plus per-component dirty bits accumulated by updates
  // since that export. Guarded by resolve_mutex_.
  struct ResolveState {
    std::shared_ptr<const WmaWarmSeed> seed;
    int seed_k = 0;
    // Indexed by graph_->components(); sized once at construction.
    std::vector<uint8_t> stream_dirty;
    std::vector<uint8_t> match_dirty;
  };

  // SLO report rows with burn rates. Caller holds report_mutex_.
  std::vector<SloReport> SloRowsLocked() const;

  const Graph* graph_;
  ServiceOptions options_;
  // Effective batch parallelism (min of max_batch and the resolved
  // serve_threads) — the divisor in the queue-delay estimate.
  int effective_parallelism_ = 1;
  // EWMA of per-request service seconds (preprocess + solve), updated
  // at completion, read lock-free at admission by the overload control.
  std::atomic<double> ewma_service_seconds_{0.0};

  mutable std::mutex state_mutex_;  // guards the warm_state_ pointer
  std::shared_ptr<const WarmState> warm_state_;

  // The one write lock, held for the whole of every catalog update,
  // ResolveTracked, checkpoint and restore, so warm state, dirty bits,
  // seed and tracked population move together. Lock order:
  // resolve_mutex_ -> the rest.
  mutable std::mutex resolve_mutex_;
  ResolveState resolve_;
  std::vector<NodeId> tracked_customers_;  // guarded by resolve_mutex_
  // Mirror of tracked_customers_.size(), readable without resolve_mutex_
  // — DebugSnapshot must not block behind a long ResolveTracked.
  std::atomic<int64_t> tracked_count_{0};

  mutable std::mutex queue_mutex_;
  std::condition_variable queue_cv_;
  std::deque<PendingRequest> queue_;
  bool stop_ = false;

  mutable std::mutex cache_mutex_;
  uint64_t cache_epoch_ = 0;
  std::map<CacheKey, CacheEntry> cache_;
  std::deque<CacheKey> cache_order_;  // insertion order for eviction

  // Background refinement (DESIGN.md §4.14). Tasks are deduplicated by
  // (key, epoch) at enqueue — N identical fast answers need one
  // refinement. refine_active_ covers the window between pop and
  // completion so DrainRefinements has no gap to race through.
  mutable std::mutex refine_mutex_;
  std::condition_variable refine_cv_;
  std::deque<RefineTask> refine_queue_;
  bool refine_stop_ = false;
  bool refine_active_ = false;

  // Every serving event, counted once (DESIGN.md §4.9); Report() and
  // DebugSnapshot() read from here.
  ServiceCounts counts_;

  // Guards only the in-flight list, the SLO rows and the last postmortem.
  mutable std::mutex report_mutex_;
  std::vector<SloReport> slos_;      // burn is derived on read
  std::vector<uint64_t> in_flight_;  // trace ids inside Execute/Resolve
  std::string last_postmortem_;

  std::thread dispatcher_;
  std::thread refiner_;
};

}  // namespace mcfs

#endif  // MCFS_SERVE_SOLVER_SERVICE_H_
