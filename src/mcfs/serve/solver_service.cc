#include "mcfs/serve/solver_service.h"

#include <algorithm>
#ifdef __linux__
#include <sys/resource.h>
#include <sys/syscall.h>
#include <unistd.h>
#endif
#include <chrono>
#include <cmath>
#include <fstream>
#include <functional>
#include <limits>
#include <sstream>
#include <tuple>
#include <utility>

#include "mcfs/common/check.h"
#include "mcfs/common/thread_pool.h"
#include "mcfs/common/timer.h"
#include "mcfs/core/repair.h"
#include "mcfs/core/validate.h"
#include "mcfs/core/verifier.h"
#include "mcfs/flow/fast_match.h"
#include "mcfs/graph/dijkstra.h"
#include "mcfs/obs/flight_recorder.h"
#include "mcfs/obs/metrics.h"
#include "mcfs/obs/trace.h"
#include "mcfs/serve/checkpoint.h"

namespace mcfs {

namespace {

double NowSeconds() { return static_cast<double>(obs::TraceNowUs()) * 1e-6; }

// Lowers the calling thread's CPU priority by `nice` (see
// ServiceOptions::background_nice). Raising niceness needs no
// privileges; errors are ignored — the setting is best-effort latency
// isolation, never correctness.
void ApplyBackgroundNice(int nice) {
  if (nice <= 0) return;
#ifdef __linux__
  setpriority(PRIO_PROCESS, static_cast<id_t>(syscall(SYS_gettid)), nice);
#endif
}

const char kDefaultTier[] = "default";

// Runs `fn` when the scope unwinds (in-flight bookkeeping on functions
// with several return points).
template <typename F>
struct ScopeExit {
  F fn;
  ~ScopeExit() { fn(); }
};
template <typename F>
ScopeExit<F> OnScopeExit(F fn) {
  return {std::move(fn)};
}

// The instant responder (DESIGN.md §4.14), shared by the fast tier and
// rung 2 of the degradation ladder: demand-ranked top-k over `nearest`
// (each facility scored by how many customers it is nearest to, ties
// by index — deterministic), component-coverage repair, the
// bounded-work greedy matcher, and first-principles verification.
// `nearest` indexes instance.facility_nodes. False when no verified
// feasible answer came out.
bool InstantAnswer(const McfsInstance& instance,
                   const MultiSourceResult& nearest, McfsSolution* solution) {
  const int catalog = static_cast<int>(instance.l());
  const int budget = std::min(instance.k, catalog);
  std::vector<int64_t> demand(catalog, 0);
  for (const NodeId c : instance.customers) {
    const int f = nearest.nearest_index[c];
    if (f >= 0) demand[f]++;
  }
  std::vector<int> order(catalog);
  for (int j = 0; j < catalog; ++j) order[j] = j;
  std::sort(order.begin(), order.end(), [&](int a, int b) {
    if (demand[a] != demand[b]) return demand[a] > demand[b];
    return a < b;
  });
  std::vector<int> selected(order.begin(), order.begin() + budget);
  if (!CoverComponents(instance, selected)) return false;
  const FastMatchResult match =
      FastGreedyMatch(*instance.graph, instance.customers,
                      instance.facility_nodes, instance.capacities, selected);
  if (!match.all_assigned) return false;
  solution->selected = std::move(selected);
  solution->assignment = match.assignment;
  solution->distances = match.distances;
  solution->objective = match.total_cost;
  solution->feasible = true;
  solution->termination = Termination::kConverged;
  // An answer that cannot be proven feasible is never served. The
  // targeted strategy keeps the check sub-millisecond: per-customer
  // early-exit searches instead of one full Dijkstra per facility.
  VerifyOptions targeted;
  targeted.targeted = true;
  return VerifySolution(instance, *solution, targeted).ok;
}

// objective / (lower bound on any solution's objective: every customer
// served by its `nearest` instance facility, with capacities and the
// budget k relaxed away), shared by the degraded and fast tiers.
double NearestFacilityQualityBound(const McfsInstance& instance,
                                   double objective,
                                   const MultiSourceResult& nearest) {
  double lower = 0.0;
  for (const NodeId c : instance.customers) {
    const double d = nearest.distance[c];
    if (std::isfinite(d)) lower += d;
  }
  if (objective <= lower) return 1.0;
  // Degenerate: every customer co-located with a facility makes the
  // relaxed bound 0 while capacity overflow can still force a positive
  // objective. objective / 0 would be inf (JSON nulls it, comparisons
  // and SLO accounting misread it) — report the defined sentinel
  // instead, distinguishable from both real bounds (>= 1) and "no
  // bound computed" (0).
  if (lower <= 0.0) return kDegenerateQualityBound;
  return objective / lower;
}

}  // namespace

double UpdateEwma(std::atomic<double>& ewma, double sample) {
  // Compare-exchange loop: two completions landing together must both
  // take effect. The old load-then-store read-modify-write let one
  // overwrite the other, silently under-counting service time and
  // skewing the queue-delay shedding estimate under exactly the load
  // that makes shedding matter.
  double prev = ewma.load(std::memory_order_relaxed);
  double next;
  do {
    next = prev <= 0.0 ? sample : 0.8 * prev + 0.2 * sample;
  } while (!ewma.compare_exchange_weak(prev, next, std::memory_order_relaxed,
                                       std::memory_order_relaxed));
  return next;
}

// --------------------------------------------------------------------------
// ResponseHandle

const SolveResponse& ResponseHandle::Wait() const {
  std::unique_lock<std::mutex> lock(mutex_);
  cv_.wait(lock, [this] { return done_; });
  return response_;
}

bool ResponseHandle::WaitFor(int64_t timeout_ms) const {
  std::unique_lock<std::mutex> lock(mutex_);
  if (timeout_ms <= 0) return done_;
  return cv_.wait_for(lock, std::chrono::milliseconds(timeout_ms),
                      [this] { return done_; });
}

bool ResponseHandle::Done() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return done_;
}

void ResponseHandle::Complete(SolveResponse response) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    MCFS_CHECK(!done_) << "response completed twice";
    response_ = std::move(response);
    done_ = true;
  }
  cv_.notify_all();
}

// --------------------------------------------------------------------------
// SolverService

bool SolverService::CacheKey::operator<(const CacheKey& other) const {
  return std::tie(k, customers, facility_subset) <
         std::tie(other.k, other.customers, other.facility_subset);
}

SolverService::SolverService(const Graph* graph,
                             std::vector<NodeId> facility_nodes,
                             std::vector<int> capacities,
                             const ServiceOptions& options)
    : graph_(graph), options_(options) {
  MCFS_CHECK(graph_ != nullptr) << "SolverService needs a graph";
  MCFS_CHECK_EQ(facility_nodes.size(), capacities.size());
  if (options_.flight_recorder) obs::EnableFlightRecorder(true);
  effective_parallelism_ = std::max(
      1, std::min(options_.max_batch < 1 ? 1 : options_.max_batch,
                  ResolveThreadCount(options_.serve_threads)));
  if (options_.expected_solve_ms > 0.0) {
    ewma_service_seconds_.store(options_.expected_solve_ms * 1e-3,
                                std::memory_order_relaxed);
  }
  // An SLO row is configuration, checked like the catalog: a zero budget
  // would hide every violation behind burn = 0, and a second row for a
  // tier would never count a request.
  for (const SloPolicy& policy : options_.slos) {
    SloReport row;
    row.tier = policy.tier.empty() ? kDefaultTier : policy.tier;
    row.target_latency_ms = policy.target_latency_ms;
    row.error_budget = policy.error_budget;
    MCFS_CHECK(row.error_budget > 0.0 && row.error_budget <= 1.0 &&
               std::isfinite(row.target_latency_ms) &&
               row.target_latency_ms >= 0.0)
        << "SLO tier " << row.tier << ": needs error_budget in (0, 1] and a "
        << "finite target_latency_ms >= 0, got " << row.error_budget << " and "
        << row.target_latency_ms;
    for (const SloReport& other : slos_) {
      MCFS_CHECK(other.tier != row.tier)
          << "SLO tier " << row.tier << " configured twice";
    }
    slos_.push_back(std::move(row));
  }
  PublishWarmState(
      BuildWarmState(1, std::move(facility_nodes), std::move(capacities)));
  dispatcher_ = std::thread([this] { DispatcherLoop(); });
  refiner_ = std::thread([this] { RefinerLoop(); });
}

SolverService::~SolverService() { Shutdown(); }

std::shared_ptr<const SolverService::WarmState> SolverService::BuildWarmState(
    uint64_t epoch, std::vector<NodeId> facility_nodes,
    std::vector<int> capacities) const {
  MCFS_SPAN("serve/warm_build");
  WallTimer timer;
  auto state = std::make_shared<WarmState>();
  state->epoch = epoch;
  state->facility_nodes = std::move(facility_nodes);
  state->capacities = std::move(capacities);
  // The catalog is service configuration, validated once here (requests
  // get graceful Status errors; a broken catalog is a deployment bug).
  MCFS_CHECK_EQ(state->facility_nodes.size(), state->capacities.size());
  const int num_nodes = graph_->NumNodes();
  state->facility_index_of_node.assign(num_nodes, -1);
  for (size_t j = 0; j < state->facility_nodes.size(); ++j) {
    const NodeId node = state->facility_nodes[j];
    MCFS_CHECK(node >= 0 && node < num_nodes)
        << "catalog facility " << j << " at node " << node << " out of range";
    MCFS_CHECK(state->facility_index_of_node[node] < 0)
        << "catalog facility node " << node << " appears twice";
    state->facility_index_of_node[node] = static_cast<int>(j);
    MCFS_CHECK_GE(state->capacities[j], 0)
        << "catalog facility " << j << " has negative capacity";
  }
  // The O(V + E) component scan every cold ValidateInstance pays, done
  // once per epoch, plus the per-component descending capacity lists
  // the Theorem-3 accounting consumes.
  state->components = ConnectedComponents(*graph_);
  state->component_caps_sorted.assign(state->components.num_components, {});
  for (size_t j = 0; j < state->facility_nodes.size(); ++j) {
    const int g = state->components.component_of[state->facility_nodes[j]];
    state->component_caps_sorted[g].push_back(state->capacities[j]);
  }
  for (std::vector<int>& caps : state->component_caps_sorted) {
    std::sort(caps.begin(), caps.end(), std::greater<int>());
  }
  // Nearest catalog facility per node (DESIGN.md §4.14): one
  // multi-source Dijkstra per epoch buys the instant responder its
  // selection signal and the quality-bound denominator without any
  // per-request graph work.
  state->nearest_facility =
      MultiSourceDijkstra(*graph_, state->facility_nodes);
  state->build_seconds = timer.Seconds();
  return state;
}

void SolverService::PublishWarmState(std::shared_ptr<const WarmState> state) {
  // Every publish is a new catalog (no-op updates never publish), even a
  // restore that lands on the current epoch number: the cache goes.
  {
    std::lock_guard<std::mutex> lock(cache_mutex_);
    cache_.clear();
    cache_order_.clear();
    cache_epoch_ = state->epoch;
  }
  counts_.Observe(ServiceCounts::kWarmBuildSeconds, state->build_seconds);
  const uint64_t epoch = state->epoch;
  {
    std::lock_guard<std::mutex> lock(state_mutex_);
    warm_state_ = std::move(state);
  }
  MCFS_RECORD("serve/epoch_swap", static_cast<int64_t>(epoch), 0);
}

std::shared_ptr<const SolverService::WarmState>
SolverService::SnapshotWarmState() const {
  std::lock_guard<std::mutex> lock(state_mutex_);
  return warm_state_;
}

Status SolverService::UpdateCapacities(std::vector<int> capacities) {
  std::lock_guard<std::mutex> lock(resolve_mutex_);
  std::shared_ptr<const WarmState> warm = SnapshotWarmState();
  if (capacities.size() != warm->facility_nodes.size()) {
    return InvalidInputError(
        "capacity vector has " + std::to_string(capacities.size()) +
        " entries for a catalog of " +
        std::to_string(warm->facility_nodes.size()));
  }
  // One capacity delta per changed facility, in catalog order, applied
  // under the same lock hold as the snapshot above.
  UpdateRequest update;
  for (size_t j = 0; j < capacities.size(); ++j) {
    if (capacities[j] == warm->capacities[j]) continue;
    // Clamped: only a negative entry can underflow, and it is rejected
    // either way.
    const int64_t delta =
        std::max<int64_t>(int64_t{capacities[j]} - warm->capacities[j],
                          std::numeric_limits<int>::min());
    update.ops.push_back({UpdateKind::kCapacityDelta, warm->facility_nodes[j],
                          static_cast<int>(delta)});
  }
  return ApplyUpdateLocked(update).status();
}

StatusOr<UpdateResult> SolverService::ApplyUpdate(
    const UpdateRequest& update) {
  std::lock_guard<std::mutex> lock(resolve_mutex_);
  return ApplyUpdateLocked(update);
}

StatusOr<UpdateResult> SolverService::ApplyUpdateLocked(
    const UpdateRequest& update) {
  std::shared_ptr<const WarmState> warm = SnapshotWarmState();
  const int num_nodes = graph_->NumNodes();

  // Working copies: every op validates against (and mutates) these, and
  // nothing is committed until all ops passed — all-or-nothing.
  std::vector<NodeId> nodes = warm->facility_nodes;
  std::vector<int> caps = warm->capacities;
  std::vector<int> index_of_node = warm->facility_index_of_node;
  std::vector<NodeId> tracked = tracked_customers_;

  for (size_t op_index = 0; op_index < update.ops.size(); ++op_index) {
    const UpdateOp& op = update.ops[op_index];
    auto op_error = [op_index](const std::string& message) {
      return InvalidInputError("update op " + std::to_string(op_index) +
                               ": " + message);
    };
    if (op.node < 0 || op.node >= num_nodes) {
      return op_error("node " + std::to_string(op.node) +
                      " out of range [0, " + std::to_string(num_nodes) + ")");
    }
    switch (op.kind) {
      case UpdateKind::kCapacityDelta: {
        const int j = index_of_node[op.node];
        if (j < 0) {
          return op_error("capacity delta on node " +
                          std::to_string(op.node) +
                          " which holds no candidate facility");
        }
        const int64_t next = int64_t{caps[j]} + op.capacity_delta;
        if (next < 0 || next > std::numeric_limits<int>::max()) {
          const char* verb =
              next < 0 ? " would drop to " : " would overflow to ";
          return op_error("capacity of the facility at node " +
                          std::to_string(op.node) + verb +
                          std::to_string(next));
        }
        caps[j] = static_cast<int>(next);
        break;
      }
      case UpdateKind::kCandidateAdd: {
        if (index_of_node[op.node] >= 0) {
          // Same shape as DiagnoseInstance's duplicate diagnosis.
          return op_error("duplicate facility node " +
                          std::to_string(op.node) + " (facility " +
                          std::to_string(index_of_node[op.node]) + ")");
        }
        if (op.capacity_delta < 0) {
          return op_error("negative capacity " +
                          std::to_string(op.capacity_delta) +
                          " for the candidate added at node " +
                          std::to_string(op.node));
        }
        index_of_node[op.node] = static_cast<int>(nodes.size());
        nodes.push_back(op.node);
        caps.push_back(op.capacity_delta);
        break;
      }
      case UpdateKind::kCandidateRemove: {
        const int j = index_of_node[op.node];
        if (j < 0) {
          return op_error("no candidate facility at node " +
                          std::to_string(op.node) + " to remove");
        }
        // Swap-remove; the catalog order changes, which is fine — the
        // catalog defines itself and warm seeds are node-keyed.
        index_of_node[op.node] = -1;
        const int last = static_cast<int>(nodes.size()) - 1;
        if (j != last) {
          nodes[j] = nodes[last];
          caps[j] = caps[last];
          index_of_node[nodes[j]] = j;
        }
        nodes.pop_back();
        caps.pop_back();
        break;
      }
      case UpdateKind::kCustomerArrive: {
        tracked.push_back(op.node);
        break;
      }
      case UpdateKind::kCustomerDepart: {
        bool found = false;
        for (size_t i = tracked.size(); i-- > 0;) {
          if (tracked[i] == op.node) {
            tracked.erase(tracked.begin() + static_cast<int64_t>(i));
            found = true;
            break;
          }
        }
        if (!found) {
          return op_error("no tracked customer at node " +
                          std::to_string(op.node) + " to depart");
        }
        break;
      }
    }
  }

  counts_.Add(ServiceCounts::kOpsApplied,
              static_cast<int64_t>(update.ops.size()));
  return CommitLocked(*warm, std::move(nodes), std::move(caps),
                      std::move(tracked),
                      static_cast<int>(update.ops.size()));
}

UpdateResult SolverService::CommitLocked(const WarmState& warm,
                                         std::vector<NodeId> facility_nodes,
                                         std::vector<int> capacities,
                                         std::vector<NodeId> tracked,
                                         int ops_applied) {
  UpdateResult out;
  out.epoch = warm.epoch;
  out.ops_applied = ops_applied;
  const bool catalog_changed = facility_nodes != warm.facility_nodes ||
                               capacities != warm.capacities;
  if (!catalog_changed && tracked == tracked_customers_) {
    // No-op delta: the state is already exactly this. Keep the epoch —
    // and with it the response cache and the warm-resolve seed.
    out.noop = true;
    counts_.Add(ServiceCounts::kNoopUpdates);
    return out;
  }
  // Dirty bits from the node-keyed old -> new catalog diff. A node new
  // to the catalog can appear anywhere inside its component's discovery
  // prefixes (streams and matches dirty); a capacity increase relaxes
  // the matching, so the resumed one may no longer be optimal (matches
  // dirty). Removals and decreases only shed state, which the resume
  // filters in place. Bits accumulate until a resolve exports a seed.
  const size_t num_components =
      static_cast<size_t>(warm.components.num_components);
  if (resolve_.stream_dirty.size() < num_components) {
    resolve_.stream_dirty.resize(num_components, 0);
    resolve_.match_dirty.resize(num_components, 0);
  }
  const auto mark = [&out](std::vector<uint8_t>& bits, int g) {
    if (bits[g] == 0) {
      bits[g] = 1;
      out.components_dirtied++;
    }
  };
  for (size_t j = 0; j < facility_nodes.size(); ++j) {
    const int old_index = warm.facility_index_of_node[facility_nodes[j]];
    const int g = warm.components.component_of[facility_nodes[j]];
    if (old_index < 0) {
      mark(resolve_.stream_dirty, g);
      mark(resolve_.match_dirty, g);
    } else if (capacities[j] > warm.capacities[old_index]) {
      mark(resolve_.match_dirty, g);
    }
  }
  counts_.Add(ServiceCounts::kComponentsDirtied, out.components_dirtied);
  if (catalog_changed) {
    out.epoch_bumped = true;
    out.epoch = warm.epoch + 1;
    PublishWarmState(BuildWarmState(out.epoch, std::move(facility_nodes),
                                    std::move(capacities)));
  }
  tracked_customers_ = std::move(tracked);
  tracked_count_.store(static_cast<int64_t>(tracked_customers_.size()),
                       std::memory_order_relaxed);
  counts_.Add(ServiceCounts::kResolveUpdates);
  return out;
}

uint64_t SolverService::epoch() const {
  std::lock_guard<std::mutex> lock(state_mutex_);
  return warm_state_->epoch;
}

McfsInstance SolverService::TrackedInstance(int k) const {
  std::lock_guard<std::mutex> resolve_lock(resolve_mutex_);
  McfsInstance instance;
  BuildInstance(*SnapshotWarmState(), tracked_customers_, k, {}, &instance);
  return instance;
}

size_t SolverService::tracked_customer_count() const {
  std::lock_guard<std::mutex> resolve_lock(resolve_mutex_);
  return tracked_customers_.size();
}

SolveResponse SolverService::ResolveTracked(int k, int64_t deadline_ms,
                                            bool force_cold) {
  const uint64_t trace_id = obs::NewTraceId();
  obs::ScopedTraceContext trace_scope(trace_id);
  MCFS_SPAN("resolve/tracked");
  {
    std::lock_guard<std::mutex> lock(report_mutex_);
    in_flight_.push_back(trace_id);
  }
  auto in_flight_guard = OnScopeExit([this, trace_id] {
    std::lock_guard<std::mutex> lock(report_mutex_);
    in_flight_.erase(
        std::find(in_flight_.begin(), in_flight_.end(), trace_id));
  });
  // Held for the whole solve: the seed, the dirty bits, and the tracked
  // population must not move under a resolve, and concurrent resolves
  // would race on the exported seed. Updates queue behind it.
  std::lock_guard<std::mutex> resolve_lock(resolve_mutex_);
  std::shared_ptr<const WarmState> warm = SnapshotWarmState();

  SolveResponse response;
  response.epoch = warm->epoch;
  response.trace_id = trace_id;

  McfsInstance instance;
  BuildInstance(*warm, tracked_customers_, k, {}, &instance);
  if (SettledBeforeSolve(*warm, instance, {}, &response)) {
    if (response.status.ok()) {
      resolve_.seed.reset();  // m() == 0: nothing to resume from next time
    } else if (response.status.code() == StatusCode::kInfeasible) {
      // The seed is kept: a later delta can restore validity.
      RecordPostmortem("infeasible", trace_id, warm->epoch);
    }
    return response;
  }

  // options_.wma.deadline is copied through deliberately (each copy has
  // its own poll budget) — that is how tests plant AfterPolls expiries.
  WmaOptions wma = options_.wma;
  wma.deadline_ms = deadline_ms;
  wma.cancel = nullptr;
  wma.export_warm_seed = true;
  wma.trace_id = trace_id;

  const bool warm_started = !force_cold && !wma.naive &&
                            resolve_.seed != nullptr && resolve_.seed_k == k &&
                            !resolve_.seed->trajectory.customers.empty();
  if (warm_started) {
    wma.warm_seed = resolve_.seed;
    // Expand the per-component dirty bits into per-seed-customer
    // invalidation masks (the narrowing that makes repairs cheap: clean
    // components resume wholesale).
    const std::vector<WarmSeedCustomer>& seeded =
        resolve_.seed->trajectory.customers;
    wma.warm_stream_invalid.assign(seeded.size(), 0);
    wma.warm_match_invalid.assign(seeded.size(), 0);
    for (size_t s = 0; s < seeded.size(); ++s) {
      const int g = warm->components.component_of[seeded[s].node];
      if (g < static_cast<int>(resolve_.stream_dirty.size()) &&
          resolve_.stream_dirty[g] != 0) {
        wma.warm_stream_invalid[s] = 1;
      }
      if (g < static_cast<int>(resolve_.match_dirty.size()) &&
          resolve_.match_dirty[g] != 0) {
        wma.warm_match_invalid[s] = 1;
      }
    }
  }

  WallTimer solve_timer;
  WmaResult result = RunWma(instance, wma);
  response.solve_seconds = solve_timer.Seconds();

  bool fell_back_cold = false;
  if (warm_started) {
    // Safety net: every warm-started solve is verified independently,
    // whatever options_.verify says. A bad verdict falls back to cold.
    const VerifyReport verdict = VerifySolution(instance, result.solution);
    response.verify_ran = true;
    response.verify_ok = verdict.ok;
    if (options_.fault_plan != nullptr &&
        options_.fault_plan->ShouldFire(FaultKind::kVerifyReject)) {
      // Treat this verdict as a rejection so the whole failure path —
      // postmortem capture + cold fallback — runs deterministically.
      // The response stays correct.
      response.verify_ok = false;
      MCFS_RECORD("resolve/fault_verify_reject",
                  static_cast<int64_t>(trace_id), 0);
      counts_.Add(ServiceCounts::kFaultsInjected);
    }
    if (!response.verify_ok) {
      counts_.Add(ServiceCounts::kVerifyRejections);
      RecordPostmortem("verify_rejection", trace_id, warm->epoch);
      wma.warm_seed = nullptr;
      wma.warm_stream_invalid.clear();
      wma.warm_match_invalid.clear();
      WallTimer cold_timer;
      result = RunWma(instance, wma);
      response.solve_seconds += cold_timer.Seconds();
      const VerifyReport cold_verdict =
          VerifySolution(instance, result.solution);
      response.verify_ok = cold_verdict.ok;
      fell_back_cold = true;
    }
  } else if (options_.verify) {
    const VerifyReport verdict = VerifySolution(instance, result.solution);
    response.verify_ran = true;
    response.verify_ok = verdict.ok;
  }

  if (result.solution.termination == Termination::kDeadline) {
    // A deadline-cut tracked resolve hands back an anytime solution the
    // next epoch builds on — exactly the situation a postmortem's recent
    // phase history explains.
    RecordPostmortem("warm_deadline", trace_id, warm->epoch);
  }

  response.solution = std::move(result.solution);
  response.stats = std::move(result.stats);

  // The exported end-of-run state seeds the next resolve; the deltas it
  // saw are now baked in, so the dirty bits reset.
  resolve_.seed = std::move(result.warm_seed);
  resolve_.seed_k = k;
  std::fill(resolve_.stream_dirty.begin(), resolve_.stream_dirty.end(), 0);
  std::fill(resolve_.match_dirty.begin(), resolve_.match_dirty.end(), 0);

  response.warm_attempted = warm_started;
  response.warm_served = warm_started && !fell_back_cold;
  counts_.Observe(response.warm_served ? ServiceCounts::kResolveWarmSeconds
                                       : ServiceCounts::kResolveColdSeconds,
                  response.solve_seconds);
  counts_.Add(ServiceCounts::kWarmCustomersReused,
              response.stats.warm_customers_reused);
  counts_.Add(ServiceCounts::kWarmCustomersRepaired,
              response.stats.warm_customers_repaired);
  return response;
}

Status SolverService::CheckpointTo(const std::string& path) {
  MCFS_SPAN("serve/checkpoint_save");
  // The catalog, tracked population, and seed move together under the
  // write lock; serving continues around the snapshot.
  std::lock_guard<std::mutex> resolve_lock(resolve_mutex_);
  if (options_.fault_plan != nullptr &&
      options_.fault_plan->ShouldFire(FaultKind::kCheckpointIo)) {
    MCFS_RECORD("serve/fault_checkpoint_io", 0, 0);
    counts_.Add(ServiceCounts::kFaultsInjected);
    counts_.Add(ServiceCounts::kCheckpointFailures);
    return IoError("fault-injected checkpoint write failure: " + path);
  }
  std::shared_ptr<const WarmState> warm = SnapshotWarmState();
  ServiceCheckpoint checkpoint;
  checkpoint.epoch = warm->epoch;
  checkpoint.facility_nodes = warm->facility_nodes;
  checkpoint.capacities = warm->capacities;
  checkpoint.tracked_customers = tracked_customers_;
  // The seed travels only when its dirty bits are all clean: a dirty
  // seed needs the invalidation masks to repair safely, and those are
  // transient in-process state. A restore without the seed is just a
  // cold first resolve — correct, only slower.
  const auto clean = [](const std::vector<uint8_t>& bits) {
    return std::all_of(bits.begin(), bits.end(),
                       [](uint8_t b) { return b == 0; });
  };
  if (resolve_.seed != nullptr && clean(resolve_.stream_dirty) &&
      clean(resolve_.match_dirty)) {
    checkpoint.has_seed = true;
    checkpoint.seed_k = resolve_.seed_k;
    checkpoint.seed = *resolve_.seed;
  }
  const Status status = WriteServiceCheckpoint(checkpoint, path);
  counts_.Add(status.ok() ? ServiceCounts::kCheckpointsSaved
                          : ServiceCounts::kCheckpointFailures);
  return status;
}

Status SolverService::RestoreFrom(const std::string& path) {
  MCFS_SPAN("serve/checkpoint_restore");
  std::lock_guard<std::mutex> resolve_lock(resolve_mutex_);
  const auto fail = [this](Status status) {
    counts_.Add(ServiceCounts::kCheckpointFailures);
    return status;
  };
  StatusOr<ServiceCheckpoint> loaded = ReadServiceCheckpoint(path);
  if (!loaded.ok()) return fail(loaded.status());
  ServiceCheckpoint checkpoint = std::move(loaded).value();
  // Validate against the live graph before touching any state: a
  // checkpoint from a different network is corruption from this
  // service's point of view, and BuildWarmState would CHECK-crash on it.
  const int num_nodes = graph_->NumNodes();
  const auto foreign = [&](const char* what, NodeId node) {
    return fail(IoError(
        std::string("checkpoint does not match the service graph: ") + what +
        " node " + std::to_string(node) + " out of range [0, " +
        std::to_string(num_nodes) + ")"));
  };
  std::vector<uint8_t> seen(static_cast<size_t>(num_nodes), 0);
  for (size_t j = 0; j < checkpoint.facility_nodes.size(); ++j) {
    const NodeId node = checkpoint.facility_nodes[j];
    if (node < 0 || node >= num_nodes) return foreign("facility", node);
    if (seen[node] != 0) {
      return fail(IoError(
          "corrupted checkpoint: duplicate facility node " +
          std::to_string(node)));
    }
    seen[node] = 1;
    if (checkpoint.capacities[j] < 0) {
      return fail(IoError("corrupted checkpoint: negative capacity " +
                          std::to_string(checkpoint.capacities[j]) +
                          " (facility " + std::to_string(j) + ")"));
    }
  }
  for (const NodeId node : checkpoint.tracked_customers) {
    if (node < 0 || node >= num_nodes) return foreign("tracked customer", node);
  }
  // The warm seed is node-keyed too, and ResolveTracked indexes the live
  // component labeling with its customer nodes; the matcher maps its
  // facility nodes the same way.
  for (const WarmSeed* part :
       {&checkpoint.seed.trajectory, &checkpoint.seed.final_assign}) {
    std::vector<NodeId> seed_nodes = part->facility_nodes;
    for (const WarmSeedCustomer& customer : part->customers) {
      seed_nodes.push_back(customer.node);
      for (const WarmSeedEdge& edge : customer.edges) {
        seed_nodes.push_back(edge.facility_node);
      }
      for (const WarmSeedEdge& edge : customer.buffered) {
        seed_nodes.push_back(edge.facility_node);
      }
    }
    for (const NodeId node : seed_nodes) {
      if (node < 0 || node >= num_nodes) return foreign("warm seed", node);
    }
  }
  // Commit: republish the warm state at the checkpointed epoch (epoch
  // continuity across restart), adopt population + seed, clear the
  // dirty bits (the checkpointed seed is clean by construction) and the
  // response cache. Intended as a startup-time operation — concurrent
  // in-flight requests finish under the snapshot they admitted with.
  PublishWarmState(BuildWarmState(checkpoint.epoch,
                                  std::move(checkpoint.facility_nodes),
                                  std::move(checkpoint.capacities)));
  tracked_customers_ = std::move(checkpoint.tracked_customers);
  tracked_count_.store(static_cast<int64_t>(tracked_customers_.size()),
                       std::memory_order_relaxed);
  resolve_.seed =
      checkpoint.has_seed
          ? std::make_shared<WmaWarmSeed>(std::move(checkpoint.seed))
          : nullptr;
  resolve_.seed_k = checkpoint.seed_k;
  std::fill(resolve_.stream_dirty.begin(), resolve_.stream_dirty.end(), 0);
  std::fill(resolve_.match_dirty.begin(), resolve_.match_dirty.end(), 0);
  counts_.Add(ServiceCounts::kCheckpointsRestored);
  return OkStatus();
}

int64_t SolverService::RetryAfterMs(size_t queue_len) const {
  const double ewma = ewma_service_seconds_.load(std::memory_order_relaxed);
  const double drain_ms = static_cast<double>(queue_len) * ewma * 1000.0 /
                          static_cast<double>(effective_parallelism_);
  return std::max<int64_t>(1, std::llround(drain_ms * 0.5));
}

std::shared_ptr<ResponseHandle> SolverService::Submit(SolveRequest request) {
  auto handle = std::make_shared<ResponseHandle>();
  // Trace identity is assigned at admission so even a rejected request
  // has a joinable id in spans / flight events / the response.
  if (request.trace_id == 0) request.trace_id = obs::NewTraceId();
  const uint64_t trace_id = request.trace_id;
  const char* rejection = nullptr;
  std::string shed_reason;  // nonempty = admission-time overload shed
  bool fault_fired = false;
  bool stopped = false;    // rejection came from a shut-down service
  bool fast_path = false;  // answer inline via the instant responder
  int64_t retry_after_ms = 0;
  {
    std::lock_guard<std::mutex> lock(queue_mutex_);
    if (stop_) {
      // No retry hint: retrying a shut-down service cannot succeed.
      rejection = "service is shut down";
      stopped = true;
    } else if (static_cast<int>(queue_.size()) >= options_.queue_depth) {
      rejection = "admission queue full";
      retry_after_ms = RetryAfterMs(queue_.size());
    } else if (options_.fault_plan != nullptr &&
               options_.fault_plan->ShouldFire(FaultKind::kQueuePulse)) {
      shed_reason = "fault-injected queue-overflow pulse";
      fault_fired = true;
      retry_after_ms = RetryAfterMs(queue_.size() + 1);
    } else {
      // Tight-SLA admission (DESIGN.md §4.14): when the estimated queue
      // drain plus one full solve cannot fit the request's latency
      // budget — or the estimator is still blind — the request is
      // answered inline by the instant responder instead of queuing
      // behind full-solve batches (the wait alone would blow the SLA).
      // Checked before shedding: an SLA request the queue would starve
      // is exactly what the fast tier exists for.
      if (request.max_latency_ms > 0) {
        const double ewma =
            ewma_service_seconds_.load(std::memory_order_relaxed);
        const double est_ms =
            ewma * 1000.0 *
            (1.0 + static_cast<double>(queue_.size()) /
                       static_cast<double>(effective_parallelism_));
        fast_path = ewma <= 0.0 ||
                    est_ms > static_cast<double>(request.max_latency_ms);
      }
      // Queue-delay-aware shedding (DESIGN.md §4.13): when the work
      // already waiting is estimated to outlast this request's own
      // deadline, admitting it only burns a queue slot on a response
      // that will arrive dead. Reject now, with a drain-time hint.
      const int64_t deadline_ms = DeadlineMs(request);
      const double ewma =
          ewma_service_seconds_.load(std::memory_order_relaxed);
      if (!fast_path && deadline_ms > 0 && ewma > 0.0 && !queue_.empty()) {
        const double est_wait_ms =
            static_cast<double>(queue_.size()) * ewma * 1000.0 /
            static_cast<double>(effective_parallelism_);
        if (est_wait_ms > static_cast<double>(deadline_ms)) {
          shed_reason = "estimated queue wait " +
                        std::to_string(std::llround(est_wait_ms)) +
                        " ms exceeds the request deadline " +
                        std::to_string(deadline_ms) + " ms";
          retry_after_ms = RetryAfterMs(queue_.size());
        }
      }
      if (!fast_path && shed_reason.empty()) {
        queue_.push_back({std::move(request), handle, NowSeconds()});
      }
    }
  }
  // Completes the handle with the typed kUnavailable rejection decided
  // above (a shed when shed_reason is set).
  const auto reject = [&] {
    const bool shed = !shed_reason.empty();
    counts_.Add(shed ? ServiceCounts::kRequestsShed
                     : ServiceCounts::kRequestsRejected);
    if (fault_fired) counts_.Add(ServiceCounts::kFaultsInjected);
    SolveResponse response;
    response.trace_id = trace_id;
    response.retry_after_ms = retry_after_ms;
    // The one rejection retrying can never outwait (satellite of
    // DESIGN.md §4.14): clients key "stop retrying" on this flag, not
    // on retry_after_ms == 0 — a live-but-idle service also hints 0.
    response.shutdown = stopped;
    response.status = UnavailableError(
        shed ? shed_reason
             : std::string(rejection) + " (queue_depth = " +
                   std::to_string(options_.queue_depth) + ")");
    handle->Complete(std::move(response));
    return handle;
  };
  if (rejection != nullptr || !shed_reason.empty()) return reject();
  counts_.Add(ServiceCounts::kRequestsAdmitted);
  if (!fast_path) {
    queue_cv_.notify_one();
    return handle;
  }
  // Instant responder (DESIGN.md §4.14), inline on the submitting
  // thread: the queue is the latency the SLA cannot afford.
  PendingRequest pending{std::move(request), handle, NowSeconds()};
  if (FastServe(pending)) return handle;
  // The fast attempt could not produce a verified feasible answer; fall
  // through to the queued full solve (fidelity over the SLA). The queue
  // is re-checked — admission raced other submitters while we tried.
  counts_.Add(ServiceCounts::kFastFallthroughs);
  {
    std::lock_guard<std::mutex> lock(queue_mutex_);
    if (stop_) {
      rejection = "service is shut down";
      stopped = true;
    } else if (static_cast<int>(queue_.size()) >= options_.queue_depth) {
      rejection = "admission queue full";
      retry_after_ms = RetryAfterMs(queue_.size());
    } else {
      queue_.push_back(std::move(pending));
    }
  }
  if (rejection != nullptr) return reject();
  queue_cv_.notify_one();
  return handle;
}

SolveResponse SolverService::SolveSync(SolveRequest request) {
  return Submit(std::move(request))->Wait();
}

void SolverService::Shutdown() {
  {
    std::lock_guard<std::mutex> lock(queue_mutex_);
    stop_ = true;
  }
  queue_cv_.notify_all();
  if (dispatcher_.joinable()) dispatcher_.join();
  // The refiner stops only after the dispatcher drained: queued full
  // solves can still plant upgrades, and every fast answer's promised
  // refinement runs before the service goes dark (drain-on-shutdown,
  // same contract as the admission queue).
  {
    std::lock_guard<std::mutex> lock(refine_mutex_);
    refine_stop_ = true;
  }
  refine_cv_.notify_all();
  if (refiner_.joinable()) refiner_.join();
}

void SolverService::DispatcherLoop() {
  ApplyBackgroundNice(options_.background_nice);
  for (;;) {
    std::vector<PendingRequest> batch;
    {
      std::unique_lock<std::mutex> lock(queue_mutex_);
      queue_cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      // Drain-on-shutdown: exit only once the queue is empty, so every
      // admitted request still gets a response.
      if (queue_.empty()) return;
      const int take = std::min<int>(options_.max_batch < 1
                                         ? 1
                                         : options_.max_batch,
                                     static_cast<int>(queue_.size()));
      batch.reserve(take);
      for (int i = 0; i < take; ++i) {
        batch.push_back(std::move(queue_.front()));
        queue_.pop_front();
      }
    }
    MCFS_SPAN("serve/batch");
    const int n = static_cast<int>(batch.size());
    counts_.Observe(ServiceCounts::kBatchSize, static_cast<double>(n));
    if (n == 1) {
      Execute(batch[0]);
    } else {
      // One batch = one ParallelFor on the shared pool: requests in the
      // batch run concurrently up to serve_threads, and the solvers'
      // nested parallel sections degrade to inline serial inside the
      // region — which is exactly what keeps responses bit-identical to
      // direct SolveWma calls (the determinism contract).
      ParallelFor(
          0, n, 1, [&](int64_t i) { Execute(batch[i]); },
          options_.serve_threads);
    }
  }
}

bool SolverService::WarmValidate(const WarmState& warm,
                                 const McfsInstance& instance,
                                 const std::vector<int>& subset) const {
  // Mirror of DiagnoseInstance's verdict against the cached epoch
  // preprocessing, request-sized work only: O(m + |subset| log + C)
  // instead of the cold O(V + E) component scan. Kept in lockstep with
  // core/validate.cc — any defect found here is re-derived on the cold
  // path so the Status message stays byte-identical.
  if (instance.k < 0) return false;
  const int num_nodes = graph_->NumNodes();
  for (const NodeId c : instance.customers) {
    if (c < 0 || c >= num_nodes) return false;
  }
  // Catalog nodes are distinct and in range by construction; a subset
  // only introduces defects by repeating an index (duplicate node).
  if (!subset.empty()) {
    std::vector<int> seen;
    seen.reserve(subset.size());
    for (const int idx : subset) {
      if (std::find(seen.begin(), seen.end(), idx) != seen.end()) return false;
      seen.push_back(idx);
    }
  }
  // Theorem-3 accounting per component holding customers.
  const ComponentLabeling& components = warm.components;
  std::vector<int64_t> customers_in(components.num_components, 0);
  for (const NodeId c : instance.customers) {
    customers_in[components.component_of[c]]++;
  }
  std::vector<std::vector<int>> subset_caps;
  if (!subset.empty()) {
    subset_caps.assign(components.num_components, {});
    for (const int idx : subset) {
      const int g = components.component_of[warm.facility_nodes[idx]];
      subset_caps[g].push_back(warm.capacities[idx]);
    }
    for (std::vector<int>& caps : subset_caps) {
      std::sort(caps.begin(), caps.end(), std::greater<int>());
    }
  }
  int64_t required_facilities = 0;
  for (int g = 0; g < components.num_components; ++g) {
    if (customers_in[g] == 0) continue;
    const std::vector<int>& caps =
        subset.empty() ? warm.component_caps_sorted[g] : subset_caps[g];
    int64_t remaining = customers_in[g];
    for (const int c : caps) {
      if (remaining <= 0) break;
      remaining -= c;
      ++required_facilities;
    }
    if (remaining > 0) return false;
  }
  return required_facilities <= instance.k;
}

int64_t SolverService::DeadlineMs(const SolveRequest& request) const {
  return request.deadline_ms > 0 ? request.deadline_ms
                                 : options_.default_deadline_ms;
}

bool SolverService::Cacheable(const SolveRequest& request) const {
  return options_.cache_capacity > 0 && DeadlineMs(request) == 0 &&
         request.cancel == nullptr;
}

Status SolverService::BuildInstance(const WarmState& warm,
                                    const std::vector<NodeId>& customers,
                                    int k, const std::vector<int>& subset,
                                    McfsInstance* instance) const {
  instance->graph = graph_;
  instance->customers = customers;
  instance->k = k;
  if (subset.empty()) {
    instance->facility_nodes = warm.facility_nodes;
    instance->capacities = warm.capacities;
    return OkStatus();
  }
  const int catalog_size = static_cast<int>(warm.facility_nodes.size());
  instance->facility_nodes.reserve(subset.size());
  instance->capacities.reserve(subset.size());
  for (const int idx : subset) {
    if (idx < 0 || idx >= catalog_size) {
      return InvalidInputError("facility subset index out of range [0, " +
                               std::to_string(catalog_size) + ")");
    }
    instance->facility_nodes.push_back(warm.facility_nodes[idx]);
    instance->capacities.push_back(warm.capacities[idx]);
  }
  return OkStatus();
}

bool SolverService::SettledBeforeSolve(const WarmState& warm,
                                       const McfsInstance& instance,
                                       const std::vector<int>& subset,
                                       SolveResponse* response) const {
  WallTimer preprocess_timer;
  if (!WarmValidate(warm, instance, subset)) {
    response->status = ValidateInstance(instance);
    MCFS_CHECK(!response->status.ok())
        << "warm validation rejected an instance the cold path accepts";
  }
  response->preprocess_seconds = preprocess_timer.Seconds();
  if (!response->status.ok()) return true;
  if (instance.m() == 0) {
    // SolveWma's trivial shortcut, replicated exactly.
    response->solution.feasible = true;
    return true;
  }
  return false;
}

bool SolverService::FillFromCacheLocked(const CacheKey& key, uint64_t epoch,
                                        SolveResponse* response) const {
  if (cache_epoch_ != epoch) return false;
  const auto it = cache_.find(key);
  if (it == cache_.end()) return false;
  const CacheEntry& entry = it->second;
  response->solution = entry.solution;
  response->stats = entry.stats;
  response->verify_ran = entry.verify_ran;
  response->verify_ok = entry.verify_ok;
  // Hits carry the tier of the entry they hit: an upgraded-in-place
  // entry serves "full" (bound cleared), a still-awaiting-refinement
  // entry serves "fast" with its recorded bound.
  response->tier = entry.tier;
  response->quality_bound = entry.quality_bound;
  response->cache_hit = true;
  return true;
}

bool SolverService::InsertCacheLocked(uint64_t epoch, const CacheKey& key,
                                      CacheEntry& entry) {
  if (cache_epoch_ != epoch) return false;
  // try_emplace leaves `entry` intact when the key is taken.
  if (!cache_.try_emplace(key, std::move(entry)).second) return false;
  cache_order_.push_back(key);
  while (static_cast<int>(cache_.size()) > options_.cache_capacity) {
    cache_.erase(cache_order_.front());
    cache_order_.pop_front();
  }
  return true;
}

void SolverService::Execute(PendingRequest& pending) {
  const SolveRequest& request = pending.request;
  // The trace context is installed before anything measurable happens:
  // every span, flight event, and histogram exemplar below — including
  // from the batch's ParallelFor workers, which inherit the id — joins
  // back to this request, whichever batch or worker served it.
  obs::ScopedTraceContext trace_scope(request.trace_id);
  MCFS_SPAN("serve/request");
  MCFS_RECORD("serve/request_begin",
              static_cast<int64_t>(request.customers.size()), request.k);
  // Erased by FinishRequest (every exit path runs it) *before* the
  // handle completes, so a waiter never observes its own finished
  // request as in flight.
  {
    std::lock_guard<std::mutex> lock(report_mutex_);
    in_flight_.push_back(request.trace_id);
  }
  std::shared_ptr<const WarmState> warm = SnapshotWarmState();

  SolveResponse response;
  response.epoch = warm->epoch;
  response.trace_id = request.trace_id;
  response.queue_seconds = NowSeconds() - pending.admitted_at;

  // Materialize the instance view this request describes. The response
  // must be bit-identical to SolveWma on exactly this instance.
  McfsInstance instance;
  response.status = BuildInstance(*warm, request.customers, request.k,
                                  request.facility_subset, &instance);
  if (!response.status.ok()) {
    FinishRequest(pending, std::move(response));
    return;
  }
  const CacheKey key = MakeCacheKey(request);
  const bool cacheable = Cacheable(request);

  if (cacheable) {
    bool hit = false;
    {
      std::lock_guard<std::mutex> lock(cache_mutex_);
      hit = FillFromCacheLocked(key, warm->epoch, &response);
    }
    // Completion happens outside cache_mutex_: FinishRequest fulfills
    // the handle, and a woken client can preempt this thread (single-
    // core boxes especially) — holding the lock through that wake
    // convoys every concurrent lookup behind a descheduled holder.
    if (hit) {
      FinishRequest(pending, std::move(response));
      return;
    }
  }

  if (SettledBeforeSolve(*warm, instance, request.facility_subset,
                         &response)) {
    FinishRequest(pending, std::move(response));
    return;
  }

  // options_.wma.deadline is copied through deliberately (each copy has
  // its own poll budget) — that is how tests plant AfterPolls expiries.
  WmaOptions wma = options_.wma;
  wma.deadline_ms = DeadlineMs(request);
  wma.cancel = request.cancel;
  wma.trace_id = request.trace_id;
  if (options_.fault_plan != nullptr &&
      options_.fault_plan->ShouldFire(FaultKind::kDeadlineCut)) {
    // Deterministic mid-solve expiry at a solver checkpoint — the
    // generalized AfterPolls hook. The solve degrades to its anytime
    // answer exactly as a real wall-clock deadline would.
    wma.deadline_ms = 0;
    wma.deadline = Deadline::AfterPolls(2);
    MCFS_RECORD("serve/fault_deadline_cut",
                static_cast<int64_t>(request.trace_id), 0);
    counts_.Add(ServiceCounts::kFaultsInjected);
  }
  WallTimer solve_timer;
  WmaResult result = RunWma(instance, wma);
  response.solve_seconds = solve_timer.Seconds();
  response.solution = std::move(result.solution);
  response.stats = std::move(result.stats);

  if (response.solution.termination == Termination::kDeadline) {
    counts_.Add(ServiceCounts::kDeadlineTerminations);
  }

  bool injected_reject = false;
  if (options_.fault_plan != nullptr &&
      options_.fault_plan->ShouldFire(FaultKind::kVerifyReject)) {
    // Treat the verdict below as a rejection (the solution itself is
    // fine) so the rejection machinery — postmortem capture, degraded
    // fallback — runs deterministically.
    injected_reject = true;
    MCFS_RECORD("serve/fault_verify_reject",
                static_cast<int64_t>(request.trace_id), 0);
    counts_.Add(ServiceCounts::kFaultsInjected);
  }
  // Degraded-opted deadline-cut answers are verified too: the anytime
  // solution only serves (as tier=degraded) once the independent
  // verifier blesses it.
  const bool verify_degrade_candidate =
      request.allow_degraded &&
      response.solution.termination == Termination::kDeadline;
  if (options_.verify || injected_reject || verify_degrade_candidate) {
    const VerifyReport verdict = VerifySolution(instance, response.solution);
    response.verify_ran = true;
    response.verify_ok = verdict.ok && !injected_reject;
  }

  if (request.allow_degraded &&
      ((response.verify_ran && !response.verify_ok) ||
       response.solution.termination == Termination::kDeadline)) {
    DegradeResponse(instance, warm->epoch,
                    response.verify_ran && !response.verify_ok,
                    request.facility_subset.empty()
                        ? &warm->nearest_facility
                        : nullptr,
                    &response);
  }

  if (cacheable && response.tier == "full" &&
      response.solution.termination == Termination::kConverged) {
    // Built outside the lock: this thread may be running at
    // background_nice, and a preemption inside cache_mutex_ would
    // convoy the inline fast tier behind a starved holder.
    CacheEntry full_entry{response.solution, response.stats,
                          response.verify_ran, response.verify_ok, "full",
                          0.0, request.trace_id};
    bool inserted = false;
    {
      std::lock_guard<std::mutex> lock(cache_mutex_);
      inserted = InsertCacheLocked(warm->epoch, key, full_entry);
    }
    // A queued full solve on the same identity overtook the background
    // refinement: upgrade in place now — the refiner will find the
    // entry already converged and discard its task.
    if (!inserted) {
      UpgradeFastEntry(warm->epoch, key, full_entry, request.trace_id);
    }
  }

  FinishRequest(pending, std::move(response));
}

void SolverService::DegradeResponse(const McfsInstance& instance,
                                    uint64_t epoch_at, bool rejected,
                                    const MultiSourceResult* nearest,
                                    SolveResponse* response) {
  MCFS_SPAN("serve/degrade");
  MultiSourceResult subset_nearest;
  if (nearest == nullptr) {
    subset_nearest =
        MultiSourceDijkstra(*instance.graph, instance.facility_nodes);
    nearest = &subset_nearest;
  }
  // Rung 1: the anytime best-so-far answer, which the caller already
  // ran through the independent verifier — unless that verdict (or an
  // injected rejection) marked it untrusted wholesale.
  bool synthesized = false;
  if (rejected || !response->solution.feasible) {
    // Rung 2: the instant responder's answer, verified from first
    // principles. Degraded answers never serve unchecked.
    MCFS_SPAN("serve/degraded_fallback");
    WallTimer fallback_timer;
    McfsSolution fallback;
    const bool answered = InstantAnswer(instance, *nearest, &fallback);
    response->solve_seconds += fallback_timer.Seconds();
    if (!answered) {
      // Ladder exhausted: fail closed with a typed status. A validated
      // feasible instance should never land here.
      response->status =
          UnavailableError("degraded fallback failed verification");
      response->verify_ran = true;
      response->verify_ok = false;
      RecordPostmortem("degraded_exhausted", response->trace_id, epoch_at);
      return;
    }
    // Keep the primary attempt's failure marker: a synthesized answer
    // never claims the convergence it replaced.
    fallback.termination = response->solution.termination;
    response->solution = std::move(fallback);
    synthesized = true;
  }
  response->tier = "degraded";
  response->verify_ran = true;
  response->verify_ok = true;
  response->quality_bound = NearestFacilityQualityBound(
      instance, response->solution.objective, *nearest);
  RecordPostmortem(
      rejected ? "degraded_verify_rejection" : "degraded_deadline",
      response->trace_id, epoch_at);
  if (synthesized) counts_.Add(ServiceCounts::kDegradedFallbacks);
}

bool SolverService::FastServe(PendingRequest& pending) {
  const SolveRequest& request = pending.request;
  obs::ScopedTraceContext trace_scope(request.trace_id);
  MCFS_SPAN("serve/fast");
  MCFS_RECORD("serve/fast_begin",
              static_cast<int64_t>(request.customers.size()), request.k);
  // The instant responder must never block behind a background thread
  // that was descheduled inside a critical section (a nice'd dispatcher
  // holding a lock can starve for a full scheduler round — priority
  // inversion that lands straight in the fast tier's p99). Every lock
  // this path takes before its latency is recorded is therefore a
  // try-lock, and contention skips the optional work: a skipped cache
  // lookup is a cache miss, and a skipped plant just means a later
  // occurrence plants instead. Counting takes no lock at all, and the
  // in-flight list (report_mutex_) is left to Execute and ResolveTracked.

  // The instant responder leans on the epoch's precomputed
  // nearest-facility distances; a catalog subset would need its own
  // multi-source Dijkstra — no longer instant — so subset requests take
  // the full path.
  if (!request.facility_subset.empty()) return false;

  std::shared_ptr<const WarmState> warm = SnapshotWarmState();

  SolveResponse response;
  response.epoch = warm->epoch;
  response.trace_id = request.trace_id;
  response.queue_seconds = NowSeconds() - pending.admitted_at;

  McfsInstance instance;
  BuildInstance(*warm, request.customers, request.k, {}, &instance);
  CacheKey key = MakeCacheKey(request);
  const bool cacheable = Cacheable(request);

  if (cacheable) {
    bool hit = false;
    {
      // try-lock: a contended cache is treated as a miss rather than a
      // wait — recomputing a 0.5ms fast answer beats blocking behind a
      // possibly-descheduled background holder.
      std::unique_lock<std::mutex> lock(cache_mutex_, std::try_to_lock);
      hit = lock.owns_lock() &&
            FillFromCacheLocked(key, warm->epoch, &response);
    }
    // Finish outside cache_mutex_ — same wake-preemption convoy hazard
    // as Execute's hit path; the fast tier is the one that pays for it.
    if (hit) {
      FinishRequest(pending, std::move(response));
      return true;
    }
  }

  // A rejection here is definitive: the full path would reject with the
  // same canonical status — no point burning a queue slot to find out.
  if (SettledBeforeSolve(*warm, instance, {}, &response)) {
    FinishRequest(pending, std::move(response));
    return true;
  }

  // A fast answer that cannot be proven feasible is not served fast, it
  // is solved for real.
  WallTimer solve_timer;
  McfsSolution solution;
  if (!InstantAnswer(instance, warm->nearest_facility, &solution)) {
    return false;
  }
  response.solve_seconds = solve_timer.Seconds();
  response.verify_ran = true;
  response.verify_ok = true;
  response.tier = "fast";
  response.quality_bound = NearestFacilityQualityBound(
      instance, solution.objective, warm->nearest_facility);
  response.solution = std::move(solution);

  // Plant the cache entry at tier "fast" and queue its background
  // refinement (same key, same epoch, same trace id). refine == false
  // answers are final and never cached, mirroring degraded answers.
  if (cacheable && request.refine) {
    // The entry is built (solution copied) before taking the lock so
    // the critical section is a map move-insert, and the acquisition is
    // a try-lock: losing a plant to contention only defers caching and
    // refinement to the identity's next occurrence.
    CacheEntry planted_entry{response.solution, response.stats, true, true,
                             "fast", response.quality_bound,
                             request.trace_id};
    bool planted = false;
    {
      std::unique_lock<std::mutex> lock(cache_mutex_, std::try_to_lock);
      planted = lock.owns_lock() &&
                InsertCacheLocked(warm->epoch, key, planted_entry);
    }
    if (planted) {
      bool enqueued = false;
      {
        std::lock_guard<std::mutex> lock(refine_mutex_);
        if (!refine_stop_) {
          // Dedup by (key, epoch): N identical fast answers need one
          // refinement. (Planting already required an empty slot, so a
          // duplicate here means a racing eviction + re-plant.)
          bool duplicate = false;
          for (const RefineTask& task : refine_queue_) {
            if (task.epoch == warm->epoch && !(task.key < key) &&
                !(key < task.key)) {
              duplicate = true;
              break;
            }
          }
          if (!duplicate) {
            refine_queue_.push_back(
                RefineTask{std::move(key), warm->epoch, request.trace_id});
            enqueued = true;
          }
        }
      }
      if (enqueued) {
        refine_cv_.notify_one();
        counts_.Add(ServiceCounts::kRefinesEnqueued);
      }
    }
  }
  FinishRequest(pending, std::move(response));
  return true;
}

void SolverService::RefinerLoop() {
  ApplyBackgroundNice(options_.background_nice);
  for (;;) {
    RefineTask task;
    {
      std::unique_lock<std::mutex> lock(refine_mutex_);
      refine_cv_.wait(
          lock, [this] { return refine_stop_ || !refine_queue_.empty(); });
      // Drain-on-shutdown: every fast answer's promised refinement runs.
      if (refine_queue_.empty()) return;
      task = std::move(refine_queue_.front());
      refine_queue_.pop_front();
      // Covers the pop-to-completion window so DrainRefinements has no
      // gap to race through ("queue empty" alone is not "idle").
      refine_active_ = true;
    }
    RunRefinement(task);
    {
      std::lock_guard<std::mutex> lock(refine_mutex_);
      refine_active_ = false;
    }
    refine_cv_.notify_all();
  }
}

void SolverService::RunRefinement(const RefineTask& task) {
  // Same trace id as the fast answer it refines: spans, flight events,
  // and the upgraded entry all join back to the original request.
  obs::ScopedTraceContext trace_scope(task.trace_id);
  MCFS_SPAN("serve/refine");
  const auto discard = [&] {
    counts_.Add(ServiceCounts::kRefineDiscards);
    MCFS_RECORD("serve/refine_discard", static_cast<int64_t>(task.trace_id),
                static_cast<int64_t>(task.epoch));
  };
  std::shared_ptr<const WarmState> warm = SnapshotWarmState();
  if (warm->epoch != task.epoch) {
    // The catalog moved on; the entry this refinement would upgrade was
    // invalidated with its epoch. Solving against the new catalog would
    // answer a different question.
    discard();
    return;
  }
  {
    std::lock_guard<std::mutex> lock(cache_mutex_);
    const auto it = cache_.find(task.key);
    if (cache_epoch_ != task.epoch || it == cache_.end() ||
        it->second.tier != "fast") {
      // Evicted, invalidated, or a queued full solve already overtook
      // the upgrade — nothing left to refine.
      discard();
      return;
    }
  }
  // Re-materialize the instance from the key under the epoch's catalog
  // (fast plants are full-catalog by construction) and run the solve
  // the SLA preempted, converged and deadline-free.
  McfsInstance instance;
  BuildInstance(*warm, task.key.customers, task.key.k, {}, &instance);
  WmaOptions wma = options_.wma;
  wma.deadline_ms = 0;
  wma.cancel = nullptr;
  wma.trace_id = task.trace_id;
  WallTimer solve_timer;
  WmaResult result = RunWma(instance, wma);
  // Fast completions are excluded from the admission estimator;
  // refinements are where the fast tier teaches it what the full solve
  // it displaced actually costs.
  UpdateEwma(ewma_service_seconds_, solve_timer.Seconds());
  counts_.Add(ServiceCounts::kRefineRuns);
  if (!result.solution.feasible ||
      result.solution.termination != Termination::kConverged) {
    // Only converged answers upgrade a cache entry (the same condition
    // Execute's insert enforces). The fast answer stays served.
    discard();
    return;
  }
  bool verify_ran = false;
  bool verify_ok = false;
  if (options_.verify) {
    const VerifyReport refined_verdict =
        VerifySolution(instance, result.solution);
    verify_ran = true;
    verify_ok = refined_verdict.ok;
  }
  CacheEntry refined{std::move(result.solution), std::move(result.stats),
                     verify_ran, verify_ok, "full", 0.0, task.trace_id};
  if (!UpgradeFastEntry(task.epoch, task.key, refined, task.trace_id)) {
    discard();
  }
}

bool SolverService::UpgradeFastEntry(uint64_t epoch, const CacheKey& key,
                                     CacheEntry& full, uint64_t trace_id) {
  {
    std::lock_guard<std::mutex> lock(cache_mutex_);
    const auto it = cache_.find(key);
    if (cache_epoch_ != epoch || it == cache_.end() ||
        it->second.tier != "fast") {
      return false;
    }
    // The trace id of the planting fast answer is kept: the converged
    // entry is that request's continuation, not a new identity.
    full.trace_id = it->second.trace_id;
    it->second = std::move(full);
  }
  counts_.Add(ServiceCounts::kRefineUpgrades);
  MCFS_RECORD("serve/cache_upgrade", static_cast<int64_t>(trace_id),
              static_cast<int64_t>(epoch));
  return true;
}

void SolverService::DrainRefinements() {
  std::unique_lock<std::mutex> lock(refine_mutex_);
  refine_cv_.wait(
      lock, [this] { return refine_queue_.empty() && !refine_active_; });
}

CacheProbe SolverService::ProbeCache(const SolveRequest& request) const {
  CacheProbe probe;
  std::shared_ptr<const WarmState> warm = SnapshotWarmState();
  // Same key derivation as Execute. A subset index out of range is
  // rejected there before anything is cached.
  McfsInstance instance;
  if (!BuildInstance(*warm, request.customers, request.k,
                     request.facility_subset, &instance)
           .ok()) {
    return probe;
  }
  const CacheKey key = MakeCacheKey(request);
  std::lock_guard<std::mutex> lock(cache_mutex_);
  const auto it = cache_.find(key);
  if (it == cache_.end()) return probe;
  probe.present = true;
  probe.tier = it->second.tier;
  probe.epoch = cache_epoch_;
  probe.trace_id = it->second.trace_id;
  probe.quality_bound = it->second.quality_bound;
  probe.verify_ok = it->second.verify_ok;
  return probe;
}

void SolverService::FinishRequest(PendingRequest& pending,
                                  SolveResponse response) {
  const double latency = NowSeconds() - pending.admitted_at;
  // Teach the admission-time overload control what a *full* request
  // costs (EWMA of the execution phases; queue wait excluded — it is
  // the quantity being estimated). Fast-tier completions are excluded:
  // their sub-millisecond samples would teach the estimator that full
  // solves are cheap, flip the next SLA decision to the queue, miss it,
  // and oscillate — background refinements feed the full-solve estimate
  // instead (RunRefinement). Cache hits are excluded too: they report
  // near-zero preprocess+solve time, and a burst of hits would collapse
  // the estimate until every SLA request believed the full path fit its
  // budget. The CAS loop in UpdateEwma keeps concurrent completions
  // from losing each other's updates.
  if (response.tier != "fast" && !response.cache_hit) {
    UpdateEwma(ewma_service_seconds_,
               response.preprocess_seconds + response.solve_seconds);
  }
  response.trace_id = pending.request.trace_id;
  counts_.Observe(ServiceCounts::kQueueSeconds, response.queue_seconds);
  counts_.Observe(ServiceCounts::kPreprocessSeconds,
                  response.preprocess_seconds);
  counts_.Observe(ServiceCounts::kSolveSeconds, response.solve_seconds);
  // The report's quantiles and completion count come from here. Execute
  // installed this request's trace context, so the bucket exemplar is
  // its trace id.
  counts_.Observe(ServiceCounts::kLatencyAll, latency);
  // A failure counts as one; served responses split by tier (DESIGN.md
  // §4.14) — the tier of a failure is meaningless and would pollute the
  // comparison. These counts are the fast and degraded response counts.
  if (!response.status.ok()) {
    counts_.Add(ServiceCounts::kRequestsFailed);
  } else if (response.tier == "fast") {
    counts_.Observe(ServiceCounts::kLatencyFast, latency);
  } else if (response.tier == "degraded") {
    counts_.Observe(ServiceCounts::kLatencyDegraded, latency);
  } else {
    counts_.Observe(ServiceCounts::kLatencyFull, latency);
  }
  if (response.cache_hit) counts_.Add(ServiceCounts::kCacheHits);
  MCFS_RECORD("serve/request_end",
              static_cast<int64_t>(response.trace_id),
              static_cast<int64_t>(response.status.code()));
  if (response.status.code() == StatusCode::kInfeasible) {
    RecordPostmortem("infeasible", response.trace_id, response.epoch);
  }
  const std::string tier =
      pending.request.tier.empty() ? std::string(kDefaultTier)
                                   : pending.request.tier;
  {
    std::lock_guard<std::mutex> lock(report_mutex_);
    const auto in_flight_it =
        std::find(in_flight_.begin(), in_flight_.end(), response.trace_id);
    if (in_flight_it != in_flight_.end()) in_flight_.erase(in_flight_it);
    // Tiers are distinct (checked at construction): at most one row.
    for (SloReport& slo : slos_) {
      if (slo.tier != tier) continue;
      slo.requests++;
      if (slo.target_latency_ms > 0.0 &&
          latency * 1000.0 > slo.target_latency_ms) {
        slo.violations++;
        slo.last_violation_trace_id = response.trace_id;
      }
    }
  }
  pending.handle->Complete(std::move(response));
}

std::vector<SloReport> SolverService::SloRowsLocked() const {
  std::vector<SloReport> rows = slos_;
  for (SloReport& row : rows) {
    // The budget is positive (checked at construction), so only a tier
    // with no requests yet has no burn.
    row.burn = row.requests == 0
                   ? 0.0
                   : static_cast<double>(row.violations) /
                         (row.error_budget * static_cast<double>(row.requests));
  }
  return rows;
}

ServiceReport SolverService::Report() const {
  ServiceReport report;
  {
    std::lock_guard<std::mutex> lock(report_mutex_);
    report.slos = SloRowsLocked();
  }
  counts_.FillReport(&report);
  report.epoch = epoch();
  return report;
}

ServiceSnapshot SolverService::DebugSnapshot() const {
  ServiceSnapshot snap;
  snap.t_us = obs::TraceNowUs();
  snap.epoch = epoch();
  {
    std::lock_guard<std::mutex> lock(queue_mutex_);
    snap.queue_depth = static_cast<int>(queue_.size());
  }
  snap.queue_capacity = options_.queue_depth;
  {
    std::lock_guard<std::mutex> lock(cache_mutex_);
    snap.cache_size = static_cast<int>(cache_.size());
  }
  snap.cache_capacity = options_.cache_capacity;
  {
    std::lock_guard<std::mutex> lock(refine_mutex_);
    snap.refine_backlog = static_cast<int>(refine_queue_.size()) +
                          (refine_active_ ? 1 : 0);
  }
  // Relaxed mirror, not resolve_mutex_: a snapshot must never block
  // behind a long ResolveTracked (that is the moment operators need it).
  snap.tracked_customers = tracked_count_.load(std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(report_mutex_);
    snap.in_flight = in_flight_;
  }
  // The same counts Report() reads, through the same view.
  const ServiceReport report = Report();
  snap.latency = report.latency;
  snap.slos = report.slos;
  snap.postmortems = report.postmortems;
  snap.degraded = report.degraded_responses;
  snap.shed = report.requests_shed;
  snap.checkpoints = report.checkpoints_saved + report.checkpoints_restored;
  snap.fast = report.fast_responses;
  snap.upgrades = report.refine_upgrades;
  return snap;
}

void SolverService::RecordPostmortem(const char* reason, uint64_t trace_id,
                                     uint64_t epoch_at) {
  // Collect events BEFORE counting, so the dump describes the failure,
  // not the dump machinery.
  std::ostringstream out;
  out << "{\"reason\": \"" << obs::JsonEscape(reason) << "\""
      << ", \"trace_id\": " << trace_id << ", \"epoch\": " << epoch_at
      << ", \"t_us\": " << obs::TraceNowUs() << ", \"events\": "
      << obs::FlightEventsJson(options_.postmortem_events) << "}";
  std::string json = out.str();
  counts_.Add(ServiceCounts::kPostmortems);
  {
    std::lock_guard<std::mutex> lock(report_mutex_);
    last_postmortem_ = json;
  }
  if (!options_.postmortem_path.empty()) {
    std::ofstream file(options_.postmortem_path);
    if (file.is_open()) file << json << "\n";
  }
}

std::string SolverService::DumpPostmortem(const std::string& reason) {
  RecordPostmortem(reason.c_str(), obs::CurrentTraceId(), epoch());
  return LastPostmortem();
}

std::string SolverService::LastPostmortem() const {
  std::lock_guard<std::mutex> lock(report_mutex_);
  return last_postmortem_;
}

std::string ServiceSnapshot::Json() const {
  std::ostringstream out;
  out << "{\"epoch\": " << epoch << ", \"t_us\": " << t_us
      << ", \"queue\": {\"depth\": " << queue_depth
      << ", \"capacity\": " << queue_capacity << "}"
      << ", \"cache\": {\"size\": " << cache_size
      << ", \"capacity\": " << cache_capacity << "}"
      << ", \"tracked_customers\": " << tracked_customers
      << ", \"in_flight\": [";
  for (size_t i = 0; i < in_flight.size(); ++i) {
    if (i > 0) out << ", ";
    out << in_flight[i];
  }
  out << "], \"latency_seconds\": " << LatencySummaryJson(latency)
      << ", \"slo\": " << SloReportsJson(slos)
      << ", \"postmortems\": " << postmortems
      << ", \"degraded\": " << degraded << ", \"shed\": " << shed
      << ", \"checkpoints\": " << checkpoints << ", \"fast\": " << fast
      << ", \"upgrades\": " << upgrades
      << ", \"refine_backlog\": " << refine_backlog << "}";
  return out.str();
}

}  // namespace mcfs
