#include "mcfs/core/wma.h"

#include <algorithm>
#include <numeric>
#include <optional>
#include <unordered_map>

#include "mcfs/common/check.h"
#include "mcfs/common/random.h"
#include "mcfs/common/timer.h"
#include "mcfs/core/repair.h"
#include "mcfs/core/set_cover.h"
#include "mcfs/core/validate.h"
#include "mcfs/flow/cost_scaling.h"
#include "mcfs/flow/matcher.h"
#include "mcfs/flow/matcher_backend.h"
#include "mcfs/graph/facility_stream.h"
#include "mcfs/obs/flight_recorder.h"
#include "mcfs/obs/metrics.h"
#include "mcfs/obs/trace.h"

namespace mcfs {

namespace {

// Greedy demand satisfaction used by WMA Naive (Sec. VII-A): per
// iteration, customers are processed in a random order and each takes
// its nearest d_i candidate facilities that still have spare capacity —
// no rewiring. Nearest-facility orders are cached per customer and
// extended lazily from the network.
class GreedyDemandMatcher {
 public:
  explicit GreedyDemandMatcher(const McfsInstance& instance)
      : instance_(instance),
        facility_index_of_node_(instance.graph->NumNodes(), -1),
        cache_(instance.m()),
        streams_(instance.m()) {
    for (int j = 0; j < instance.l(); ++j) {
      facility_index_of_node_[instance.facility_nodes[j]] = j;
    }
  }

  // Rebuilds the full exploratory assignment for the given demands,
  // clearing sigma in place, and reports every facility whose sigma_j it
  // emptied or filled to `cover_index`.
  void AssignDemands(const std::vector<int>& demand, Rng& rng,
                     std::vector<std::vector<int>>* sigma,
                     std::vector<double>* matched_cost,
                     std::vector<uint8_t>* saturated,
                     CoverIndex* cover_index) {
    const int m = instance_.m();
    const int l = instance_.l();
    for (int j = 0; j < l; ++j) {
      if ((*sigma)[j].empty()) continue;
      (*sigma)[j].clear();
      cover_index->MarkChanged(j);
    }
    matched_cost->assign(l, 0.0);
    saturated->assign(m, 0);
    load_.assign(l, 0);
    order_.resize(m);
    std::iota(order_.begin(), order_.end(), 0);
    rng.Shuffle(order_);
    for (const int i : order_) {
      int taken = 0;
      for (size_t idx = 0; taken < demand[i]; ++idx) {
        const FacilityAtDistance* entry = CachedAt(i, idx);
        if (entry == nullptr) {
          (*saturated)[i] = 1;
          break;
        }
        if (load_[entry->facility] < instance_.capacities[entry->facility]) {
          load_[entry->facility]++;
          (*sigma)[entry->facility].push_back(i);
          (*matched_cost)[entry->facility] += entry->distance;
          cover_index->MarkChanged(entry->facility);
          ++taken;
        }
      }
    }
  }

  // Final single assignment restricted to the selected facilities.
  McfsSolution AssignFinal(const std::vector<int>& selected, Rng& rng) {
    McfsSolution solution;
    solution.selected = selected;
    solution.assignment.assign(instance_.m(), -1);
    solution.distances.assign(instance_.m(), 0.0);
    std::vector<uint8_t> in_selection(instance_.l(), 0);
    for (const int j : selected) in_selection[j] = 1;
    std::vector<int> load(instance_.l(), 0);
    std::vector<int> order(instance_.m());
    std::iota(order.begin(), order.end(), 0);
    rng.Shuffle(order);
    solution.feasible = true;
    for (const int i : order) {
      for (size_t idx = 0;; ++idx) {
        const FacilityAtDistance* entry = CachedAt(i, idx);
        if (entry == nullptr) {
          solution.feasible = false;
          break;
        }
        const int j = entry->facility;
        if (in_selection[j] && load[j] < instance_.capacities[j]) {
          load[j]++;
          solution.assignment[i] = j;
          solution.distances[i] = entry->distance;
          solution.objective += entry->distance;
          break;
        }
      }
    }
    return solution;
  }

 private:
  // Extends `customer`'s cached nearest-facility order to `target`
  // entries (or until the component runs out of candidates).
  void ExtendCache(int customer, size_t target) {
    auto& cache = cache_[customer];
    while (cache.size() < target) {
      if (streams_[customer] == nullptr) {
        streams_[customer] = std::make_unique<NearestFacilityStream>(
            instance_.graph, instance_.customers[customer],
            &facility_index_of_node_);
      }
      std::optional<FacilityAtDistance> next = streams_[customer]->Pop();
      if (!next.has_value()) return;
      cache.push_back(*next);
    }
  }

  // idx-th nearest candidate facility of `customer`, extending the
  // cache from the network stream on demand; nullptr when exhausted.
  const FacilityAtDistance* CachedAt(int customer, size_t idx) {
    auto& cache = cache_[customer];
    if (cache.size() <= idx) ExtendCache(customer, idx + 1);
    if (cache.size() <= idx) return nullptr;
    return &cache[idx];
  }

  const McfsInstance& instance_;
  std::vector<int> facility_index_of_node_;
  std::vector<std::vector<FacilityAtDistance>> cache_;
  std::vector<std::unique_ptr<NearestFacilityStream>> streams_;
  // AssignDemands scratch, reused across iterations.
  std::vector<int> load_;
  std::vector<int> order_;
};

int64_t DefaultIterationCap(const McfsInstance& instance) {
  return static_cast<int64_t>(instance.m()) * std::max(instance.l(), 1) + 10;
}

// Greedy node-keyed mapping of this run's customers onto seed
// customers: each customer adopts the first unused seed customer on the
// same graph node (co-located customers are interchangeable — streams
// are node-pure and an optimal matching stays optimal under any
// permutation of equals). seed_of[i] = seed index or -1. Seed customers
// flagged in `skip` are never handed out.
std::vector<int> MapSeedCustomers(
    const std::vector<NodeId>& customers,
    const std::vector<WarmSeedCustomer>& seed_customers,
    const std::vector<uint8_t>& skip) {
  std::unordered_map<NodeId, std::vector<int>> by_node;
  by_node.reserve(seed_customers.size());
  // Reverse insertion so pop_back hands out seed indices in ascending
  // order.
  for (int s = static_cast<int>(seed_customers.size()) - 1; s >= 0; --s) {
    if (s < static_cast<int>(skip.size()) && skip[s] != 0) continue;
    by_node[seed_customers[s].node].push_back(s);
  }
  std::vector<int> seed_of(customers.size(), -1);
  for (size_t i = 0; i < customers.size(); ++i) {
    auto it = by_node.find(customers[i]);
    if (it == by_node.end() || it->second.empty()) continue;
    seed_of[i] = it->second.back();
    it->second.pop_back();
  }
  return seed_of;
}

bool SameNodeSet(std::vector<NodeId> a, std::vector<NodeId> b) {
  if (a.size() != b.size()) return false;
  std::sort(a.begin(), a.end());
  std::sort(b.begin(), b.end());
  return a == b;
}

}  // namespace

WmaResult RunWma(const McfsInstance& instance, const WmaOptions& options) {
  MCFS_CHECK(instance.graph != nullptr);
  MCFS_CHECK_GT(instance.m(), 0);
  MCFS_CHECK_GT(instance.l(), 0);
  MCFS_CHECK_GT(instance.k, 0);

  if (options.metrics) obs::EnableMetrics(true);
  // Request-scoped attribution (DESIGN.md §4.11): install the caller's
  // trace context for the whole run, so every span / flight event /
  // histogram exemplar below — including those emitted by ParallelFor
  // workers, which inherit the dispatching context — carries it. With
  // trace_id == 0 the caller's already-installed context (if any) is
  // kept.
  obs::ScopedTraceContext trace_scope(
      options.trace_id != 0 ? options.trace_id : obs::CurrentTraceId());
  MCFS_SPAN("wma/run");
  MCFS_RECORD("wma/run_begin", instance.m(), instance.l());
  WallTimer total_timer;
  // Everything before the demand-growth loop: matcher construction,
  // warm seed mapping, IsFeasible.
  std::optional<obs::TraceSpan> setup_span;
  setup_span.emplace("wma/setup");
  WmaResult result;
  const int m = instance.m();
  const int l = instance.l();

  std::vector<int> demand(m, 1);
  std::vector<uint8_t> saturated(m, 0);
  std::vector<std::vector<int>> sigma(l);
  std::vector<double> matched_cost(l, 0.0);
  // CheckCover's candidate order persists across iterations; only the
  // facilities whose sigma_j changed are re-keyed (DESIGN.md §3).
  CoverIndex cover_index(l);
  Rng rng(options.seed);

  std::unique_ptr<IncrementalMatcher> matcher;
  std::unique_ptr<GreedyDemandMatcher> greedy;
  if (options.naive) {
    greedy = std::make_unique<GreedyDemandMatcher>(instance);
  } else {
    matcher = std::make_unique<IncrementalMatcher>(
        instance.graph, instance.customers, instance.facility_nodes,
        instance.capacities);
  }

  // Warm start (DESIGN.md §4.10). The trajectory matcher only adopts
  // *stream prefixes* — discovery sequences are pure functions of
  // (graph, source, candidate membership), so the demand-growth loop
  // replays bit-identically to a cold run while skipping the network
  // Dijkstras. No matches or potentials are adopted here; that could
  // steer CheckCover onto a different selection than cold.
  const WmaWarmSeed* warm = options.naive ? nullptr : options.warm_seed.get();
  if (warm != nullptr && !warm->trajectory.customers.empty()) {
    MCFS_SPAN("wma/warm_seed_streams");
    const std::vector<int> seed_of = MapSeedCustomers(
        instance.customers, warm->trajectory.customers,
        options.warm_stream_invalid);
    for (int i = 0; i < m; ++i) {
      if (seed_of[i] < 0) continue;
      const WarmSeedCustomer& sc = warm->trajectory.customers[seed_of[i]];
      matcher->SeedStreamPrefix(i, sc);
      result.stats.warm_stream_entries +=
          static_cast<int64_t>(sc.edges.size() + sc.buffered.size());
    }
    MCFS_COUNT("wma/warm_stream_entries", result.stats.warm_stream_entries);
    MCFS_RECORD("wma/warm_seed_streams", result.stats.warm_stream_entries,
                static_cast<int64_t>(warm->trajectory.customers.size()));
  }

  // Cooperative deadline (DESIGN.md §4.8): polled at the iteration top,
  // per-customer augmentation boundaries, and inside the CheckCover
  // scan. When it fires the demand-growth loop stops, but the wrap-up
  // (SelectGreedy / CoverComponents / final assignment) still runs, so
  // the result is the best-so-far feasible solution — anytime behavior,
  // never an abort. Without a deadline `expired` is one branch.
  const Deadline deadline =
      options.deadline_ms > 0
          ? Deadline::AfterMillis(static_cast<double>(options.deadline_ms))
          : options.deadline;
  auto expired = [&deadline, &options]() {
    return deadline.Expired() ||
           (options.cancel != nullptr && options.cancel->Cancelled());
  };
  bool deadline_fired = false;

  int64_t max_iterations = options.max_iterations > 0
                               ? options.max_iterations
                               : DefaultIterationCap(instance);
  const bool feasible_instance = IsFeasible(instance);
  if (!feasible_instance) {
    // No selection of k facilities can cover every customer, so the
    // cover-driven demand growth would never terminate on its own
    // (customers explore all l candidates in vain). Run a handful of
    // enrichment iterations for a good partial cover and stop.
    max_iterations = std::min<int64_t>(max_iterations, 8);
  }
  // The loop is serial at every thread count: each FindPair depends on
  // the matches before it, and a per-iteration parallel stream prefetch
  // measured slower than paying each Dijkstra inline (DESIGN.md §4.5).
  // options.threads sizes only the final assignment's one-shot burst.
  std::vector<int> changed_facilities;
  CoverResult cover;
  setup_span.reset();
  for (int64_t iteration = 0; iteration < max_iterations; ++iteration) {
    if (expired()) {
      deadline_fired = true;
      break;
    }
    MCFS_SPAN("wma/iteration");
    MCFS_COUNT("wma/iterations", 1);
    MCFS_RECORD("wma/phase/iteration", iteration, 0);
    const int64_t dijkstra_runs_before =
        matcher != nullptr ? matcher->num_dijkstra_runs() : 0;
    const int64_t edges_before =
        matcher != nullptr ? matcher->num_edges_materialized() : 0;

    double matching_seconds = 0.0;
    {
      MCFS_SPAN("wma/matching");
      ScopedTimer matching_timer(&matching_seconds, "wma/matching_seconds");
      if (options.naive) {
        greedy->AssignDemands(demand, rng, &sigma, &matched_cost,
                              &saturated, &cover_index);
      } else {
        for (int i = 0; i < m && !deadline_fired; ++i) {
          while (!saturated[i] &&
                 matcher->CustomerMatchCount(i) < demand[i]) {
            if (!matcher->FindPair(i)) saturated[i] = 1;
          }
          // Augmentation boundary: abandoning the remaining customers
          // leaves the matching state consistent (every accepted
          // augmentation is complete).
          if (expired()) deadline_fired = true;
        }
        // Re-sync sigma_j and matched_cost[j] only for the facilities
        // whose match set changed, bit-equal to a full rebuild.
        matcher->SyncChangedFacilities(&sigma, &matched_cost,
                                       &changed_facilities);
        for (const int j : changed_facilities) cover_index.MarkChanged(j);
      }
    }
    result.stats.matching_seconds += matching_seconds;
    MCFS_HISTOGRAM("wma/matching_seconds", matching_seconds);
    if (deadline_fired) {
      MCFS_RECORD("wma/deadline_hit", iteration, /*phase=matching*/ 0);
      break;  // keep the previous iteration's cover
    }

    double cover_seconds = 0.0;
    {
      MCFS_SPAN("wma/cover");
      ScopedTimer cover_timer(&cover_seconds, "wma/cover_seconds");
      CoverInput input;
      input.num_customers = m;
      input.k = instance.k;
      input.customers_of_facility = &sigma;
      input.demand = &demand;
      input.demand_cap = l;
      input.saturated = &saturated;
      if (options.cost_tie_break) input.matched_cost = &matched_cost;
      if (!deadline.never_expires()) input.deadline = &deadline;
      cover = CheckCover(input, cover_index, iteration);
      if (cover.deadline_expired) deadline_fired = true;
    }
    result.stats.cover_seconds += cover_seconds;
    MCFS_HISTOGRAM("wma/cover_seconds", cover_seconds);
    result.stats.iterations = static_cast<int>(iteration) + 1;

    if (options.collect_iteration_stats) {
      const int covered = static_cast<int>(
          std::count(cover.covered.begin(), cover.covered.end(), 1));
      WmaIterationStats iter_stats;
      iter_stats.iteration = static_cast<int>(iteration) + 1;
      iter_stats.covered_customers = covered;
      iter_stats.matching_seconds = matching_seconds;
      iter_stats.cover_seconds = cover_seconds;
      if (matcher != nullptr) {
        iter_stats.dijkstra_runs =
            matcher->num_dijkstra_runs() - dijkstra_runs_before;
        iter_stats.edges_materialized =
            matcher->num_edges_materialized() - edges_before;
      }
      result.stats.per_iteration.push_back(iter_stats);
    }
    if (deadline_fired) {
      MCFS_RECORD("wma/deadline_hit", iteration, /*phase=cover*/ 1);
      break;  // partial greedy prefix is still usable
    }
    if (cover.all_delta_zero) break;
    int64_t demand_increments = 0;
    for (int i = 0; i < m; ++i) {
      if (cover.delta_demand[i]) {
        demand[i]++;
        ++demand_increments;
      }
    }
    MCFS_COUNT("wma/demand_increments", demand_increments);
  }

  std::vector<int> selected = cover.selected;
  if (static_cast<int>(selected.size()) < instance.k) {
    MCFS_SPAN("wma/select_greedy");
    SelectGreedy(instance, selected);
  }
  if (!cover.fully_covered) {
    MCFS_SPAN("wma/cover_components");
    CoverComponents(instance, selected);
  }

  // The trajectory is exported before the final assignment, which may
  // take over the loop matcher's streams.
  std::shared_ptr<WmaWarmSeed> seed_out;
  if (options.export_warm_seed && matcher != nullptr) {
    MCFS_SPAN("wma/warm_seed_export");
    seed_out = std::make_shared<WmaWarmSeed>();
    seed_out->trajectory = matcher->ExportWarmSeed();
  }

  std::unique_ptr<IncrementalMatcher> final_matcher;
  {
    MCFS_SPAN("wma/final_assign");
    MCFS_RECORD("wma/phase/final_assign",
                static_cast<int64_t>(selected.size()),
                result.stats.iterations);
    ScopedTimer final_timer(&result.stats.final_assign_seconds,
                            "wma/final_assign_seconds");
    if (options.naive) {
      result.solution = greedy->AssignFinal(selected, rng);
      if (!result.solution.feasible) {
        // Greedy assignment can dead-end on feasible instances (capacity
        // grabbed by the wrong customers); fall back to one matching.
        result.solution = AssignOptimally(instance, selected, options.threads,
                                          options.matcher);
      }
    } else {
      std::vector<NodeId> selected_nodes;
      std::vector<int> selected_caps;
      selected_nodes.reserve(selected.size());
      selected_caps.reserve(selected.size());
      int64_t selected_capacity = 0;
      for (const int j : selected) {
        selected_nodes.push_back(instance.facility_nodes[j]);
        selected_caps.push_back(instance.capacities[j]);
        selected_capacity += instance.capacities[j];
      }
      MatchShape final_shape;
      final_shape.customers = m;
      final_shape.facilities = static_cast<int64_t>(selected.size());
      final_shape.total_capacity = selected_capacity;
      final_shape.warm =
          warm != nullptr && (!warm->final_assign.customers.empty() ||
                              !warm->trajectory.customers.empty());
      const MatcherBackendKind final_backend =
          ResolveMatcherBackend(options.matcher, final_shape);
      result.stats.matcher_backend = MatcherBackendName(final_backend);
      if (final_backend == MatcherBackendKind::kCostScaling) {
        if (final_shape.warm) {
          // Cost scaling cannot resume a warm seed; record the typed
          // refusal and solve cold (the seed stays valid for a later
          // SSPA epoch — nothing is consumed or invalidated here).
          const Status refusal = CostScalingMatcher::WarmSeedStatus();
          MCFS_DCHECK(refusal.code() == StatusCode::kUnsupported);
          ++result.stats.warm_backend_refusals;
          MCFS_COUNT("wma/warm_backend_refusals", 1);
          MCFS_RECORD("wma/warm/backend_refusal",
                      static_cast<int64_t>(refusal.code()), 0);
        }
        result.solution =
            AssignOptimally(instance, selected, options.threads,
                            MatcherBackendKind::kCostScaling);
      } else {
        final_matcher = std::make_unique<IncrementalMatcher>(
            instance.graph, instance.customers, selected_nodes, selected_caps);
        if (warm != nullptr && !warm->final_assign.customers.empty() &&
            SameNodeSet(selected_nodes, warm->final_assign.facility_nodes)) {
          // Same facility node set as last epoch: resume the previous
          // matching wholesale. Per-edge dual re-validation plus the
          // invalidation masks shed exactly what a delta broke; the
          // FindPair re-runs inside AssignWithMatcher then repair only
          // those customers, and the result is again an optimal matching
          // — equal in objective to a cold solve.
          const std::vector<int> seed_of = MapSeedCustomers(
              instance.customers, warm->final_assign.customers,
              options.warm_stream_invalid);
          std::vector<uint8_t> adopt_match(m, 1);
          for (int i = 0; i < m; ++i) {
            const int s = seed_of[i];
            if (s >= 0 &&
                s < static_cast<int>(options.warm_match_invalid.size()) &&
                options.warm_match_invalid[s] != 0) {
              adopt_match[i] = 0;
            }
          }
          final_matcher->ResumeFrom(warm->final_assign, seed_of, adopt_match);
          result.stats.warm_final_resumed = true;
          MCFS_RECORD("wma/warm/final_resumed", m, 0);
          for (int i = 0; i < m; ++i) {
            if (final_matcher->CustomerMatchCount(i) >= 1) {
              ++result.stats.warm_customers_reused;
            } else {
              ++result.stats.warm_customers_repaired;
            }
          }
          MCFS_COUNT("wma/warm_customers_reused",
                     result.stats.warm_customers_reused);
          MCFS_COUNT("wma/warm_customers_repaired",
                     result.stats.warm_customers_repaired);
        } else {
          // Cold, or the selection changed: the matching cannot be
          // resumed, but the loop's streams already hold every customer's
          // discoveries over the full catalog (warm ones were seeded from
          // the previous trajectory). A sub-membership sequence is the
          // filtered super-membership sequence, so they carry on over the
          // selected subset instead of new streams starting from scratch.
          final_matcher->InheritStreams(*matcher);
        }
        result.solution =
            AssignWithMatcher(instance, selected, *final_matcher,
                              options.threads);
      }
    }
  }
  if (seed_out != nullptr) {
    MCFS_SPAN("wma/warm_seed_export");
    // A cost-scaling final assignment has no matcher snapshot to
    // export; final_assign stays empty and the next epoch re-matches
    // from the seeded trajectory streams.
    if (final_matcher != nullptr) {
      seed_out->final_assign = final_matcher->ExportWarmSeed();
    }
    result.warm_seed = std::move(seed_out);
  }
  if (matcher != nullptr) {
    result.stats.dijkstra_runs = matcher->num_dijkstra_runs();
    result.stats.edges_materialized = matcher->num_edges_materialized();
    result.stats.theorem1_prunes = matcher->num_theorem1_prunes();
    result.stats.rewirings = matcher->num_rewirings();
    result.stats.label_correcting_runs =
        matcher->num_label_correcting_runs();
  }
  MCFS_COUNT("wma/saturated_customers",
             std::count(saturated.begin(), saturated.end(), 1));
  Termination termination = Termination::kConverged;
  if (!feasible_instance) {
    termination = Termination::kInfeasible;
  } else if (deadline_fired) {
    termination = Termination::kDeadline;
    MCFS_COUNT("wma/deadline_exits", 1);
  }
  result.solution.termination = termination;
  result.stats.termination = termination;
  result.stats.total_seconds = total_timer.Seconds();
  MCFS_HISTOGRAM("wma/total_seconds", result.stats.total_seconds);
  MCFS_RECORD("wma/run_end", static_cast<int64_t>(termination),
              result.stats.iterations);
  return result;
}

WmaResult RunUniformFirstWma(const McfsInstance& instance,
                             const WmaOptions& options) {
  if (options.metrics) obs::EnableMetrics(true);
  MCFS_SPAN("wma/uniform_first");
  WallTimer total_timer;
  // Phase 1: pretend capacities are uniform at the average value.
  const double mean_capacity =
      std::accumulate(instance.capacities.begin(), instance.capacities.end(),
                      0.0) /
      std::max(instance.l(), 1);
  McfsInstance uniform = instance;
  uniform.capacities.assign(
      instance.l(),
      std::max(1, static_cast<int>(std::lround(mean_capacity))));
  // Materialize deadline_ms here so both phases share one budget (the
  // wrap-up below runs to completion regardless, as in RunWma).
  WmaOptions phase_options = options;
  if (options.deadline_ms > 0) {
    phase_options.deadline =
        Deadline::AfterMillis(static_cast<double>(options.deadline_ms));
    phase_options.deadline_ms = 0;
  }
  WmaResult phase1 = RunWma(uniform, phase_options);

  // Phase 2: keep the selected locations, reassign under the true
  // nonuniform capacities (repairing component feasibility if the
  // uniform pretense over-promised capacity somewhere).
  std::vector<int> selected = phase1.solution.selected;
  CoverComponents(instance, selected);
  WmaResult result;
  result.stats = phase1.stats;
  result.solution =
      AssignOptimally(instance, selected, options.threads, options.matcher);
  if (!result.solution.feasible) {
    // A second repair attempt with greedy extension, then reassign.
    SelectGreedy(instance, selected);
    CoverComponents(instance, selected);
    result.solution =
        AssignOptimally(instance, selected, options.threads, options.matcher);
  }
  // Phase 1 judged feasibility of the *uniform* pretense; re-derive the
  // verdict for the true instance, keeping any deadline cut from it.
  Termination termination = Termination::kConverged;
  if (!IsFeasible(instance)) {
    termination = Termination::kInfeasible;
  } else if (phase1.stats.termination == Termination::kDeadline) {
    termination = Termination::kDeadline;
  }
  result.solution.termination = termination;
  result.stats.termination = termination;
  result.stats.total_seconds = total_timer.Seconds();
  return result;
}

StatusOr<WmaResult> SolveWma(const McfsInstance& instance,
                             const WmaOptions& options) {
  Status status = ValidateInstance(instance);
  if (!status.ok()) return status;
  if (instance.m() == 0) {
    // Nothing to serve; RunWma requires m > 0, so short-circuit the
    // trivial empty solution here.
    WmaResult result;
    result.solution.feasible = true;
    return result;
  }
  // ValidateInstance passing with m > 0 implies l > 0 and k > 0 (a
  // component with customers but no facilities, or a budget below the
  // per-component minimum, is kInfeasible), so RunWma's preconditions
  // hold.
  return RunWma(instance, options);
}

}  // namespace mcfs
