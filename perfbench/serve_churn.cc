// serve_churn: a tracked bike population (bike_sim) on the Aalborg
// preset at scale 0.15. Each epoch applies one ApplyUpdate delta (~5% of
// the bikes depart and as many arrive, plus one station +1 / one -1
// dock every third epoch, undone three epochs later, so the population
// and the capacities stay stationary however many epochs a run takes)
// and then re-solves with ResolveTracked(k),
// both timed at the client. Epoch 1 applies an empty delta. After the
// timed loop, every epoch's instance is solved cold by SolveWma as the
// reference.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <numeric>
#include <optional>
#include <sstream>

#include "common.h"
#include "mcfs/common/random.h"
#include "mcfs/common/thread_pool.h"
#include "mcfs/core/validate.h"
#include "mcfs/core/verifier.h"
#include "mcfs/graph/road_network.h"
#include "mcfs/obs/trace.h"
#include "mcfs/serve/solver_service.h"
#include "mcfs/workload/bike_sim.h"
#include "mcfs/workload/workload.h"

namespace mcfs::perf {
namespace {

constexpr double kScale = 0.15;
constexpr double kSmokeScale = 0.05;
// The network, stations and initial bikes are bench_serve --churn's at
// its default seed; the run seed draws the churn stream.
constexpr uint64_t kInstanceSeed = 42;
constexpr double kChurnRate = 0.05;
// Warm epochs per run: at least 10 samples lie beyond p90.
constexpr int kMinWarmEpochs = 110;

struct ChurnEnv {
  std::unique_ptr<Graph> city;
  BikeScenario scenario;
  // Cumulative arrival weights: bike_sim's own mix of 0.9 x docking
  // demand + 0.1 uniform.
  std::vector<double> arrival_cdf;
  int k = 0;
  std::unique_ptr<SolverService> service;
};

// The bike scenario on the run's network and the smallest feasible
// budget plus slack for capacity decreases.
void DrawScenario(double scale, uint64_t seed, ChurnEnv* env) {
  const Graph& city = *env->city;
  BikeSimOptions sim;
  sim.seed = seed;
  sim.num_stations = std::max(
      24, std::min(city.NumNodes() / 6,
                   static_cast<int>(600 * std::max(scale, 0.05))));
  sim.num_bikes = std::max(60, static_cast<int>(500 * std::max(scale, 0.15)));
  env->scenario = GenerateBikeScenario(city, sim);
  const int l = static_cast<int>(env->scenario.stations.size());
  int k = std::max(2, l / 3);
  for (; k < l; ++k) {
    McfsInstance probe;
    probe.graph = &city;
    probe.customers = env->scenario.bikes;
    probe.facility_nodes = env->scenario.stations;
    probe.capacities = env->scenario.capacities;
    probe.k = k;
    if (IsFeasible(probe)) break;
  }
  env->k = std::min(l, k + 2);
  const double smoothing = 0.1 / city.NumNodes();
  double total = 0.0;
  for (const double demand : env->scenario.demand) {
    total += 0.9 * demand + smoothing;
    env->arrival_cdf.push_back(total);
  }
}

// Network generation plus service construction (the warm build). The
// previous service and network are torn down before the clock starts.
double BuildEnv(double scale, uint64_t seed, ChurnEnv* env) {
  env->service.reset();
  env->city.reset();
  const double t0 = NowSeconds();
  env->city = std::make_unique<Graph>(GenerateCity(AalborgPreset(scale, seed)));
  const double seconds = NowSeconds() - t0;
  // The scenario holds node ids only, so it is drawn once per run.
  if (env->scenario.stations.empty()) DrawScenario(scale, seed, env);
  ServiceOptions options;
  options.serve_threads = kServeThreads;
  options.wma = BaseWmaOptions(kWmaThreads);
  const double t1 = NowSeconds();
  env->service = std::make_unique<SolverService>(
      env->city.get(), env->scenario.stations, env->scenario.capacities,
      options);
  return seconds + NowSeconds() - t1;
}

// Capacity ops of one capacity epoch: one station gains a dock and
// another (with more than one) loses one.
std::vector<UpdateOp> DrawCapacityToggle(const McfsInstance& tracked,
                                         Rng& rng) {
  const int l = tracked.l();
  const int up = static_cast<int>(rng.UniformInt(0, l - 1));
  std::vector<UpdateOp> ops = {
      {UpdateKind::kCapacityDelta, tracked.facility_nodes[up], 1}};
  for (int probe = 0; probe < l; ++probe) {
    const int down = static_cast<int>(rng.UniformInt(0, l - 1));
    if (down != up && tracked.capacities[down] > 1) {
      ops.push_back(
          {UpdateKind::kCapacityDelta, tracked.facility_nodes[down], -1});
      break;
    }
  }
  return ops;
}

// One churn delta against the tracked population: departures are
// distinct tracked customers (sampled by index without replacement), so
// no delta can name a node with no customer left; arrivals follow the
// scenario's own bike distribution, so the population stays stationary.
// Deltas that would make the instance infeasible are redrawn, with the
// capacity ops dropped first (*capacity_applied tells which).
UpdateRequest MakeDelta(const McfsInstance& tracked,
                        const std::vector<double>& arrival_cdf,
                        const std::vector<UpdateOp>& capacity_ops, Rng& rng,
                        bool* feasible, bool* capacity_applied) {
  const int m = tracked.m();
  const int moves =
      std::max(1, static_cast<int>(kChurnRate * static_cast<double>(m)));
  for (int attempt = 0; attempt < 20; ++attempt) {
    std::vector<int> index(static_cast<size_t>(m));
    std::iota(index.begin(), index.end(), 0);
    for (int t = 0; t < moves; ++t) {
      std::swap(index[t], index[rng.UniformInt(t, m - 1)]);
    }
    std::vector<NodeId> arrivals;
    for (int t = 0; t < moves; ++t) {
      const double target = rng.Uniform(0.0, arrival_cdf.back());
      arrivals.push_back(static_cast<NodeId>(
          std::upper_bound(arrival_cdf.begin(), arrival_cdf.end(), target) -
          arrival_cdf.begin()));
    }
    McfsInstance next = tracked;
    next.customers.clear();
    for (int i = moves; i < m; ++i) {
      next.customers.push_back(tracked.customers[index[i]]);
    }
    next.customers.insert(next.customers.end(), arrivals.begin(),
                          arrivals.end());
    for (const bool with_capacity : {!capacity_ops.empty(), false}) {
      McfsInstance probe = next;
      if (with_capacity) {
        for (const UpdateOp& op : capacity_ops) {
          const auto it = std::find(probe.facility_nodes.begin(),
                                    probe.facility_nodes.end(), op.node);
          probe.capacities[it - probe.facility_nodes.begin()] +=
              op.capacity_delta;
        }
      }
      if (!IsFeasible(probe)) continue;
      UpdateRequest delta;
      for (int t = 0; t < moves; ++t) {
        delta.ops.push_back(
            {UpdateKind::kCustomerDepart, tracked.customers[index[t]], 0});
      }
      for (const NodeId node : arrivals) {
        delta.ops.push_back({UpdateKind::kCustomerArrive, node, 0});
      }
      if (with_capacity) {
        delta.ops.insert(delta.ops.end(), capacity_ops.begin(),
                         capacity_ops.end());
      }
      *feasible = true;
      *capacity_applied = with_capacity;
      return delta;
    }
  }
  *feasible = false;
  *capacity_applied = false;
  return {};
}

struct Epoch {
  McfsInstance instance;  // what ResolveTracked solved
  SolveResponse response;
  bool update_ok = true;
  bool delta_feasible = true;
  double update_seconds = 0.0;
  double resolve_seconds = 0.0;
  double validate_seconds = 0.0;
  double verify_seconds = 0.0;
  int verify_dijkstra_runs = 0;
  bool verify_ok = true;
  std::optional<StatusOr<WmaResult>> cold;  // the reference
};

struct ChurnRun {
  double setup_s = 0.0;
  std::vector<Epoch> epochs;  // epoch 0 is the cold plant
  int n = 0;
  int l = 0;
  int k = 0;
  size_t bikes = 0;
  ServiceReport report;
  obs::MetricsSnapshot counters;
};

// Runs epochs until `seconds` have passed and kMinWarmEpochs warm epochs
// are in (or exactly `fixed_epochs` when positive).
ChurnRun RunEpochs(const Args& args, bool traced, int fixed_epochs,
                   Outcome* outcome) {
  const double scale = args.smoke ? kSmokeScale : kScale;
  ChurnRun run;
  ChurnEnv env;
  SetObservability(false);
  run.setup_s = MedianSetupSeconds(
      [&] { return BuildEnv(scale, kInstanceSeed, &env); });
  SolverService& service = *env.service;
  run.n = env.city->NumNodes();
  run.l = static_cast<int>(env.scenario.stations.size());
  run.k = env.k;
  {
    UpdateRequest arrivals;
    for (const NodeId bike : env.scenario.bikes) {
      arrivals.ops.push_back({UpdateKind::kCustomerArrive, bike, 0});
    }
    if (!service.ApplyUpdate(arrivals).ok()) {
      outcome->Problem("initial arrivals rejected");
      return run;
    }
  }
  run.bikes = service.tracked_customer_count();

  Rng rng(args.seed);
  // Every third epoch toggles two stations' capacities, and the next
  // capacity epoch undoes the toggle, so capacities stay within +-1 of
  // the scenario's.
  std::vector<UpdateOp> undo;
  const double start = NowSeconds();
  for (int e = 0;; ++e) {
    const bool done =
        fixed_epochs > 0
            ? e >= fixed_epochs
            : e > kMinWarmEpochs && NowSeconds() - start >= args.seconds;
    if (done) break;
    Epoch epoch;
    if (e > 0) {
      UpdateRequest delta;
      if (e > 1) {
        const McfsInstance tracked = service.TrackedInstance(run.k);
        std::vector<UpdateOp> capacity_ops;
        if (e % 3 == 0) {
          capacity_ops = undo.empty() ? DrawCapacityToggle(tracked, rng) : undo;
        }
        bool capacity_applied = false;
        delta = MakeDelta(tracked, env.arrival_cdf, capacity_ops, rng,
                          &epoch.delta_feasible, &capacity_applied);
        if (capacity_applied) {
          if (undo.empty()) {
            undo = capacity_ops;
            for (UpdateOp& op : undo) op.capacity_delta = -op.capacity_delta;
          } else {
            undo.clear();
          }
        }
      }
      // Epoch 0 (the cold plant) stays out of the traced counters.
      if (e == 1 && traced) SetObservability(true);
      MCFS_SPAN("bench/apply_update");
      const double t0 = NowSeconds();
      epoch.update_ok = service.ApplyUpdate(delta).ok();
      epoch.update_seconds = NowSeconds() - t0;
    }
    {
      MCFS_SPAN("bench/resolve_tracked");
      const double t0 = NowSeconds();
      epoch.response = service.ResolveTracked(run.k);
      epoch.resolve_seconds = NowSeconds() - t0;
    }
    epoch.instance = service.TrackedInstance(run.k);
    if (traced && e > 0) {
      // The benchmark's own validation and verification stay out of
      // the counters.
      obs::EnableMetrics(false);
      const double t1 = NowSeconds();
      {
        MCFS_SPAN("bench/validate_instance");
        ValidateInstance(epoch.instance);
      }
      epoch.validate_seconds = NowSeconds() - t1;
      const double t2 = NowSeconds();
      const VerifyReport report = [&] {
        MCFS_SPAN("bench/verify_solution");
        return VerifySolution(epoch.instance, epoch.response.solution);
      }();
      epoch.verify_seconds = NowSeconds() - t2;
      epoch.verify_dijkstra_runs = report.dijkstra_runs;
      epoch.verify_ok = report.ok;
      obs::EnableMetrics(true);
    }
    run.epochs.push_back(std::move(epoch));
  }
  run.counters = obs::SnapshotMetrics();
  obs::EnableMetrics(false);
  obs::EnableTracing(false);
  run.report = service.Report();
  // Cold references, outside every timing window.
  ParallelFor(
      0, static_cast<int64_t>(run.epochs.size()), 1,
      [&](int64_t i) {
        run.epochs[i].cold = SolveWma(run.epochs[i].instance, BaseWmaOptions(1));
      },
      kPoolThreads);
  return run;
}

// Warm objectives equal the cold reference at rel 1e-9; the empty-delta
// epoch reproduces it byte for byte.
void CheckEpochs(const ChurnRun& run, Outcome* outcome) {
  for (size_t e = 0; e < run.epochs.size(); ++e) {
    const Epoch& epoch = run.epochs[e];
    const SolveResponse& warm = epoch.response;
    const std::string at = "epoch " + std::to_string(e) + ": ";
    bool ok = epoch.delta_feasible && epoch.update_ok && warm.status.ok() &&
              epoch.cold && epoch.cold->ok() && epoch.verify_ok &&
              warm.solution.termination == Termination::kConverged;
    std::string why = ok ? "" : "update, resolve or reference failed";
    if (ok && e > 0 && (!warm.warm_served || !warm.verify_ran ||
                        !warm.verify_ok)) {
      ok = false;
      why = "warm answer rejected by the verifier";
    }
    if (ok) {
      const McfsSolution& cold = epoch.cold->value().solution;
      const double gap = std::abs(warm.solution.objective - cold.objective) /
                         (1.0 + std::abs(cold.objective));
      if (gap > 1e-9 || (e == 1 && !SameSolution(warm.solution, cold))) {
        ok = false;
        why = "answer differs from the cold reference";
      }
    }
    outcome->Check(ok, at + why);
  }
}

}  // namespace

WorkloadResult RunServeChurn(const Args& args) {
  WorkloadResult result;
  Outcome& outcome = result.outcome;
  const auto describe = [&](const ChurnRun& run) {
    std::ostringstream env;
    env << "scale=" << (args.smoke ? kSmokeScale : kScale) << " n=" << run.n
        << " stations=" << run.l << " k=" << run.k << " bikes=" << run.bikes
        << " churn_rate=" << kChurnRate << " epochs=" << run.epochs.size();
    return env.str();
  };
  // Warm epochs only (epoch 0 plants the seed cold).
  const auto warm_walls = [](const ChurnRun& run) {
    std::vector<double> walls;
    for (size_t e = 1; e < run.epochs.size(); ++e) {
      walls.push_back(run.epochs[e].resolve_seconds);
    }
    return walls;
  };

  if (!args.trace) {
    const ChurnRun run = RunEpochs(args, false, 0, &outcome);
    CheckEpochs(run, &outcome);
    result.environment = describe(run);
    const std::vector<double> walls = warm_walls(run);
    double client = 0.0;
    for (size_t e = 1; e < run.epochs.size(); ++e) {
      client += run.epochs[e].update_seconds + run.epochs[e].resolve_seconds;
    }
    // Only the p90 is gated: the median and p10 move with the share of
    // the host's fast phases in a run (see cities_cold.cc).
    const double p10 = Quantile(walls, 0.1) * 1e3;
    const double p50 = Quantile(walls, 0.5) * 1e3;
    const double p90 = Quantile(walls, 0.9) * 1e3;
    result.end_to_end = {{"setup_s", run.setup_s, "s"},
                         {"op_tail_ms", p90, "ms"},
                         {"peak_rss_mb", PeakRssMb(), "MB"}};
    result.named = {{"setup_s", run.setup_s, "s"},
                    {"resolve_p10_ms", p10, "ms"},
                    {"resolve_p50_ms", p50, "ms"},
                    {"resolve_p90_ms", p90, "ms"},
                    {"resolve_samples", static_cast<double>(walls.size()),
                     "count"},
                    {"throughput_epochs",
                     static_cast<double>(walls.size()) / client, "1/s"}};
    return result;
  }

  // Per-layer: the same epochs untraced, then traced.
  Args half = args;
  half.seconds = args.seconds / 2;
  const ChurnRun plain = RunEpochs(half, false, 0, &outcome);
  CheckEpochs(plain, &outcome);
  const ChurnRun traced = RunEpochs(
      args, true, static_cast<int>(plain.epochs.size()), &outcome);
  CheckEpochs(traced, &outcome);
  ReportSpans(args, "serve_churn");
  result.environment = describe(traced);

  WmaTotals wma;
  std::vector<double> preprocess, solve, other;
  double update = 0.0, validate = 0.0, verify = 0.0, verify_runs = 0.0;
  double resolve = 0.0, plain_resolve = 0.0;
  int64_t warm_served = 0, reused = 0, repaired = 0;
  for (size_t e = 1; e < traced.epochs.size(); ++e) {
    const Epoch& epoch = traced.epochs[e];
    const SolveResponse& r = epoch.response;
    wma.Add(r.stats);
    preprocess.push_back(r.preprocess_seconds);
    solve.push_back(r.solve_seconds);
    other.push_back(epoch.resolve_seconds - r.preprocess_seconds -
                    r.solve_seconds);
    update += epoch.update_seconds;
    validate += epoch.validate_seconds;
    verify += epoch.verify_seconds;
    verify_runs += epoch.verify_dijkstra_runs;
    resolve += epoch.resolve_seconds;
    plain_resolve += plain.epochs[e].resolve_seconds;
    warm_served += r.warm_served ? 1 : 0;
    reused += r.stats.warm_customers_reused;
    repaired += r.stats.warm_customers_repaired;
  }
  const double units = static_cast<double>(traced.epochs.size() - 1);
  double preprocess_sum = 0.0, solve_sum = 0.0, other_sum = 0.0;
  for (size_t i = 0; i < other.size(); ++i) {
    preprocess_sum += preprocess[i];
    solve_sum += solve[i];
    other_sum += other[i];
  }
  if (!CheckPhases("serve_churn warm resolves", resolve,
                   {{"serve.preprocess_s", preprocess_sum, "s"},
                    {"serve.solve_s", solve_sum, "s"}},
                   "serve.resolve_other_s")) {
    outcome.Problem("phase accounting");
  }
  const obs::MetricsSnapshot& c = traced.counters;
  std::vector<Metric>& rows = result.per_layer;
  AddSolverLayerRows(c, wma, units, &rows);
  rows.insert(
      rows.end(),
      {{"core.validate_s", validate / units, "s"},
       {"verify.s", verify / units, "s"},
       {"verify.dijkstra_runs", verify_runs / units, "count"},
       {"serve.preprocess_s_p50", Quantile(preprocess, 0.5), "s"},
       {"serve.preprocess_s_p99", Quantile(preprocess, 0.99), "s"},
       {"serve.solve_s_p50", Quantile(solve, 0.5), "s"},
       {"serve.solve_s_p99", Quantile(solve, 0.99), "s"},
       {"serve.other_s_p50", Quantile(other, 0.5), "s"},
       {"serve.other_s_p99", Quantile(other, 0.99), "s"},
       {"serve.update_s", update / units, "s"},
       {"serve.resolve_wma_s", wma.total / units, "s"},
       {"serve.resolve_other_s", other_sum / units, "s"},
       {"serve.warm_served_ratio", warm_served / units, "ratio"},
       {"serve.warm_reuse_ratio",
        Ratio(static_cast<double>(reused),
              static_cast<double>(reused + repaired)),
        "ratio"},
       {"serve.epoch_rebuilds",
        CounterValue(c, "serve/epoch_rebuilds") / units, "count"},
       {"serve.warm_build_s",
        Ratio(traced.report.warm_build_seconds,
              static_cast<double>(traced.report.epochs_built)),
        "s"},
       {"obs.trace_overhead", resolve / plain_resolve - 1.0, "ratio"}});
  return result;
}

}  // namespace mcfs::perf
