// Serving bench: a closed-loop load generator against the long-lived
// SolverService. Pre-generates a mix of solve requests on one city
// network, then measures:
//   * direct — every request as its own SolveWma call (cold path: each
//     one re-pays instance validation's component scan);
//   * service — the same requests through SolverService (`--clients`
//     closed-loop threads, bounded queue, batching), reporting
//     requests/sec and p50/p99 latency from the service report.
// Every service response is cross-checked bit-identical to its direct
// reference; the structured service report lands in
// --service-report-out for the CI schema check.
//
// Knobs: --requests, --repeat (duplicates the mix to exercise the
// epoch cache), --clients, --serve-threads, --queue-depth, --max-batch,
// --deadline-ms, --verify, plus the standard --scale / --seed.
//
// Observability (DESIGN.md §4.11): --introspect-every-ms N samples
// SolverService::DebugSnapshot() every N ms during the load phase and
// writes one JSON line per sample to --introspect-out (always at least
// one line — a final snapshot lands after the load drains). --slo-ms /
// --slo-error-budget configure a "default" latency SLO tier whose burn
// shows up in the service report. --postmortem-out PATH runs a
// deterministic failure probe after the load: a tiny service whose
// solves expire on a seeded Deadline::AfterPolls budget, so a tracked
// resolve deadline-terminates and auto-dumps a flight-recorder
// postmortem to PATH (the JSON CI validates).
//
// Fault tolerance (DESIGN.md §4.13): --fault-plan "seed=42,
// deadline_cut=0.1,..." installs a seeded deterministic fault schedule
// in the service; --allow-degraded (default on when a plan is set) opts
// requests into degraded-mode answers. Clients retry kUnavailable
// rejections with jittered exponential backoff (--backoff-base-ms /
// --backoff-max-ms / --max-retries), floored at the server's
// retry_after_ms hint, and the outcome table classifies every request
// as converged / degraded / deadline-cut / shed / failed.
// --checkpoint-path PATH saves a warm-state checkpoint after the load
// and restores it into a fresh service (the simulated restart), gating
// on epoch continuity. --restore-from PATH adopts a checkpoint written
// by an earlier process before taking load — the recovery half of the
// save -> kill -> restore drill CI runs under ASan.
//
// Tiered serving (DESIGN.md §4.14): --fast-latency-ms N puts every
// other request under an N ms SLA (answered by the instant responder as
// tier "fast", refined in the background). The run gains per-tier p50 /
// p99 table rows and a "fast" SLO row, and gates on the tier contract:
// fast p99 at least 10x under the converged tier's p99, zero verifier
// rejections on fast answers, and — after DrainRefinements — every
// refine-opted identity's cache entry upgraded in place (same key, same
// epoch, the planting trace id).
//
// Churn mode (--churn): replays hourly bike_sim deltas against one
// long-lived service — per epoch, ~--churn-rate of the tracked bikes
// depart/arrive, a few station capacities shift, and occasionally a
// station closes while another opens. Each epoch is re-solved twice:
// warm (ResolveTracked repairing the previous epoch's matching) and
// cold (direct SolveWma on the same instance), gated on exactly equal
// objectives, with the warm-vs-cold speedup and repair-fraction curves
// written to --resolve-report-out (default BENCH_resolve.json). One
// designated epoch applies an empty delta to pin the best case.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "mcfs/common/fault_plan.h"
#include "mcfs/common/timer.h"
#include "mcfs/graph/road_network.h"
#include "mcfs/serve/checkpoint.h"
#include "mcfs/serve/solver_service.h"
#include "mcfs/workload/bike_sim.h"
#include "mcfs/workload/workload.h"

namespace mcfs {
namespace {

struct ChurnEpoch {
  int epoch = 0;
  bool empty_delta = false;
  int ops = 0;
  int components_dirtied = 0;
  int customers = 0;
  double warm_seconds = 0.0;
  double cold_seconds = 0.0;
  double speedup = 0.0;
  double objective = 0.0;
  double repair_fraction = 0.0;  // repaired / (reused + repaired)
  int64_t warm_customers_reused = 0;
  int64_t warm_customers_repaired = 0;
  bool warm_final_resumed = false;
  // The solve actually ran the warm repair path. False on epoch 0 (no
  // seed yet) and on any epoch whose warm attempt fell back cold
  // (verifier rejection): those rows must not enter the warm-speedup
  // statistics, whatever the epoch number says.
  bool warm_served = false;
  bool objective_match = false;
  bool verify_ok = false;
};

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

int RunChurnBench(const Flags& flags, const bench_util::BenchConfig& bench) {
  const Graph city = GenerateCity(AalborgPreset(bench.scale, bench.seed));

  BikeSimOptions sim;
  sim.seed = bench.seed;
  sim.num_stations = std::max(
      24, std::min(city.NumNodes() / 6,
                   static_cast<int>(600 * std::max(bench.scale, 0.05))));
  sim.num_bikes = std::max(
      60, static_cast<int>(flags.GetInt(
              "bikes", static_cast<int64_t>(500 * std::max(bench.scale,
                                                           0.15)))));
  const BikeScenario scenario = GenerateBikeScenario(city, sim);
  const int l = static_cast<int>(scenario.stations.size());
  // Smallest budget (plus slack for capacity-decrease deltas) that keeps
  // the docking instance feasible for the whole replay.
  int k = std::max(2, l / 3);
  for (; k < l; ++k) {
    McfsInstance probe;
    probe.graph = &city;
    probe.customers = scenario.bikes;
    probe.facility_nodes = scenario.stations;
    probe.capacities = scenario.capacities;
    probe.k = k;
    if (IsFeasible(probe)) break;
  }
  k = std::min(l, k + 2);

  const int epochs = static_cast<int>(flags.GetInt("epochs", 12));
  const double churn_rate = flags.GetDouble("churn-rate", 0.05);
  // Epoch 0 is the cold warm-up (no seed exists yet); epoch 1 applies
  // the designated empty delta so the report pins the best case.
  const int empty_delta_epoch = epochs >= 2 ? 1 : -1;

  ServiceOptions options;
  options.serve_threads =
      static_cast<int>(flags.GetInt("serve-threads", bench.threads));
  options.wma.threads = bench.threads;
  options.wma.metrics = bench.metrics;
  SolverService service(&city, scenario.stations, scenario.capacities,
                        options);

  // Initial bike population, one arrival op per bike.
  {
    UpdateRequest arrivals;
    for (const NodeId bike : scenario.bikes) {
      arrivals.ops.push_back({UpdateKind::kCustomerArrive, bike, 0});
    }
    const StatusOr<UpdateResult> applied = service.ApplyUpdate(arrivals);
    if (!applied.ok()) {
      std::printf("initial arrivals rejected: %s\n",
                  applied.status().ToString().c_str());
      return 1;
    }
  }
  std::printf("bike churn: n=%d, %d stations, k=%d, %zu bikes, %d epochs, "
              "%.1f%% churn/epoch\n",
              city.NumNodes(), l, k, service.tracked_customer_count(), epochs,
              100.0 * churn_rate);

  Rng rng(bench.seed + 7);
  WmaOptions cold_options = options.wma;
  std::vector<ChurnEpoch> rows;
  int failures = 0;

  for (int e = 0; e < epochs; ++e) {
    ChurnEpoch row;
    row.epoch = e;
    row.empty_delta = e == empty_delta_epoch;
    if (e > 0) {
      UpdateRequest delta;
      if (!row.empty_delta) {
        // ~churn_rate of the fleet moves: departures from tracked
        // nodes, arrivals resampled from the docking-demand profile.
        const McfsInstance snapshot = service.TrackedInstance(k);
        const int moves = std::max(
            1, static_cast<int>(churn_rate *
                                static_cast<double>(snapshot.m())));
        for (int t = 0; t < moves; ++t) {
          const NodeId gone = snapshot.customers[static_cast<size_t>(
              rng.UniformInt(0, snapshot.m() - 1))];
          delta.ops.push_back({UpdateKind::kCustomerDepart, gone, 0});
        }
        const std::vector<NodeId> fresh =
            SampleNodesWithReplacement(city, moves, rng);
        for (const NodeId node : fresh) {
          delta.ops.push_back({UpdateKind::kCustomerArrive, node, 0});
        }
        // Dock reconfigurations are rarer than bike churn: every third
        // epoch one station gains a dock and one loses a dock — the
        // capacity-delta classification path (the increase dirties the
        // component's matches; the decrease repairs in place).
        if (e % 3 == 0) {
          const int up = static_cast<int>(
              rng.UniformInt(0, static_cast<int64_t>(l) - 1));
          delta.ops.push_back(
              {UpdateKind::kCapacityDelta, snapshot.facility_nodes[up], 1});
          for (int probe = 0; probe < l; ++probe) {
            const int down = static_cast<int>(
                rng.UniformInt(0, static_cast<int64_t>(l) - 1));
            if (down != up && snapshot.capacities[down] > 1) {
              delta.ops.push_back({UpdateKind::kCapacityDelta,
                                   snapshot.facility_nodes[down], -1});
              break;
            }
          }
        }
      }
      const StatusOr<UpdateResult> applied = service.ApplyUpdate(delta);
      if (!applied.ok()) {
        std::printf("epoch %d delta rejected: %s\n", e,
                    applied.status().ToString().c_str());
        return 1;
      }
      row.ops = applied.value().ops_applied;
      row.components_dirtied = applied.value().components_dirtied;
    }

    // Warm path: repairs the previous epoch's matching (epoch 0 is the
    // cold warm-up that plants the first seed).
    const SolveResponse warm = service.ResolveTracked(k);
    if (!warm.status.ok()) {
      std::printf("epoch %d resolve failed: %s\n", e,
                  warm.status.ToString().c_str());
      return 1;
    }
    row.warm_seconds = warm.solve_seconds;
    row.customers = static_cast<int>(warm.solution.assignment.size());
    row.objective = warm.solution.objective;
    row.warm_customers_reused = warm.stats.warm_customers_reused;
    row.warm_customers_repaired = warm.stats.warm_customers_repaired;
    row.warm_final_resumed = warm.stats.warm_final_resumed;
    row.warm_served = warm.warm_served;
    row.verify_ok = !warm.verify_ran || warm.verify_ok;
    const int64_t touched =
        row.warm_customers_reused + row.warm_customers_repaired;
    row.repair_fraction =
        touched == 0 ? 1.0
                     : static_cast<double>(row.warm_customers_repaired) /
                           static_cast<double>(touched);

    // Cold baseline: a direct solve of the same instance, no seed.
    const McfsInstance instance = service.TrackedInstance(k);
    WallTimer cold_timer;
    const StatusOr<WmaResult> cold = SolveWma(instance, cold_options);
    row.cold_seconds = cold_timer.Seconds();
    if (!cold.ok()) {
      std::printf("epoch %d cold solve failed: %s\n", e,
                  cold.status().ToString().c_str());
      return 1;
    }
    const McfsSolution& cold_solution = cold.value().solution;
    // Churn epochs gate on the objective up to summation rounding:
    // degenerate optima (co-located bikes swapped between equidistant
    // stations) are equal-cost but can round the last bit differently.
    // The empty-delta epoch must reproduce the cold solution byte for
    // byte — selection, assignment, distances, and objective bits.
    const double rel_gap =
        std::abs(warm.solution.objective - cold_solution.objective) /
        (1.0 + std::abs(cold_solution.objective));
    row.objective_match =
        row.empty_delta
            ? (warm.solution.objective == cold_solution.objective &&
               warm.solution.selected == cold_solution.selected &&
               warm.solution.assignment == cold_solution.assignment &&
               warm.solution.distances == cold_solution.distances)
            : rel_gap <= 1e-9;
    row.speedup = row.warm_seconds > 0.0
                      ? row.cold_seconds / row.warm_seconds
                      : 0.0;
    if (!row.objective_match || !row.verify_ok) ++failures;
    std::printf(
        "epoch %2d%s: m=%d ops=%d warm=%s cold=%s speedup=%.2fx "
        "reused=%lld repaired=%lld %s%s\n",
        e, row.empty_delta ? " (empty delta)" : "", row.customers, row.ops,
        FmtSeconds(row.warm_seconds).c_str(),
        FmtSeconds(row.cold_seconds).c_str(), row.speedup,
        static_cast<long long>(row.warm_customers_reused),
        static_cast<long long>(row.warm_customers_repaired),
        row.objective_match ? "objective=match" : "OBJECTIVE MISMATCH",
        row.verify_ok ? "" : " VERIFY FAIL");
    if (row.epoch > 0 && !row.warm_served) {
      std::printf("epoch %2d: warm attempt fell back cold (excluded from "
                  "warm-speedup stats)\n",
                  e);
    }
    rows.push_back(row);
  }

  // Summary over the epochs that genuinely ran the warm repair path:
  // classification follows SolveResponse::warm_served — the path the
  // solve actually took — so epoch 0 (seed plant) and epochs whose warm
  // attempt fell back cold never inflate the warm statistics.
  std::vector<double> churn_speedups;
  double empty_delta_speedup = 0.0;
  double repair_fraction_sum = 0.0;
  int churn_epochs = 0;
  int cold_fallback_epochs = 0;
  for (const ChurnEpoch& row : rows) {
    if (!row.warm_served) {
      if (row.epoch > 0) ++cold_fallback_epochs;
      continue;
    }
    if (row.empty_delta) {
      empty_delta_speedup = row.speedup;
    } else {
      churn_speedups.push_back(row.speedup);
      repair_fraction_sum += row.repair_fraction;
      ++churn_epochs;
    }
  }
  const double median_speedup = Median(churn_speedups);
  const ServiceReport report = service.Report();
  std::printf(
      "median warm speedup %.2fx over %d warm-served churn epochs "
      "(%d cold fallbacks excluded, empty delta %.2fx, mean repair "
      "fraction %.3f); service: %lld warm / %lld cold resolves, %lld "
      "verify rejections\n",
      median_speedup, churn_epochs, cold_fallback_epochs,
      empty_delta_speedup,
      churn_epochs == 0 ? 0.0 : repair_fraction_sum / churn_epochs,
      static_cast<long long>(report.resolves_warm),
      static_cast<long long>(report.resolves_cold),
      static_cast<long long>(report.resolve_verify_rejections));

  const std::string out = flags.GetString(
      "resolve-report-out",
      flags.GetString("resolve_report_out", "BENCH_resolve.json"));
  if (!out.empty()) {
    std::ostringstream json;
    json << "{\"config\": {\"scale\": " << obs::JsonNumber(bench.scale)
         << ", \"seed\": " << bench.seed << ", \"nodes\": " << city.NumNodes()
         << ", \"stations\": " << l << ", \"k\": " << k
         << ", \"epochs\": " << epochs
         << ", \"churn_rate\": " << obs::JsonNumber(churn_rate)
         << ", \"threads\": " << bench.threads << "}, \"epochs\": [";
    for (size_t i = 0; i < rows.size(); ++i) {
      const ChurnEpoch& row = rows[i];
      if (i > 0) json << ", ";
      json << "{\"epoch\": " << row.epoch
           << ", \"empty_delta\": " << (row.empty_delta ? "true" : "false")
           << ", \"ops\": " << row.ops
           << ", \"components_dirtied\": " << row.components_dirtied
           << ", \"customers\": " << row.customers
           << ", \"warm_seconds\": " << obs::JsonNumber(row.warm_seconds)
           << ", \"cold_seconds\": " << obs::JsonNumber(row.cold_seconds)
           << ", \"speedup\": " << obs::JsonNumber(row.speedup)
           << ", \"objective\": " << obs::JsonNumber(row.objective)
           << ", \"repair_fraction\": "
           << obs::JsonNumber(row.repair_fraction)
           << ", \"warm_customers_reused\": " << row.warm_customers_reused
           << ", \"warm_customers_repaired\": " << row.warm_customers_repaired
           << ", \"warm_final_resumed\": "
           << (row.warm_final_resumed ? "true" : "false")
           << ", \"warm_served\": " << (row.warm_served ? "true" : "false")
           << ", \"objective_match\": "
           << (row.objective_match ? "true" : "false")
           << ", \"verify_ok\": " << (row.verify_ok ? "true" : "false")
           << "}";
    }
    json << "], \"summary\": {\"median_warm_speedup\": "
         << obs::JsonNumber(median_speedup)
         << ", \"empty_delta_speedup\": "
         << obs::JsonNumber(empty_delta_speedup)
         << ", \"mean_repair_fraction\": "
         << obs::JsonNumber(churn_epochs == 0
                                ? 0.0
                                : repair_fraction_sum / churn_epochs)
         << ", \"churn_epochs\": " << churn_epochs
         << ", \"cold_fallback_epochs\": " << cold_fallback_epochs
         << ", \"objective_mismatches\": " << failures
         << ", \"resolves_warm\": " << report.resolves_warm
         << ", \"resolves_cold\": " << report.resolves_cold
         << ", \"verify_rejections\": " << report.resolve_verify_rejections
         << "}, \"service\": " << report.Json() << "}";
    std::ofstream file(out);
    if (file.is_open()) {
      file << json.str() << "\n";
      if (file.good()) {
        std::printf("(resolve report written to %s)\n", out.c_str());
      }
    }
  }
  bench_util::FlushArtifacts(flags);
  return failures == 0 ? 0 : 1;
}

}  // namespace
}  // namespace mcfs

int main(int argc, char** argv) {
  using namespace mcfs;
  const Flags flags(argc, argv);
  const auto bench = bench_util::BenchConfig::FromFlags(flags, 0.04);
  if (flags.GetBool("churn", false)) {
    bench_util::Banner("Serving: warm incremental re-solve under churn",
                       bench);
    return RunChurnBench(flags, bench);
  }
  bench_util::Banner("Serving: SolverService closed-loop load", bench);

  const Graph city = GenerateCity(AalborgPreset(bench.scale, bench.seed));
  Rng rng(bench.seed + 1);
  const int l = std::min(city.NumNodes() / 8, 300);
  const std::vector<NodeId> facilities = SampleDistinctNodes(city, l, rng);
  const std::vector<int> capacities = UniformCapacities(l, 10);
  const int k = l / 4;

  // The tiered gates compare tails under load: the full tier's p99 must
  // be queue-dominated for the 10x contract to be meaningful, so a fast-
  // tier run defaults to a heavier closed loop (more identities, more
  // concurrent clients).
  const int64_t fast_latency_ms = flags.GetInt("fast-latency-ms", 0);
  // The 10x tail contract is a calibrated-hardware claim; CI smoke runs
  // on shared runners at a small scale where the full tier is not
  // queue-dominated, so the ratio is a knob (<= 0 disables Gate 1, the
  // accounting and upgrade gates still apply).
  const double tier_gate_ratio =
      flags.GetDouble("tier-gate-ratio", 10.0);
  const int unique_requests = static_cast<int>(
      flags.GetInt("requests", fast_latency_ms > 0 ? 48 : 24));
  const int repeat = static_cast<int>(flags.GetInt("repeat", 2));
  const int clients = static_cast<int>(
      flags.GetInt("clients", fast_latency_ms > 0 ? 8 : 4));

  ServiceOptions options;
  options.serve_threads =
      static_cast<int>(flags.GetInt("serve-threads", bench.threads));
  options.queue_depth = static_cast<int>(flags.GetInt("queue-depth", 64));
  options.max_batch = static_cast<int>(flags.GetInt("max-batch", 8));
  options.default_deadline_ms = bench.deadline_ms;
  options.verify = bench.verify;
  // The service CHECKs its SLO rows; a bad flag is a usage error here.
  const double slo_error_budget = flags.GetDouble("slo-error-budget", 0.01);
  if (!(slo_error_budget > 0.0 && slo_error_budget <= 1.0)) {
    std::printf("bad --slo-error-budget=%g: must be in (0, 1]\n",
                slo_error_budget);
    return 1;
  }
  const double slo_ms = flags.GetDouble("slo-ms", 0.0);
  if (slo_ms > 0.0) {
    SloPolicy slo;
    slo.tier = "default";
    slo.target_latency_ms = slo_ms;
    slo.error_budget = slo_error_budget;
    options.slos.push_back(std::move(slo));
  }
  // Tiered serving (DESIGN.md §4.14): --fast-latency-ms N puts every
  // other request in the mix under an N ms end-to-end SLA (tier "fast",
  // refine on), with its own SLO row, and gates the run on the fast
  // tier's contract: p99 at least 10x under the converged tier's, zero
  // verifier rejections on fast answers, and every refined identity's
  // cache entry upgraded in place.
  if (fast_latency_ms > 0) {
    SloPolicy slo;
    slo.tier = "fast";
    slo.target_latency_ms = static_cast<double>(fast_latency_ms);
    slo.error_budget = slo_error_budget;
    options.slos.push_back(std::move(slo));
  }
  // With a fast tier in play, batch and refinement threads yield the
  // CPU to the inline responder (--background-nice=0 to disable).
  options.background_nice = static_cast<int>(
      flags.GetInt("background-nice", fast_latency_ms > 0 ? 10 : 0));

  // Fault-tolerant serving (DESIGN.md §4.13): a seeded fault schedule
  // plus the client-side retry policy for the sheds it produces.
  const std::string fault_plan_spec = flags.GetString("fault-plan", "");
  std::shared_ptr<FaultPlan> fault_plan;
  if (!fault_plan_spec.empty()) {
    const StatusOr<FaultPlanSpec> parsed = FaultPlan::Parse(fault_plan_spec);
    if (!parsed.ok()) {
      std::printf("bad --fault-plan: %s\n",
                  parsed.status().ToString().c_str());
      return 1;
    }
    fault_plan = std::make_shared<FaultPlan>(parsed.value());
    options.fault_plan = fault_plan;
  }
  const bool allow_degraded =
      flags.GetBool("allow-degraded", fault_plan != nullptr);
  const int64_t backoff_base_ms = flags.GetInt("backoff-base-ms", 2);
  const int64_t backoff_max_ms = flags.GetInt("backoff-max-ms", 250);
  const int max_retries = static_cast<int>(flags.GetInt("max-retries", 6));

  // The request mix: varying customer counts around an occupancy the
  // instances stay feasible at, repeated `repeat` times so the service
  // path also shows cache amortization.
  std::vector<SolveRequest> mix;
  for (int r = 0; r < unique_requests; ++r) {
    const int m = 40 + 20 * (r % 5);
    SolveRequest request;
    request.customers = SampleNodesWithReplacement(city, m, rng);
    request.k = k;
    request.allow_degraded = allow_degraded;
    if (fast_latency_ms > 0 && r % 2 == 1) {
      request.max_latency_ms = fast_latency_ms;
      request.tier = "fast";
      request.refine = true;
    }
    mix.push_back(std::move(request));
  }
  std::vector<SolveRequest> requests;
  for (int rep = 0; rep < std::max(1, repeat); ++rep) {
    requests.insert(requests.end(), mix.begin(), mix.end());
  }
  const int n = static_cast<int>(requests.size());
  std::printf("city n=%d, l=%d candidates, k=%d; %d requests "
              "(%d unique x %d), %d clients\n",
              city.NumNodes(), l, k, n, unique_requests, repeat, clients);

  // --- direct (cold) reference ---
  std::vector<McfsSolution> reference(n);
  WallTimer timer;
  for (int r = 0; r < n; ++r) {
    McfsInstance instance;
    instance.graph = &city;
    instance.customers = requests[r].customers;
    instance.facility_nodes = facilities;
    instance.capacities = capacities;
    instance.k = requests[r].k;
    StatusOr<WmaResult> direct = SolveWma(instance);
    if (!direct.ok()) {
      std::printf("direct solve %d failed: %s\n", r,
                  direct.status().ToString().c_str());
      return 1;
    }
    reference[r] = std::move(direct).value().solution;
  }
  const double direct_seconds = timer.Seconds();

  // --- service (warm) path: closed-loop clients over a shared index ---
  SolverService service(&city, facilities, capacities, options);

  // --restore-from adopts a checkpoint written by an earlier process
  // before taking load. A rejected file would mean serving cold, which
  // is exactly what the recovery drill must not silently accept.
  const std::string restore_from = flags.GetString("restore-from", "");
  if (!restore_from.empty()) {
    const Status adopted = service.RestoreFrom(restore_from);
    if (!adopted.ok()) {
      std::printf("restore from %s failed: %s\n", restore_from.c_str(),
                  adopted.ToString().c_str());
      return 1;
    }
    std::printf("(restored warm state from %s; resuming at epoch %llu)\n",
                restore_from.c_str(),
                static_cast<unsigned long long>(service.epoch()));
  }

  // Live introspection sampler: one DebugSnapshot JSON line per tick
  // while the load runs, plus a final one after the queue drains (so the
  // file is non-empty even when the load finishes inside one tick).
  const int introspect_every_ms =
      static_cast<int>(flags.GetInt("introspect-every-ms", 0));
  const std::string introspect_out =
      flags.GetString("introspect-out", "introspect.jsonl");
  std::atomic<bool> introspect_stop{false};
  std::thread introspector;
  if (introspect_every_ms > 0 && !introspect_out.empty()) {
    introspector = std::thread([&] {
      std::ofstream file(introspect_out);
      while (!introspect_stop.load(std::memory_order_relaxed)) {
        file << service.DebugSnapshot().Json() << "\n";
        file.flush();
        std::this_thread::sleep_for(
            std::chrono::milliseconds(introspect_every_ms));
      }
      file << service.DebugSnapshot().Json() << "\n";
    });
  }

  std::vector<SolveResponse> responses(n);
  std::atomic<int> next{0};
  std::atomic<int64_t> retries_total{0};
  timer.Restart();
  std::vector<std::thread> workers;
  for (int c = 0; c < std::max(1, clients); ++c) {
    workers.emplace_back([&, c] {
      // Per-client jitter stream: deterministic, but de-synchronized
      // across clients so retries never stampede in lockstep.
      Rng jitter(bench.seed + 100 + static_cast<uint64_t>(c));
      for (int r = next.fetch_add(1); r < n; r = next.fetch_add(1)) {
        for (int attempt = 0;; ++attempt) {
          auto handle = service.Submit(requests[r]);
          // Bounded waits, never a blind Wait(): a wedged dispatcher
          // shows up as repeated timeouts instead of a silent hang.
          while (!handle->WaitFor(10'000)) {
          }
          responses[r] = handle->Wait();
          const SolveResponse& response = responses[r];
          if (response.status.code() != StatusCode::kUnavailable ||
              attempt >= max_retries) {
            break;
          }
          // Shutdown is the one rejection a retry can never outwait.
          // Futility keys on the flag, not on retry_after_ms == 0 — a
          // live service legitimately hints 0 too (idle queue, ladder
          // bottomed out), and those rejections are worth retrying.
          if (response.shutdown) break;
          retries_total.fetch_add(1);
          // Jittered exponential backoff floored at the server's hint:
          // sleep uniform in [ceiling/2, ceiling].
          int64_t ceiling = backoff_base_ms << std::min(attempt, 16);
          ceiling = std::min(ceiling, backoff_max_ms);
          ceiling = std::max(ceiling, response.retry_after_ms);
          const int64_t delay =
              ceiling <= 1 ? ceiling
                           : jitter.UniformInt((ceiling + 1) / 2, ceiling);
          std::this_thread::sleep_for(std::chrono::milliseconds(delay));
        }
      }
    });
  }
  for (std::thread& worker : workers) worker.join();
  const double service_seconds = timer.Seconds();
  // Every fast answer's background refinement completes before the
  // report is read, so the upgrade-in-place gate below observes the
  // cache deterministically. (Refinement time is deliberately outside
  // the measured load window — it is background work.)
  service.DrainRefinements();
  if (introspector.joinable()) {
    introspect_stop.store(true, std::memory_order_relaxed);
    introspector.join();
    std::printf("(introspection snapshots written to %s)\n",
                introspect_out.c_str());
  }

  // Outcome classes: converged answers are cross-checked bit-identical
  // to the direct reference; degraded answers carry their own contract
  // (always verified, quality-bounded) instead; deadline-cut full-tier
  // answers and kUnavailable sheds have no bit reference and are
  // surfaced as their own classes rather than folded into mismatches.
  int64_t converged = 0, degraded = 0, fast = 0, anytime_cut = 0, shed = 0,
          failed = 0;
  int mismatches = 0;
  // Per unique identity: the trace ids of its refine-opted answers that
  // were actually computed (not cache hits), for the upgrade-in-place
  // gate. The planted entry keeps its planting trace through the
  // upgrade, but a queued full solve racing the fast plant can
  // legitimately create the entry first — under its own trace — so the
  // gate accepts any trace this identity was served under.
  std::vector<std::vector<uint64_t>> served_traces(mix.size());
  for (int r = 0; r < n; ++r) {
    const SolveResponse& response = responses[r];
    if (response.status.ok() && !response.cache_hit &&
        requests[r].refine) {
      served_traces[static_cast<size_t>(r) % mix.size()].push_back(
          response.trace_id);
    }
    if (!response.status.ok()) {
      if (response.status.code() == StatusCode::kUnavailable) {
        ++shed;  // client gave up after the retry budget
      } else {
        ++failed;
        std::printf("FAILED request %d: %s\n", r,
                    response.status.ToString().c_str());
      }
      continue;
    }
    if (response.tier == "degraded") {
      ++degraded;
      // kDegenerateQualityBound is "served, bound degenerate" (lower
      // bound 0 with co-located customers), not a quality failure.
      if (!response.verify_ran || !response.verify_ok ||
          (response.quality_bound < 1.0 &&
           response.quality_bound != kDegenerateQualityBound)) {
        ++mismatches;
        std::printf(
            "MISMATCH on degraded request %d: unverified or unbounded\n", r);
      }
      continue;
    }
    if (response.tier == "fast") {
      ++fast;
      // The fast contract: always verifier-blessed, always bounded. No
      // bit reference — the instant responder is a different algorithm
      // by design; fidelity arrives via the background refinement.
      if (!response.verify_ran || !response.verify_ok ||
          (response.quality_bound < 1.0 &&
           response.quality_bound != kDegenerateQualityBound)) {
        ++mismatches;
        std::printf("MISMATCH on fast request %d: unverified or unbounded\n",
                    r);
      }
      continue;
    }
    if (response.solution.termination != Termination::kConverged) {
      ++anytime_cut;
      continue;
    }
    ++converged;
    if (response.solution.selected != reference[r].selected ||
        response.solution.assignment != reference[r].assignment ||
        response.solution.objective != reference[r].objective ||
        (response.verify_ran && !response.verify_ok)) {
      ++mismatches;
      std::printf("MISMATCH on request %d: %s\n", r,
                  response.status.ToString().c_str());
    }
  }

  const ServiceReport report = service.Report();
  Table table({"path", "requests", "total", "req/s", "p50", "p99"});
  table.AddRow({"direct (cold)", FmtInt(n), FmtSeconds(direct_seconds),
                FmtDouble(n / direct_seconds, 1), "-", "-"});
  table.AddRow({"service (warm)", FmtInt(n), FmtSeconds(service_seconds),
                FmtDouble(n / service_seconds, 1),
                FmtSeconds(report.latency.p50),
                FmtSeconds(report.latency.p99)});
  if (fast_latency_ms > 0) {
    table.AddRow({"tier fast", FmtInt(report.latency_fast.count), "-", "-",
                  FmtSeconds(report.latency_fast.p50),
                  FmtSeconds(report.latency_fast.p99)});
    table.AddRow({"tier full", FmtInt(report.latency_full.count), "-", "-",
                  FmtSeconds(report.latency_full.p50),
                  FmtSeconds(report.latency_full.p99)});
  }
  table.Print();
  std::printf(
      "warm state: %lld build(s) in %s; per-request preprocess %s vs "
      "cold %s; %lld cache hits, %lld batches (max %d)\n",
      static_cast<long long>(report.epochs_built),
      FmtSeconds(report.warm_build_seconds).c_str(),
      FmtSeconds(report.requests_completed == 0
                     ? 0.0
                     : report.preprocess_seconds_total /
                           report.requests_completed)
          .c_str(),
      FmtSeconds(report.epochs_built == 0
                     ? 0.0
                     : report.warm_build_seconds / report.epochs_built)
          .c_str(),
      static_cast<long long>(report.cache_hits),
      static_cast<long long>(report.batches), report.max_batch_size);

  std::printf(
      "outcomes: %lld converged, %lld fast, %lld degraded, %lld "
      "deadline-cut, %lld shed, %lld failed; %lld client retries\n",
      static_cast<long long>(converged), static_cast<long long>(fast),
      static_cast<long long>(degraded), static_cast<long long>(anytime_cut),
      static_cast<long long>(shed), static_cast<long long>(failed),
      static_cast<long long>(retries_total.load()));
  if (fast_latency_ms > 0) {
    std::printf(
        "tiered: %lld fast responses, %lld fallthroughs, %lld refinements "
        "(%lld upgrades, %lld discards)\n",
        static_cast<long long>(report.fast_responses),
        static_cast<long long>(report.fast_fallthroughs),
        static_cast<long long>(report.refine_runs),
        static_cast<long long>(report.refine_upgrades),
        static_cast<long long>(report.refine_discards));
    // Gate 1: the SLA tier is at least `tier_gate_ratio`x faster at
    // the tail than the converged tier on the same load.
    if (tier_gate_ratio > 0.0 && report.latency_fast.count > 0 &&
        report.latency_full.count > 0 &&
        report.latency_fast.p99 * tier_gate_ratio >
            report.latency_full.p99) {
      ++mismatches;
      std::printf("TIER GATE: fast p99 %s not %.3gx under full p99 %s\n",
                  FmtSeconds(report.latency_fast.p99).c_str(),
                  tier_gate_ratio,
                  FmtSeconds(report.latency_full.p99).c_str());
    }
    // Gate 2: every refine-opted identity that was actually computed
    // now holds a converged entry — same key, same epoch, and the trace
    // id of one of the answers served for it (the planting fast answer,
    // or the queued full solve that overtook it).
    for (size_t u = 0; u < mix.size(); ++u) {
      if (served_traces[u].empty()) continue;
      const CacheProbe probe = service.ProbeCache(mix[u]);
      const bool trace_matches =
          std::find(served_traces[u].begin(), served_traces[u].end(),
                    probe.trace_id) != served_traces[u].end();
      if (!probe.present || probe.tier != "full" ||
          probe.epoch != service.epoch() || !trace_matches) {
        ++mismatches;
        std::printf("UPGRADE GATE: identity %zu not upgraded in place "
                    "(present=%d tier=%s epoch=%llu trace=%llu)\n",
                    u, probe.present ? 1 : 0, probe.tier.c_str(),
                    static_cast<unsigned long long>(probe.epoch),
                    static_cast<unsigned long long>(probe.trace_id));
      }
    }
  }
  if (fault_plan != nullptr) {
    std::printf("service fault-tolerance: shed=%lld degraded=%lld "
                "fallbacks=%lld faults_injected=%lld\n",
                static_cast<long long>(report.requests_shed),
                static_cast<long long>(report.degraded_responses),
                static_cast<long long>(report.degraded_fallbacks),
                static_cast<long long>(report.faults_injected));
    std::printf("fault plan: %s\n", fault_plan->Json().c_str());
  }

  for (const SloReport& slo : report.slos) {
    std::printf(
        "slo %s: %lld/%lld over %.1fms target, budget burn %.2f\n",
        slo.tier.c_str(), static_cast<long long>(slo.violations),
        static_cast<long long>(slo.requests), slo.target_latency_ms,
        slo.burn);
  }

  const std::string service_report_out =
      flags.GetString("service-report-out",
                      flags.GetString("service_report_out",
                                      "service_report.json"));
  if (!service_report_out.empty() &&
      report.WriteJson(service_report_out)) {
    std::printf("(service report written to %s)\n",
                service_report_out.c_str());
  }

  // Warm-state checkpoint + restore probe (--checkpoint-path): save the
  // serving state, restore it into a fresh service — the simulated
  // restart — and gate on epoch continuity.
  const std::string checkpoint_path = flags.GetString("checkpoint-path", "");
  if (!checkpoint_path.empty()) {
    Status saved = service.CheckpointTo(checkpoint_path);
    if (!saved.ok()) {
      // Typed failures (including injected kCheckpointIo faults) are
      // retried once — the recovery path the fault plan exists to prove.
      std::printf("checkpoint attempt failed (%s); retrying\n",
                  saved.ToString().c_str());
      saved = service.CheckpointTo(checkpoint_path);
    }
    if (!saved.ok()) {
      std::printf("checkpoint failed: %s\n", saved.ToString().c_str());
      return 1;
    }
    SolverService restored(&city, facilities, capacities, options);
    const Status restore = restored.RestoreFrom(checkpoint_path);
    if (!restore.ok()) {
      std::printf("restore failed: %s\n", restore.ToString().c_str());
      return 1;
    }
    if (restored.epoch() != service.epoch()) {
      std::printf("restore epoch mismatch: %llu vs %llu\n",
                  static_cast<unsigned long long>(restored.epoch()),
                  static_cast<unsigned long long>(service.epoch()));
      return 1;
    }
    std::printf("(checkpoint saved to %s; restore probe resumed epoch "
                "%llu)\n",
                checkpoint_path.c_str(),
                static_cast<unsigned long long>(restored.epoch()));
  }

  // Deterministic postmortem probe (CI validates the dumped JSON): a
  // tiny service whose every solve expires on a seeded poll budget, so
  // the tracked resolve deadline-terminates and auto-dumps a
  // flight-recorder postmortem with the failing request's trace id.
  const std::string postmortem_out = flags.GetString("postmortem-out", "");
  if (!postmortem_out.empty()) {
    ServiceOptions probe = options;
    probe.flight_recorder = true;
    probe.postmortem_path = postmortem_out;
    probe.wma.deadline = Deadline::AfterPolls(2);
    SolverService probe_service(&city, facilities, capacities, probe);
    UpdateRequest arrivals;
    for (const NodeId customer : requests[0].customers) {
      arrivals.ops.push_back({UpdateKind::kCustomerArrive, customer, 0});
    }
    const StatusOr<UpdateResult> applied = probe_service.ApplyUpdate(arrivals);
    if (!applied.ok()) {
      std::printf("postmortem probe arrivals rejected: %s\n",
                  applied.status().ToString().c_str());
      return 1;
    }
    const SolveResponse probed = probe_service.ResolveTracked(k);
    if (probe_service.LastPostmortem().empty()) {
      std::printf("postmortem probe produced no dump (termination %d)\n",
                  static_cast<int>(probed.solution.termination));
      return 1;
    }
    std::printf("(postmortem probe: trace %llu dumped to %s)\n",
                static_cast<unsigned long long>(probed.trace_id),
                postmortem_out.c_str());
  }
  bench_util::FlushArtifacts(flags);

  if (mismatches > 0 || failed > 0) {
    std::printf("%d response(s) diverged from the direct reference, "
                "%lld failed outright\n",
                mismatches, static_cast<long long>(failed));
    return 1;
  }
  return 0;
}
