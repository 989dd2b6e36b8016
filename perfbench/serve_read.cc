// serve_read: one long-lived SolverService on the Aalborg preset (l=300
// candidates of capacity 10, k=75) under a closed loop of kClients
// clients that each wait for their reply. Work comes in rounds of 12
// fresh request identities (m = 40..120); every other identity carries a
// 1 ms SLA with refinement, so its first answer is the fast tier. After
// the round's refinements drain, half of the identities (one full, one
// SLA of every four) are requested again as cache hits. Latency is the
// client's Submit -> Wait time.
#include <atomic>
#include <cstdio>
#include <memory>
#include <sstream>
#include <thread>

#include "common.h"
#include "mcfs/common/random.h"
#include "mcfs/common/thread_pool.h"
#include "mcfs/core/validate.h"
#include "mcfs/core/verifier.h"
#include "mcfs/graph/road_network.h"
#include "mcfs/obs/trace.h"
#include "mcfs/serve/solver_service.h"
#include "mcfs/workload/workload.h"

namespace mcfs::perf {
namespace {

constexpr double kScale = 0.04;
constexpr double kSmokeScale = 0.02;
constexpr int kIdentitiesPerRound = 12;
constexpr int64_t kSlaMs = 1;
// The network and catalog are bench_serve's at its default seed, fixed
// so runs compare the code rather than one network draw against
// another; the run seed draws the request stream.
constexpr uint64_t kInstanceSeed = 42;

struct ReadEnv {
  std::unique_ptr<Graph> city;
  std::vector<NodeId> facilities;
  std::vector<int> capacities;
  int k = 0;
  std::unique_ptr<SolverService> service;
};

ServiceOptions MakeOptions() {
  ServiceOptions options;
  options.serve_threads = kServeThreads;
  options.verify = false;  // the benchmark checks every answer itself
  options.wma = BaseWmaOptions(kWmaThreads);
  return options;
}

// Network generation plus service construction (the warm build). The
// previous service and network are torn down before the clock starts.
double BuildEnv(double scale, uint64_t seed, ReadEnv* env) {
  env->service.reset();
  env->city.reset();
  const double t0 = NowSeconds();
  env->city = std::make_unique<Graph>(GenerateCity(AalborgPreset(scale, seed)));
  Rng rng(seed + 1);
  const int l = std::min(env->city->NumNodes() / 8, 300);
  env->facilities = SampleDistinctNodes(*env->city, l, rng);
  env->capacities = UniformCapacities(l, 10);
  env->k = l / 4;
  env->service = std::make_unique<SolverService>(
      env->city.get(), env->facilities, env->capacities, MakeOptions());
  return NowSeconds() - t0;
}

struct Identity {
  SolveRequest request;
  McfsInstance instance;
  McfsSolution reference;
  bool reference_ok = false;
  bool repeated = false;
};

struct Served {
  const Identity* identity = nullptr;
  SolveResponse response;
  double latency = 0.0;
  bool verifier_ok = true;  // the benchmark's own VerifySolution (traced)
};

// A round's identities and their direct SolveWma references, solved
// on kPoolThreads threads outside every timing window.
std::vector<Identity> MakeRound(const ReadEnv& env, Rng& rng) {
  std::vector<Identity> round(kIdentitiesPerRound);
  for (int i = 0; i < kIdentitiesPerRound; ++i) {
    Identity& id = round[i];
    const int m = 40 + 20 * (i % 5);
    id.request.customers = SampleNodesWithReplacement(*env.city, m, rng);
    id.request.k = env.k;
    if (i % 2 == 1) {
      id.request.max_latency_ms = kSlaMs;
      id.request.tier = "fast";
      id.request.refine = true;
    }
    id.repeated = i % 4 < 2;
    id.instance.graph = env.city.get();
    id.instance.customers = id.request.customers;
    id.instance.facility_nodes = env.facilities;
    id.instance.capacities = env.capacities;
    id.instance.k = env.k;
  }
  ParallelFor(
      0, kIdentitiesPerRound, 1,
      [&](int64_t i) {
        StatusOr<WmaResult> solved =
            SolveWma(round[i].instance, BaseWmaOptions(1));
        round[i].reference_ok = solved.ok();
        if (solved.ok()) round[i].reference = std::move(solved).value().solution;
      },
      kPoolThreads);
  return round;
}

// kClients closed-loop clients over `ids`, in order.
void ClosedLoop(SolverService& service, const std::vector<const Identity*>& ids,
                std::vector<Served>* served) {
  const size_t base = served->size();
  served->resize(base + ids.size());
  std::atomic<size_t> next{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&] {
      for (size_t r = next.fetch_add(1); r < ids.size(); r = next.fetch_add(1)) {
        Served& out = (*served)[base + r];
        out.identity = ids[r];
        MCFS_SPAN("bench/submit_wait");
        const double t0 = NowSeconds();
        const auto handle = service.Submit(ids[r]->request);
        if (!handle->WaitFor(120'000)) {
          std::fprintf(stderr, "request wedged for 120 s; aborting\n");
          std::_Exit(3);
        }
        out.response = handle->Wait();
        out.latency = NowSeconds() - t0;
      }
    });
  }
  for (std::thread& client : clients) client.join();
}

struct ReadSamples {
  std::vector<double> latency, sla_latency, fast_quality;
  std::vector<double> queue, preprocess, solve, other;
  int fast = 0;
  int hits = 0;
  WmaTotals wma;  // computed full-tier answers
};

// Checks a round's answers, one check each: full-tier answers
// byte-identical to their direct reference (and accepted by the
// benchmark's verifier in traced runs), fast answers verified and
// quality-bounded.
void CheckRound(const std::vector<Identity>& round,
                const std::vector<Served>& served, Outcome* outcome,
                ReadSamples* samples) {
  for (const Identity& id : round) {
    if (!id.reference_ok) outcome->Problem("reference SolveWma failed");
  }
  for (const Served& one : served) {
    const SolveResponse& r = one.response;
    bool ok = r.status.ok();
    if (ok && r.tier == "fast") {
      ok = r.verify_ran && r.verify_ok &&
           (r.quality_bound >= 1.0 || r.quality_bound == kDegenerateQualityBound);
      ++samples->fast;
      samples->fast_quality.push_back(r.quality_bound);
    } else if (ok && r.tier == "full") {
      ok = r.solution.termination == Termination::kConverged &&
           SameSolution(r.solution, one.identity->reference) &&
           (!r.verify_ran || r.verify_ok) && one.verifier_ok;
      if (!r.cache_hit) samples->wma.Add(r.stats);
    } else {
      ok = false;
    }
    outcome->Check(ok, "request m=" +
                           std::to_string(one.identity->instance.m()) +
                           " tier=" + r.tier + ": " +
                           (r.status.ok() ? "answer check failed"
                                          : r.status.ToString()));
    if (r.cache_hit) ++samples->hits;
    samples->latency.push_back(one.latency);
    if (one.identity->request.max_latency_ms > 0) {
      samples->sla_latency.push_back(one.latency);
    }
    samples->queue.push_back(r.queue_seconds);
    samples->preprocess.push_back(r.preprocess_seconds);
    samples->solve.push_back(r.solve_seconds);
    samples->other.push_back(one.latency - r.queue_seconds -
                             r.preprocess_seconds - r.solve_seconds);
  }
}

struct ReadRun {
  double setup_s = 0.0;
  int rounds = 0;
  double window = 0.0;  // client load time, summed over rounds
  ReadSamples samples;
  double validate_seconds = 0.0;
  double verify_seconds = 0.0;
  int64_t verify_dijkstra_runs = 0;
  int n = 0;
  int l = 0;
  int k = 0;
  ServiceReport report;
  obs::MetricsSnapshot counters;
};

// Runs rounds until `seconds` have passed (or exactly `fixed_rounds`
// when positive), checking and dropping each round as it completes.
// Observability is `traced` for the served work only.
ReadRun RunLoad(const Args& args, bool traced, int fixed_rounds,
                Outcome* outcome) {
  const double scale = args.smoke ? kSmokeScale : kScale;
  ReadRun run;
  ReadEnv env;
  SetObservability(false);
  run.setup_s = MedianSetupSeconds(
      [&] { return BuildEnv(scale, kInstanceSeed, &env); });
  run.n = env.city->NumNodes();
  run.l = static_cast<int>(env.facilities.size());
  run.k = env.k;
  if (traced) SetObservability(true);
  Rng rng(args.seed);
  const double start = NowSeconds();
  while (fixed_rounds > 0 ? run.rounds < fixed_rounds
                          : run.rounds < 2 || NowSeconds() - start < args.seconds) {
    // References stay out of the trace, and the benchmark's own
    // validation and verification out of the counters.
    obs::EnableMetrics(false);
    obs::EnableTracing(false);
    const std::vector<Identity> round = MakeRound(env, rng);
    obs::EnableTracing(traced);
    for (const Identity& id : round) {
      MCFS_SPAN("bench/validate_instance");
      const double t0 = NowSeconds();
      ValidateInstance(id.instance);
      run.validate_seconds += NowSeconds() - t0;
    }
    obs::EnableMetrics(traced);
    std::vector<const Identity*> first, again;
    for (const Identity& id : round) {
      first.push_back(&id);
      if (id.repeated) again.push_back(&id);
    }
    std::vector<Served> served;
    const double t0 = NowSeconds();
    ClosedLoop(*env.service, first, &served);
    {
      MCFS_SPAN("bench/drain_refinements");
      env.service->DrainRefinements();
    }
    ClosedLoop(*env.service, again, &served);
    run.window += NowSeconds() - t0;
    ++run.rounds;
    {
      // A repeat that missed the cache may have started a refinement.
      MCFS_SPAN("bench/drain_refinements");
      env.service->DrainRefinements();
    }
    obs::EnableMetrics(false);
    if (traced) {
      const double t1 = NowSeconds();
      for (Served& one : served) {
        const SolveResponse& response = one.response;
        if (!response.status.ok() || response.cache_hit ||
            response.tier != "full") {
          continue;
        }
        MCFS_SPAN("bench/verify_solution");
        const VerifyReport report =
            VerifySolution(one.identity->instance, response.solution);
        run.verify_dijkstra_runs += report.dijkstra_runs;
        one.verifier_ok = report.ok;
      }
      run.verify_seconds += NowSeconds() - t1;
    }
    CheckRound(round, served, outcome, &run.samples);
    obs::EnableMetrics(traced);
  }
  run.counters = obs::SnapshotMetrics();
  obs::EnableMetrics(false);
  obs::EnableTracing(false);
  run.report = env.service->Report();
  return run;
}

double Sum(const std::vector<double>& values) {
  double sum = 0.0;
  for (const double v : values) sum += v;
  return sum;
}

}  // namespace

WorkloadResult RunServeRead(const Args& args) {
  WorkloadResult result;
  Outcome& outcome = result.outcome;
  const auto describe = [&](const ReadRun& run) {
    std::ostringstream env;
    env << "scale=" << (args.smoke ? kSmokeScale : kScale) << " n=" << run.n
        << " l=" << run.l << " k=" << run.k
        << " rounds=" << run.rounds
        << " requests=" << run.samples.latency.size()
        << " sla_ms=" << kSlaMs;
    return env.str();
  };
  if (!args.trace) {
    const ReadRun run = RunLoad(args, false, 0, &outcome);
    const ReadSamples& s = run.samples;
    result.environment = describe(run);
    const double p50 = Quantile(s.latency, 0.5) * 1e3;
    const double p99 = Quantile(s.latency, 0.99) * 1e3;
    const double rps = static_cast<double>(s.latency.size()) / run.window;
    result.end_to_end = {{"setup_s", run.setup_s, "s"},
                         {"op_tail_ms", p99, "ms"},
                         {"peak_rss_mb", PeakRssMb(), "MB"}};
    result.named = {
        {"setup_s", run.setup_s, "s"},
        {"latency_p50_ms", p50, "ms"},
        {"latency_p99_ms", p99, "ms"},
        {"throughput_rps", rps, "1/s"},
        {"fast_latency_p99_ms", Quantile(s.sla_latency, 0.99) * 1e3, "ms"},
        {"fast_quality_p50", Quantile(s.fast_quality, 0.5), "ratio"},
        {"fast_answers", static_cast<double>(s.fast), "count"},
        {"cache_hits", static_cast<double>(s.hits), "count"},
    };
    return result;
  }

  // Per-layer: the same rounds untraced, then traced.
  Args half = args;
  half.seconds = args.seconds / 2;
  const ReadRun plain = RunLoad(half, false, 0, &outcome);
  const ReadRun traced = RunLoad(args, true, plain.rounds, &outcome);
  const ReadSamples& s = traced.samples;
  ReportSpans(args, "serve_read");
  result.environment = describe(traced);

  const double units = static_cast<double>(s.latency.size());
  if (!CheckPhases("serve_read requests", Sum(s.latency),
                   {{"serve.queue_s", Sum(s.queue), "s"},
                    {"serve.preprocess_s", Sum(s.preprocess), "s"},
                    {"serve.solve_s", Sum(s.solve), "s"}},
                   "serve.other_s")) {
    outcome.Problem("phase accounting");
  }
  const obs::MetricsSnapshot& c = traced.counters;
  const auto per = [&](const char* name) {
    return static_cast<double>(CounterValue(c, name)) / units;
  };
  const auto batch = c.distributions.find("serve/batch_size");
  std::vector<Metric>& rows = result.per_layer;
  AddSolverLayerRows(c, s.wma, units, &rows);
  rows.insert(
      rows.end(),
      {{"core.validate_s", traced.validate_seconds / units, "s"},
       {"verify.s", traced.verify_seconds / units, "s"},
       {"verify.dijkstra_runs", traced.verify_dijkstra_runs / units, "count"},
       {"serve.queue_s_p50", Quantile(s.queue, 0.5), "s"},
       {"serve.queue_s_p99", Quantile(s.queue, 0.99), "s"},
       {"serve.preprocess_s_p50", Quantile(s.preprocess, 0.5), "s"},
       {"serve.preprocess_s_p99", Quantile(s.preprocess, 0.99), "s"},
       {"serve.solve_s_p50", Quantile(s.solve, 0.5), "s"},
       {"serve.solve_s_p99", Quantile(s.solve, 0.99), "s"},
       {"serve.other_s_p50", Quantile(s.other, 0.5), "s"},
       {"serve.other_s_p99", Quantile(s.other, 0.99), "s"},
       {"serve.cache_hit_ratio", s.hits / units, "ratio"},
       {"serve.fast_share", s.fast / units, "ratio"},
       {"serve.batch_size_mean",
        batch == c.distributions.end() ? 0.0 : batch->second.Mean(), "count"},
       {"serve.requests_shed", per("serve/requests_shed"), "count"},
       {"serve.fast_fallthroughs", per("serve/fast_fallthroughs"), "count"},
       {"serve.refine_runs", per("serve/refine_runs"), "count"},
       {"serve.tier_upgrades", per("serve/tier_upgrades"), "count"},
       {"serve.epoch_rebuilds", per("serve/epoch_rebuilds"), "count"},
       {"serve.warm_build_s",
        Ratio(traced.report.warm_build_seconds,
              static_cast<double>(traced.report.epochs_built)),
        "s"},
       {"obs.trace_overhead", traced.window / plain.window - 1.0, "ratio"}});
  return result;
}

}  // namespace mcfs::perf
