#ifndef MCFS_BENCH_BENCH_UTIL_H_
#define MCFS_BENCH_BENCH_UTIL_H_

#include <cstdio>
#include <string>
#include <vector>

#include "mcfs/bench/run_report.h"
#include "mcfs/bench/runner.h"
#include "mcfs/common/check.h"
#include "mcfs/common/flags.h"
#include "mcfs/common/table.h"
#include "mcfs/core/instance.h"
#include "mcfs/obs/metrics.h"
#include "mcfs/obs/trace.h"

namespace mcfs {
namespace bench_util {

// Every experiment binary accepts:
//   --scale=F   multiplies the instance sizes (default < 1 so the whole
//               suite finishes on a laptop; 1.0 reproduces paper scale)
//   --seed=N    RNG seed
//   --exact_seconds=S  budget for the exact reference solver
//   --threads=N parallelism cap (default 1: serial, contention-free
//               per-cell timings; 0 = MCFS_THREADS / hardware default).
//               With --metrics (the default) cells run one at a time
//               and each WMA final assignment prefetches on N threads;
//               with --metrics=false cells run on N threads and every
//               nested prefetch runs inline. Objectives are identical
//               either way.
//   --metrics=BOOL  per-cell counter/distribution collection via the obs
//               registry (default true; --metrics=false for raw speed)
//   --report-out=PATH  structured JSON run report (default
//               run_report.json when metrics are on; "" disables)
//   --trace-out=PATH  Chrome trace_event JSON of the run's spans, load
//               it in Perfetto / chrome://tracing (default off; the
//               MCFS_TRACE env var does the same thing)
//   --deadline-ms=N  per-cell wall-clock budget: WMA variants degrade
//               anytime (best-so-far, status "deadline"), the exact
//               solver's budget is capped to it (default 0 = unlimited)
//   --verify=BOOL  re-check every cell's solution with the independent
//               verifier (fresh Dijkstras); verdicts go to the table
//               status, the run report, and the verify/* counters
//   --matcher=sspa|cost_scaling|auto  matching engine for every cell's
//               final/transport assignments (default sspa; auto picks
//               by instance shape). The MCFS_MATCHER env var supplies
//               the same choice when the flag is absent.
struct BenchConfig {
  double scale = 1.0;
  uint64_t seed = 42;
  double exact_seconds = 20.0;
  int threads = 1;
  bool metrics = true;
  int64_t deadline_ms = 0;
  bool verify = false;
  MatcherBackendKind matcher = MatcherBackendKind::kSspa;
  std::string report_out;
  std::string trace_out;

  static BenchConfig FromFlags(const Flags& flags, double default_scale) {
    BenchConfig config;
    config.scale = flags.GetDouble("scale", default_scale);
    config.seed = static_cast<uint64_t>(flags.GetInt("seed", 42));
    config.exact_seconds = flags.GetDouble("exact_seconds", 20.0);
    config.threads = static_cast<int>(flags.GetInt("threads", 1));
    config.metrics = flags.GetBool("metrics", true);
    // Both spellings are accepted, matching the repo's flag style.
    config.deadline_ms =
        flags.GetInt("deadline-ms", flags.GetInt("deadline_ms", 0));
    config.verify = flags.GetBool("verify", false);
    // Flag beats env beats the sspa default; a bad spelling on the
    // command line is a hard error (a silently ignored engine choice
    // would corrupt a crossover measurement).
    const std::string matcher_flag = flags.GetString("matcher", "");
    if (!matcher_flag.empty()) {
      const StatusOr<MatcherBackendKind> parsed =
          ParseMatcherBackend(matcher_flag);
      MCFS_CHECK(parsed.ok()) << "--matcher=" << matcher_flag << ": "
                              << parsed.status().ToString();
      config.matcher = parsed.value();
    } else {
      config.matcher = MatcherBackendFromEnv(MatcherBackendKind::kSspa);
    }
    config.report_out = flags.GetString(
        "report_out", config.metrics ? "run_report.json" : "");
    config.trace_out = flags.GetString("trace_out", "");
    if (config.metrics) obs::EnableMetrics(true);
    if (!config.trace_out.empty()) obs::EnableTracing(true);
    return config;
  }
};

namespace internal {
// One report per bench process, named in Banner(); leaked like the obs
// registries so artifact flushing never races static destruction.
inline RunReport*& ReportSlot() {
  static RunReport* report = nullptr;
  return report;
}
}  // namespace internal

// The process-wide run report every SweepTable feeds.
inline RunReport& Report() {
  RunReport*& slot = internal::ReportSlot();
  if (slot == nullptr) slot = new RunReport("bench");
  return *slot;
}

// Prints one experiment banner and names the process run report.
inline void Banner(const std::string& title, const BenchConfig& config) {
  std::printf("\n=== %s (scale=%.3g, seed=%llu, matcher=%s) ===\n",
              title.c_str(), config.scale,
              static_cast<unsigned long long>(config.seed),
              MatcherBackendName(config.matcher));
  RunReport*& slot = internal::ReportSlot();
  if (slot == nullptr) slot = new RunReport(title);
}

// Applies the shared per-binary knobs to a suite (seed, exact budget,
// thread count, metrics); the caller then toggles the algorithm set.
inline AlgorithmSuite MakeSuite(const BenchConfig& config) {
  AlgorithmSuite suite;
  suite.seed = config.seed;
  suite.exact_options.time_limit_seconds = config.exact_seconds;
  suite.threads = config.threads;
  suite.metrics = config.metrics;
  suite.cell_timeout_ms = config.deadline_ms;
  suite.verify = config.verify;
  suite.matcher = config.matcher;
  return suite;
}

// Rebuilds an instance with shifted seeds until it is feasible (the
// paper's experiments assume feasible instances; clustered/sparse
// synthetic graphs occasionally fragment too much for the budget k).
// `build` maps a seed to an instance.
template <typename BuildFn>
McfsInstance BuildFeasibleInstance(BuildFn&& build, uint64_t base_seed,
                                   int max_attempts = 8) {
  McfsInstance instance = build(base_seed);
  for (int attempt = 1;
       attempt < max_attempts && !IsFeasible(instance); ++attempt) {
    instance = build(base_seed + 1000 * static_cast<uint64_t>(attempt));
  }
  return instance;
}

// Writes the run-report / trace artifacts configured by the flags.
// Rewritten after every table so an interrupted sweep still leaves
// consistent files on disk; the last call holds the full run.
inline void FlushArtifacts(const Flags& flags) {
  const bool metrics = flags.GetBool("metrics", true);
  const std::string report_out =
      flags.GetString("report_out", metrics ? "run_report.json" : "");
  RunReport* report = internal::ReportSlot();
  if (!report_out.empty() && report != nullptr && report->NumCells() > 0) {
    if (report->WriteJson(report_out)) {
      std::printf("(run report written to %s)\n", report_out.c_str());
    }
  }
  const std::string trace_out = flags.GetString("trace_out", "");
  if (!trace_out.empty() && obs::WriteChromeTrace(trace_out)) {
    std::printf("(trace written to %s — load in Perfetto)\n",
                trace_out.c_str());
  }
}

// Accumulates sweep results into a paper-style table: one row per
// (x, algorithm) with objective, runtime, and phase-breakdown columns —
// and mirrors every outcome into the process run report. `section`
// distinguishes sweeps within one binary (e.g. "6a".."6d") in the
// report's instance labels.
class SweepTable {
 public:
  explicit SweepTable(std::string x_name, std::string section = "")
      : x_name_(std::move(x_name)),
        section_(std::move(section)),
        table_({x_name_, "algorithm", "objective", "runtime", "iters",
                "matching", "cover", "status"}) {}

  void Add(const std::string& x, const std::vector<AlgoOutcome>& outcomes) {
    for (const AlgoOutcome& o : outcomes) {
      std::string status = "ok";
      if (o.verify_ran && !o.verify_ok) {
        status = "VERIFY FAIL";
      } else if (o.failed) {
        status = "fail";
      } else if (!o.feasible) {
        status = "infeasible";
      } else if (o.termination == Termination::kDeadline) {
        status = "deadline";
      } else if (o.verify_ran) {
        status = "verified";
      }
      const bool wma = o.has_wma_stats;
      table_.AddRow({x, o.algorithm,
                     o.failed ? "-" : FmtDouble(o.objective, 1),
                     FmtSeconds(o.seconds),
                     wma ? FmtInt(o.wma_stats.iterations) : "-",
                     wma ? FmtSeconds(o.wma_stats.matching_seconds) : "-",
                     wma ? FmtSeconds(o.wma_stats.cover_seconds) : "-",
                     status});
    }
    std::string label = x_name_ + "=" + x;
    if (!section_.empty()) label = section_ + " " + label;
    Report().AddSuite(label, outcomes);
  }

  void PrintAndMaybeSave(const Flags& flags) {
    table_.Print();
    const std::string csv = flags.GetString("csv", "");
    if (!csv.empty() && table_.WriteCsv(csv)) {
      std::printf("(written to %s)\n", csv.c_str());
    }
    FlushArtifacts(flags);
  }

 private:
  std::string x_name_;
  std::string section_;
  Table table_;
};

}  // namespace bench_util
}  // namespace mcfs

#endif  // MCFS_BENCH_BENCH_UTIL_H_
