// Shared pieces of the mcfs_perf benchmark program: command-line
// arguments, the per-run outcome ledger, metric rows, quantiles, timers
// and the metrics-registry helpers the per-layer pass reads.
#ifndef MCFS_PERFBENCH_COMMON_H_
#define MCFS_PERFBENCH_COMMON_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "mcfs/core/instance.h"
#include "mcfs/core/wma.h"
#include "mcfs/obs/metrics.h"

namespace mcfs::perf {

// Thread settings every workload uses, set explicitly and printed with
// the run environment.
inline constexpr int kPoolThreads = 2;    // MCFS_THREADS for the shared pool
inline constexpr int kClients = 2;        // serve_read closed-loop clients
inline constexpr int kServeThreads = 2;   // ServiceOptions::serve_threads
inline constexpr int kWmaThreads = 1;     // WmaOptions::threads
// setup_s is the median of at least kMinSetups set-ups, repeated until
// kSetupBudgetSeconds are spent (at most kMaxSetups).
inline constexpr int kMinSetups = 5;
inline constexpr int kMaxSetups = 500;
inline constexpr double kSetupBudgetSeconds = 2.0;

struct Args {
  std::string workload;
  uint64_t seed = 42;
  double seconds = 10.0;
  bool trace = false;
  // Tiny scales for the self-test; no recorded references apply.
  bool smoke = false;
  std::string reference_path;  // recorded cities_cold objectives/counters
  std::string trace_dir;       // where Chrome traces are written
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

// Counts checked answers and every failed, refused, verifier-rejected or
// mismatched one, plus the failures that are no single answer's (phase
// accounting, counters that differ between thread counts). Either kind
// makes the run incorrect; only answers count in failed / attempted.
struct Outcome {
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<std::string> messages;  // the first few failed answers
  std::vector<std::string> problems;  // every other failure

  // One answer, with all its checks: one attempt, at most one failure.
  void Check(bool ok, const std::string& message);
  void Problem(const std::string& message);
};

// What a workload hands back to main: the end-to-end rows (untraced
// run) or the per-layer rows (traced run), plus human-readable rows
// named as in the benchmark's documentation.
struct WorkloadResult {
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
  std::vector<Metric> named;  // printed only
  Outcome outcome;
  std::string environment;    // workload sizes for the environment line
};

double NowSeconds();
double Median(std::vector<double> values);
// Nearest-rank quantile, q in [0, 1].
double Quantile(std::vector<double> values, double q);
double PeakRssMb();

// Repeats `one_setup` (which returns its own wall seconds) as above and
// returns the median.
double MedianSetupSeconds(const std::function<double()>& one_setup);

bool SameSolution(const McfsSolution& a, const McfsSolution& b);

// Base solver options: exact WMA, SSPA, explicit threads, metrics off.
WmaOptions BaseWmaOptions(int threads);

// Turns metrics and tracing on or off together and clears both.
void SetObservability(bool on);

int64_t CounterValue(const obs::MetricsSnapshot& snapshot,
                     const std::string& name);
double Ratio(double num, double den);

// Sums of the WmaStats phase seconds over a set of solves.
struct WmaTotals {
  double matching = 0.0;
  double cover = 0.0;
  double final_assign = 0.0;
  double prefetch = 0.0;
  double total = 0.0;
  int64_t iterations = 0;
  void Add(const WmaStats& stats);
};

// The graph / flow / wma / cover / verify rows shared by every
// workload's per-layer report, per `units` of work.
void AddSolverLayerRows(const obs::MetricsSnapshot& counters,
                        const WmaTotals& wma, double units,
                        std::vector<Metric>* rows);

// Phase accounting: prints each row and the total, and returns false
// when a measured phase is negative or the remainder is negative beyond
// rounding (phases overlapping or outside the end-to-end window).
bool CheckPhases(const std::string& label, double end_to_end,
                 const std::vector<Metric>& phases,
                 const std::string& remainder_name);

// Writes the Chrome trace and prints the spans' total and self times.
void ReportSpans(const Args& args, const std::string& label);

// The three workloads. Each runs untraced for the end-to-end rows, or,
// with args.trace, an untraced and a traced run of the same work for the
// per-layer rows.
WorkloadResult RunCitiesCold(const Args& args);
WorkloadResult RunServeRead(const Args& args);
WorkloadResult RunServeChurn(const Args& args);

}  // namespace mcfs::perf

#endif  // MCFS_PERFBENCH_COMMON_H_
