#ifndef MCFS_BENCH_RUNNER_H_
#define MCFS_BENCH_RUNNER_H_

#include <functional>
#include <string>
#include <vector>

#include "mcfs/core/instance.h"
#include "mcfs/core/wma.h"
#include "mcfs/exact/bb_solver.h"
#include "mcfs/obs/metrics.h"

namespace mcfs {

// Outcome of running one algorithm on one instance: the two quantities
// every figure in the paper reports (objective, runtime) plus status,
// phase breakdowns, and (when AlgorithmSuite::metrics is on) the cell's
// slice of the process-wide counter registry.
struct AlgoOutcome {
  std::string algorithm;
  double objective = 0.0;
  double seconds = 0.0;
  bool feasible = false;
  bool failed = false;  // exact solver exceeded its budget ("Gurobi fails")
  // How the solver ended: kDeadline marks an anytime result cut short
  // by AlgorithmSuite::cell_timeout_ms (still feasible, best-so-far).
  Termination termination = Termination::kConverged;
  // Verdict of the independent verifier (core/verifier.h); verify_ran
  // is false unless the suite/caller asked for verification.
  bool verify_ran = false;
  bool verify_ok = false;
  // WMA-variant cells carry the full phase/iteration breakdown
  // (iterations, matching/cover/final-assign seconds,
  // per-iteration rows); other algorithms leave it default.
  bool has_wma_stats = false;
  WmaStats wma_stats;
  // Counters and distributions attributed to exactly this cell: with
  // metrics on, RunSuite runs cells serially and resets the registry
  // between them, so the snapshot is the cell's own work. Empty with
  // metrics off.
  obs::MetricsSnapshot metrics;
};

using AlgorithmFn = std::function<McfsSolution(const McfsInstance&)>;

// Runs `fn` on the instance under a wall timer, validates the solution
// structurally, and records objective/runtime. With verify, also runs
// the independent verifier (fresh Dijkstras; core/verifier.h) on the
// result and records the verdict in verify_ran/verify_ok — outside the
// timed window, so cell runtimes stay comparable.
AlgoOutcome RunAlgorithm(const std::string& name, const AlgorithmFn& fn,
                         const McfsInstance& instance, bool verify = false);

// Standard algorithm set used across the experiment suite. `exact`
// carries its own budget so large points fail gracefully.
struct AlgorithmSuite {
  bool with_wma = true;
  bool with_wma_naive = true;
  bool with_hilbert = true;
  bool with_brnn = false;  // expensive; only where the paper shows it
  bool with_uf_wma = false;
  // Classic uncapacitated-greedy k-median baseline (library extension).
  bool with_greedy_kmedian = false;
  // WMA followed by the swap local search (library extension).
  bool with_wma_ls = false;
  bool with_exact = true;
  ExactOptions exact_options;
  uint64_t seed = 42;
  // Threads for the suite. With metrics off, independent (instance,
  // algorithm) cells run concurrently on the shared pool; with metrics
  // on, cells run one at a time, so this has no effect (every solve is
  // serial). Default 1 keeps the per-cell runtimes contention-free
  // (comparable, as the figures require); raise it (bench binaries:
  // --threads=N) to trade timing fidelity for wall-clock. Objectives
  // and solutions are identical for every value.
  int threads = 1;
  // Per-cell observability (on by default — the suite exists to produce
  // reports): enables the obs MetricsRegistry, runs cells serially with
  // a registry reset between them, and stores each cell's counter
  // snapshot in its AlgoOutcome. Turn off to run cells concurrently on
  // the pool (suite.threads > 1) without attribution.
  bool metrics = true;
  // Per-cell wall-clock budget in milliseconds; 0 = unlimited. The WMA
  // variants take it as their cooperative deadline and degrade anytime
  // (best-so-far solution, termination == kDeadline); the exact
  // solver's own time budget is capped to it.
  int64_t cell_timeout_ms = 0;
  // Run the independent verifier on every cell's solution (bench
  // binaries: --verify). Verdicts land in AlgoOutcome::verify_ok and
  // the verify/* counters in the cell's metrics snapshot.
  bool verify = false;
};

// Runs the configured suite on one instance and returns one outcome per
// enabled algorithm (order: BRNN, Hilbert, WMA Naive, WMA, UF WMA,
// Exact — the order the paper's tables use).
std::vector<AlgoOutcome> RunSuite(const McfsInstance& instance,
                                  const AlgorithmSuite& suite);

// Formats an outcome as "objective / runtime" (or "fail / runtime").
std::string FormatOutcome(const AlgoOutcome& outcome);

}  // namespace mcfs

#endif  // MCFS_BENCH_RUNNER_H_
