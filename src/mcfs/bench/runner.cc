#include "mcfs/bench/runner.h"

#include <algorithm>

#include "mcfs/baselines/brnn.h"
#include "mcfs/baselines/greedy_kmedian.h"
#include "mcfs/baselines/hilbert_baseline.h"
#include "mcfs/common/check.h"
#include "mcfs/common/table.h"
#include "mcfs/common/thread_pool.h"
#include "mcfs/common/timer.h"
#include "mcfs/core/local_search.h"
#include "mcfs/core/verifier.h"
#include "mcfs/core/wma.h"
#include "mcfs/obs/trace.h"

namespace mcfs {

AlgoOutcome RunAlgorithm(const std::string& name, const AlgorithmFn& fn,
                         const McfsInstance& instance, bool verify) {
  obs::TraceSpan span(("run/" + name).c_str());
  WallTimer timer;
  const McfsSolution solution = fn(instance);
  AlgoOutcome outcome;
  outcome.algorithm = name;
  outcome.seconds = timer.Seconds();
  outcome.objective = solution.objective;
  outcome.feasible = solution.feasible;
  outcome.termination = solution.termination;
  const VerifyReport structure = VerifyStructure(instance, solution);
  MCFS_CHECK(structure.ok) << name << ": " << structure.failures.front();
  if (verify) {
    outcome.verify_ran = true;
    outcome.verify_ok = VerifySolution(instance, solution).ok;
  }
  return outcome;
}

std::vector<AlgoOutcome> RunSuite(const McfsInstance& instance,
                                  const AlgorithmSuite& suite) {
  // Build the enabled cells first (paper's table order), then execute
  // them as one parallel point sweep: every cell only reads the shared
  // instance and writes its own outcome slot, so the outcome vector is
  // identical for any thread count. WMA variants inherit suite.threads
  // for their final assignment's stream prefetch; when cells themselves
  // run on the pool, that nested prefetch runs inline.
  WmaOptions wma_options;
  wma_options.seed = suite.seed;
  wma_options.threads = suite.threads;
  // Iteration rows are cheap (a handful of scalars per iteration), and
  // the suite exists to produce reports — always collect them.
  wma_options.collect_iteration_stats = true;
  wma_options.metrics = suite.metrics;
  wma_options.deadline_ms = suite.cell_timeout_ms;
  if (suite.metrics) obs::EnableMetrics(true);
  WmaOptions naive_options = wma_options;
  naive_options.naive = true;
  ExactOptions exact_options = suite.exact_options;
  if (suite.cell_timeout_ms > 0) {
    exact_options.time_limit_seconds =
        std::min(exact_options.time_limit_seconds,
                 static_cast<double>(suite.cell_timeout_ms) / 1000.0);
  }
  const bool verify = suite.verify;

  // Captures a WMA-variant cell: runs it through RunAlgorithm (timer +
  // validation) and attaches the phase/iteration breakdown.
  auto wma_cell = [&instance, verify](const std::string& name, auto run) {
    return [&instance, verify, name, run] {
      WmaStats stats;
      AlgoOutcome outcome = RunAlgorithm(
          name,
          [&](const McfsInstance& inst) {
            WmaResult result = run(inst);
            stats = std::move(result.stats);
            return std::move(result.solution);
          },
          instance, verify);
      outcome.has_wma_stats = true;
      outcome.wma_stats = std::move(stats);
      return outcome;
    };
  };

  std::vector<std::function<AlgoOutcome()>> cells;
  if (suite.with_brnn) {
    cells.push_back([&] {
      return RunAlgorithm(
          "BRNN",
          [](const McfsInstance& inst) { return RunBrnnBaseline(inst); },
          instance, verify);
    });
  }
  if (suite.with_hilbert) {
    cells.push_back([&] {
      return RunAlgorithm(
          "Hilbert",
          [](const McfsInstance& inst) { return RunHilbertBaseline(inst); },
          instance, verify);
    });
  }
  if (suite.with_greedy_kmedian) {
    cells.push_back([&] {
      return RunAlgorithm(
          "Greedy k-med",
          [](const McfsInstance& inst) { return RunGreedyKMedian(inst); },
          instance, verify);
    });
  }
  if (suite.with_wma_naive) {
    cells.push_back(wma_cell("WMA Naive", [&](const McfsInstance& inst) {
      return RunWma(inst, naive_options);
    }));
  }
  if (suite.with_wma) {
    cells.push_back(wma_cell("WMA", [&](const McfsInstance& inst) {
      return RunWma(inst, wma_options);
    }));
  }
  if (suite.with_uf_wma) {
    cells.push_back(wma_cell("UF WMA", [&](const McfsInstance& inst) {
      return RunUniformFirstWma(inst, wma_options);
    }));
  }
  if (suite.with_wma_ls) {
    cells.push_back([&] {
      return RunAlgorithm(
          "WMA+LS",
          [&](const McfsInstance& inst) {
            const McfsSolution wma = RunWma(inst, wma_options).solution;
            return ImproveByLocalSearch(inst, wma).solution;
          },
          instance, verify);
    });
  }
  if (suite.with_exact) {
    cells.push_back([&, exact_options] {
      obs::TraceSpan span("run/Exact (B&B)");
      WallTimer timer;
      const ExactResult exact = SolveExact(instance, exact_options);
      AlgoOutcome outcome;
      outcome.algorithm = "Exact (B&B)";
      outcome.seconds = timer.Seconds();
      outcome.objective = exact.solution.objective;
      outcome.feasible = exact.solution.feasible;
      outcome.failed = exact.failed || !exact.optimal;
      if (verify && !outcome.failed) {
        outcome.verify_ran = true;
        outcome.verify_ok = VerifySolution(instance, exact.solution).ok;
      }
      return outcome;
    });
  }

  std::vector<AlgoOutcome> outcomes(cells.size());
  if (suite.metrics) {
    // Serial cells with a registry reset between them: every counter in
    // a cell's snapshot was incremented by that cell alone. The cells
    // run inline (not on the pool), so each WMA final assignment's
    // prefetch still fans out across suite.threads.
    for (size_t c = 0; c < cells.size(); ++c) {
      obs::ResetMetrics();
      outcomes[c] = cells[c]();
      outcomes[c].metrics = obs::SnapshotMetrics();
    }
  } else {
    ParallelFor(
        0, static_cast<int64_t>(cells.size()), /*grain=*/1,
        [&](int64_t c) { outcomes[c] = cells[c](); }, suite.threads);
  }
  return outcomes;
}

std::string FormatOutcome(const AlgoOutcome& outcome) {
  if (outcome.failed) return "fail (" + FmtSeconds(outcome.seconds) + ")";
  if (!outcome.feasible) return "infeasible";
  std::string text = FmtDouble(outcome.objective, 0) + " / " +
                     FmtSeconds(outcome.seconds);
  if (outcome.termination == Termination::kDeadline) text += " [deadline]";
  if (outcome.verify_ran && !outcome.verify_ok) text += " [VERIFY FAIL]";
  return text;
}

}  // namespace mcfs
