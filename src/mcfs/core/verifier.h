#ifndef MCFS_CORE_VERIFIER_H_
#define MCFS_CORE_VERIFIER_H_

#include <string>
#include <vector>

#include "mcfs/common/status.h"
#include "mcfs/core/instance.h"

namespace mcfs {

// The one solution checker (DESIGN.md §4.8). Deliberately shares no
// code with the solvers. Every claim a solution makes is checked here:
// the shape, a selection of at most k distinct in-range facilities,
// every assignment pointing at a selected facility, no facility over
// capacity, unassigned customers only in a solution marked infeasible,
// and the objective as the sum of the distances. VerifySolution also
// re-derives every assigned distance on the network. Distances and
// objectives match when |a - b| <= 1e-6 * max(1, |a|, |b|).

struct VerifyOptions {
  // Distance re-derivation strategy. The default runs one full Dijkstra
  // per selected facility — thorough, but O(k) full searches. `targeted`
  // instead runs one early-exit point-to-point search per distinct
  // customer node, settled only until the assigned facility is reached
  // (or the claimed distance is provably exceeded). Work is bounded by
  // the claimed distance's ball around each customer, which makes it
  // cheap enough for the serving fast path; every structural claim is
  // checked identically in both modes.
  bool targeted = false;
};

struct VerifyReport {
  bool ok = true;
  std::vector<std::string> failures;   // one line per violated claim
  int customers_checked = 0;
  int dijkstra_runs = 0;
  double recomputed_objective = 0.0;   // sum of the checked distances

  // kOk, or kInvalidInput carrying the first failure.
  Status ToStatus() const;
  std::string ToString() const;
};

// Verifies `solution` against `instance` from first principles.
// Maintains the verify/* counters (solutions_checked, failures,
// dijkstra_runs, customers_checked) when metrics are enabled.
VerifyReport VerifySolution(const McfsInstance& instance,
                            const McfsSolution& solution,
                            const VerifyOptions& options = {});

// VerifySolution's structural checks alone: the claimed distances are
// taken as given, so the objective is compared with their sum. No
// network search runs and no counter moves; a failure string is the
// one VerifySolution reports for the same defect.
VerifyReport VerifyStructure(const McfsInstance& instance,
                             const McfsSolution& solution);

}  // namespace mcfs

#endif  // MCFS_CORE_VERIFIER_H_
