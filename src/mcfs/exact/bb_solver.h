#ifndef MCFS_EXACT_BB_SOLVER_H_
#define MCFS_EXACT_BB_SOLVER_H_

#include <cstdint>

#include "mcfs/core/instance.h"

namespace mcfs {

// Budget and behavior of the exact solver. The solver plays the role of
// the paper's Gurobi reference (DESIGN.md §2.2): provably optimal on
// small instances, and deliberately reports failure when its budget is
// exhausted — mirroring the paper's "Gurobi failed / did not terminate"
// data points on large instances.
struct ExactOptions {
  int64_t max_nodes = 200000;        // branch-and-bound node budget
  double time_limit_seconds = 60.0;  // wall-clock budget
  // Hard cap on the dense distance-matrix size (m*l); larger instances
  // fail immediately, like an LP solver running out of practical room.
  int64_t max_matrix_entries = 4000000;
  bool use_wma_incumbent = true;  // seed the incumbent with WMA
};

struct ExactResult {
  McfsSolution solution;       // best solution found (incumbent)
  bool optimal = false;        // proven optimal
  bool failed = false;         // budget exceeded before proving optimality
  int64_t nodes_explored = 0;  // branch-and-bound nodes
  double seconds = 0.0;
};

// Exact branch-and-bound over the facility-selection binaries x_j with a
// minimum-cost-transportation relaxation as lower bound: at each node
// some facilities are forced open/closed; the bound opens every
// non-closed facility (valid since dropping the cardinality constraint
// can only lower cost). A relaxation solution that uses at most k
// facilities is feasible and fathoms its subtree. Branching opens or
// closes the free facility carrying the most relaxation flow.
ExactResult SolveExact(const McfsInstance& instance,
                       const ExactOptions& options = {});

// Exhaustive enumeration of all facility subsets of size k with an
// optimal assignment per subset. Exponential; only for tiny instances
// (l choose k small) — serves as the oracle for SolveExact in tests.
ExactResult SolveByEnumeration(const McfsInstance& instance);

}  // namespace mcfs

#endif  // MCFS_EXACT_BB_SOLVER_H_
