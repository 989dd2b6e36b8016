#ifndef MCFS_CORE_LOCAL_SEARCH_H_
#define MCFS_CORE_LOCAL_SEARCH_H_

#include <cstdint>

#include "mcfs/core/instance.h"

namespace mcfs {

// Swap-based local search over the selected facility set — an extension
// beyond the paper (its related work, e.g. Korupolu et al. [2], studies
// local search for *uncapacitated* facility location; here every move
// is evaluated under hard nonuniform capacities via one optimal
// transportation). Useful as a polishing step after WMA or any
// baseline.
struct LocalSearchOptions {
  int max_rounds = 30;
  // Swap candidates examined per round: replacements are drawn from the
  // unselected facilities nearest to the worst-served customers and to
  // the customers of the least useful selected facility.
  int moves_per_round = 12;
  // Stop when the best move improves the objective by less than this
  // relative amount.
  double min_relative_gain = 1e-9;
  uint64_t seed = 42;
};

struct LocalSearchResult {
  McfsSolution solution;
  int rounds = 0;
  int swaps_applied = 0;
  int moves_evaluated = 0;
};

// Improves `start` (must be structurally valid; may be infeasible, in
// which case the search first tries to repair it) by single-facility
// swaps, re-assigning customers optimally after each tentative move.
// Steepest-descent over the sampled move set; terminates at a local
// minimum or after max_rounds.
LocalSearchResult ImproveByLocalSearch(const McfsInstance& instance,
                                       const McfsSolution& start,
                                       const LocalSearchOptions& options = {});

}  // namespace mcfs

#endif  // MCFS_CORE_LOCAL_SEARCH_H_
