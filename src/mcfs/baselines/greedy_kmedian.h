#ifndef MCFS_BASELINES_GREEDY_KMEDIAN_H_
#define MCFS_BASELINES_GREEDY_KMEDIAN_H_

#include "mcfs/core/instance.h"

namespace mcfs {

// Classic greedy k-median baseline (an extra competitor beyond the
// paper): facilities are added one at a time, each round picking the
// candidate that most reduces the *uncapacitated* assignment cost
// sum_i min_{j in S} d_ij; capacities are then repaired per component
// and the final customers-to-facilities assignment is computed by one
// optimal capacitated matching — the same finishing steps as the other
// baselines, so objectives are directly comparable.
//
// Needs the dense m x l distance matrix (m network Dijkstras); refuses
// instances with m*l above `max_matrix_entries` by returning an
// infeasible empty solution (like the exact solver's failure mode).
struct GreedyKMedianOptions {
  int64_t max_matrix_entries = 20000000;
};

McfsSolution RunGreedyKMedian(const McfsInstance& instance,
                              const GreedyKMedianOptions& options = {});

}  // namespace mcfs

#endif  // MCFS_BASELINES_GREEDY_KMEDIAN_H_
