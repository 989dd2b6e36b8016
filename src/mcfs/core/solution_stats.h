#ifndef MCFS_CORE_SOLUTION_STATS_H_
#define MCFS_CORE_SOLUTION_STATS_H_

#include <string>
#include <vector>

#include "mcfs/core/instance.h"

namespace mcfs {

// Descriptive statistics of a solution, for reports and dashboards:
// distance distribution over customers and capacity utilization over
// the selected facilities.
struct SolutionStats {
  int assigned_customers = 0;
  int unassigned_customers = 0;

  // Distance distribution over assigned customers.
  double mean_distance = 0.0;
  double max_distance = 0.0;
  double median_distance = 0.0;
  double p90_distance = 0.0;
  double p99_distance = 0.0;

  // Capacity utilization over selected facilities.
  int facilities_used = 0;     // selected facilities with >= 1 customer
  int facilities_full = 0;     // selected facilities at capacity
  double mean_utilization = 0.0;  // load / capacity over selected
  int max_load = 0;

  // Per-selected-facility loads, aligned with solution.selected.
  std::vector<int> load;
};

// Computes the statistics; the solution must be structurally valid for
// the instance (see VerifyStructure).
SolutionStats ComputeSolutionStats(const McfsInstance& instance,
                                   const McfsSolution& solution);

// Renders the statistics as a short human-readable report.
std::string FormatSolutionStats(const SolutionStats& stats);

}  // namespace mcfs

#endif  // MCFS_CORE_SOLUTION_STATS_H_
