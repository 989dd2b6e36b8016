#include "mcfs/baselines/greedy_kmedian.h"

#include <algorithm>
#include <vector>

#include "mcfs/core/repair.h"
#include "mcfs/exact/distance_matrix.h"
#include "mcfs/graph/dijkstra.h"

namespace mcfs {

McfsSolution RunGreedyKMedian(const McfsInstance& instance,
                              const GreedyKMedianOptions& options) {
  const int m = instance.m();
  const int l = instance.l();
  if (static_cast<int64_t>(m) * l > options.max_matrix_entries) {
    McfsSolution failed;
    failed.assignment.assign(m, -1);
    failed.distances.assign(m, 0.0);
    return failed;  // instance too large for the dense greedy
  }

  // Dense distances (per-customer Dijkstra or a CH bucket table).
  const std::vector<double> cost = ComputeDistanceMatrix(instance);

  // Greedy: each round opens the candidate with the largest reduction
  // of sum_i min-distance (uncapacitated proxy).
  std::vector<double> best_distance(m, kInfDistance);
  std::vector<uint8_t> used(l, 0);
  std::vector<int> selected;
  const int rounds = std::min(instance.k, l);
  for (int round = 0; round < rounds; ++round) {
    int best_facility = -1;
    double best_gain = -1.0;
    for (int j = 0; j < l; ++j) {
      if (used[j]) continue;
      double gain = 0.0;
      for (int i = 0; i < m; ++i) {
        const double d = cost[static_cast<size_t>(i) * l + j];
        if (d < best_distance[i]) {
          gain += (best_distance[i] == kInfDistance)
                      ? 1e12  // newly reachable customer dominates
                      : best_distance[i] - d;
        }
      }
      if (gain > best_gain) {
        best_gain = gain;
        best_facility = j;
      }
    }
    if (best_facility == -1 || best_gain <= 0.0) break;
    used[best_facility] = 1;
    selected.push_back(best_facility);
    for (int i = 0; i < m; ++i) {
      best_distance[i] = std::min(
          best_distance[i],
          cost[static_cast<size_t>(i) * l + best_facility]);
    }
  }

  // Same finishing steps as the other baselines.
  if (static_cast<int>(selected.size()) < instance.k) {
    SelectGreedy(instance, selected);
  }
  CoverComponents(instance, selected);
  return AssignOptimally(instance, selected);
}

}  // namespace mcfs
