#include "mcfs/core/instance.h"

#include <numeric>

#include "mcfs/common/thread_pool.h"
#include "mcfs/flow/matcher.h"

namespace mcfs {

const char* TerminationName(Termination termination) {
  switch (termination) {
    case Termination::kConverged:
      return "converged";
    case Termination::kDeadline:
      return "deadline";
    case Termination::kInfeasible:
      return "infeasible";
  }
  return "unknown";
}

double McfsInstance::Occupancy() const {
  if (k <= 0 || capacities.empty()) return 0.0;
  const double mean_capacity =
      std::accumulate(capacities.begin(), capacities.end(), 0.0) /
      capacities.size();
  if (mean_capacity <= 0.0) return 0.0;
  return static_cast<double>(m()) / (mean_capacity * k);
}

namespace {

// Packages a unit-demand matching over the `selected` subset (facility
// indices into that subset) as a solution over the full catalog.
McfsSolution SolutionFromPairs(const McfsInstance& instance,
                               const std::vector<int>& selected,
                               const std::vector<MatchedPair>& pairs,
                               bool feasible) {
  McfsSolution solution;
  solution.selected = selected;
  solution.assignment.assign(instance.m(), -1);
  solution.distances.assign(instance.m(), 0.0);
  solution.feasible = feasible;
  for (const MatchedPair& pair : pairs) {
    solution.assignment[pair.customer] = selected[pair.facility];
    solution.distances[pair.customer] = pair.distance;
    solution.objective += pair.distance;
  }
  return solution;
}

}  // namespace

McfsSolution AssignOptimally(const McfsInstance& instance,
                             const std::vector<int>& selected, int threads) {
  std::vector<NodeId> nodes;
  std::vector<int> capacities;
  nodes.reserve(selected.size());
  capacities.reserve(selected.size());
  for (const int j : selected) {
    nodes.push_back(instance.facility_nodes[j]);
    capacities.push_back(instance.capacities[j]);
  }
  IncrementalMatcher sspa(instance.graph, instance.customers, nodes,
                          capacities);
  return AssignWithMatcher(instance, selected, sspa, threads);
}

McfsSolution AssignWithMatcher(const McfsInstance& instance,
                               const std::vector<int>& selected,
                               IncrementalMatcher& matcher, int threads) {
  if (ResolveThreadCount(threads) > 1) {
    // Every still-unassigned customer needs one assignment plus the
    // threshold lookahead; front-load those two stream entries in one
    // parallel burst. On a fresh matcher every customer qualifies.
    std::vector<int> counts(instance.m(), 0);
    for (int i = 0; i < instance.m(); ++i) {
      if (matcher.CustomerMatchCount(i) < 1) counts[i] = 2;
    }
    matcher.PrefetchCandidates(counts, threads);
  }
  bool all_ok = true;
  for (int i = 0; i < instance.m(); ++i) {
    if (matcher.CustomerMatchCount(i) >= 1) continue;  // warm-adopted
    if (!matcher.FindPair(i)) all_ok = false;
  }
  return SolutionFromPairs(instance, selected, matcher.MatchedPairs(),
                           all_ok);
}

}  // namespace mcfs
