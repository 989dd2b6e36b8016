#include "mcfs/core/instance.h"

#include <cmath>
#include <numeric>
#include <set>
#include <sstream>

#include "mcfs/common/thread_pool.h"
#include "mcfs/flow/matcher.h"
#include "mcfs/graph/dijkstra.h"

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

ValidationResult ValidateSolution(const McfsInstance& instance,
                                  const McfsSolution& solution,
                                  bool check_distances) {
  auto fail = [](const std::string& message) {
    return ValidationResult{false, message};
  };
  if (static_cast<int>(solution.selected.size()) > instance.k) {
    return fail("more than k facilities selected");
  }
  std::set<int> selected_set;
  for (const int j : solution.selected) {
    if (j < 0 || j >= instance.l()) return fail("selected index out of range");
    if (!selected_set.insert(j).second) return fail("duplicate selection");
  }
  if (solution.assignment.size() != instance.customers.size()) {
    return fail("assignment size mismatch");
  }
  std::vector<int> load(instance.l(), 0);
  double total = 0.0;
  for (int i = 0; i < instance.m(); ++i) {
    const int j = solution.assignment[i];
    if (j == -1) {
      if (solution.feasible) return fail("feasible solution left a customer unassigned");
      continue;
    }
    if (selected_set.count(j) == 0) {
      return fail("customer assigned to unselected facility");
    }
    if (++load[j] > instance.capacities[j]) {
      std::ostringstream msg;
      msg << "capacity of facility " << j << " exceeded";
      return fail(msg.str());
    }
    total += solution.distances[i];
  }
  if (std::abs(total - solution.objective) > 1e-6 * (1.0 + total)) {
    return fail("objective does not match the sum of distances");
  }
  if (check_distances) {
    for (const int j : solution.selected) {
      const std::vector<double> dist =
          ShortestPathsFrom(*instance.graph, instance.facility_nodes[j]);
      for (int i = 0; i < instance.m(); ++i) {
        if (solution.assignment[i] != j) continue;
        if (std::abs(dist[instance.customers[i]] - solution.distances[i]) >
            1e-6 * (1.0 + solution.distances[i])) {
          return fail("recorded distance differs from network distance");
        }
      }
    }
  }
  return {true, ""};
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
