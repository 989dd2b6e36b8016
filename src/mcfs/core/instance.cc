#include "mcfs/core/instance.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <set>
#include <sstream>

#include "mcfs/common/thread_pool.h"
#include "mcfs/flow/cost_scaling.h"
#include "mcfs/flow/matcher.h"
#include "mcfs/flow/matcher_backend.h"
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

bool IsFeasible(const McfsInstance& instance) {
  const ComponentLabeling components = ConnectedComponents(*instance.graph);
  std::vector<int64_t> customers_in(components.num_components, 0);
  for (const NodeId c : instance.customers) {
    customers_in[components.component_of[c]]++;
  }
  std::vector<std::vector<int>> capacities_in(components.num_components);
  for (int j = 0; j < instance.l(); ++j) {
    capacities_in[components.component_of[instance.facility_nodes[j]]]
        .push_back(instance.capacities[j]);
  }
  int64_t required = 0;
  for (int g = 0; g < components.num_components; ++g) {
    if (customers_in[g] == 0) continue;
    auto& caps = capacities_in[g];
    std::sort(caps.begin(), caps.end(), std::greater<int>());
    int64_t remaining = customers_in[g];
    for (const int c : caps) {
      if (remaining <= 0) break;
      remaining -= c;
      ++required;
    }
    if (remaining > 0) return false;  // component cannot be covered
  }
  return required <= instance.k;
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
                             const std::vector<int>& selected, int threads,
                             MatcherBackendKind matcher) {
  std::vector<NodeId> nodes;
  std::vector<int> capacities;
  nodes.reserve(selected.size());
  int64_t total_capacity = 0;
  for (const int j : selected) {
    nodes.push_back(instance.facility_nodes[j]);
    capacities.push_back(instance.capacities[j]);
    total_capacity += instance.capacities[j];
  }
  MatchShape shape;
  shape.customers = instance.m();
  shape.facilities = static_cast<int64_t>(selected.size());
  shape.total_capacity = total_capacity;
  if (ResolveMatcherBackend(matcher, shape) ==
      MatcherBackendKind::kCostScaling) {
    CostScalingMatcher scaled(instance.graph, instance.customers, nodes,
                              capacities);
    const bool all_assigned = scaled.MatchAll(threads);
    return SolutionFromPairs(instance, selected, scaled.MatchedPairs(),
                             all_assigned);
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
