#include "mcfs/exact/bb_solver.h"

#include <algorithm>
#include <vector>

#include "mcfs/common/check.h"
#include "mcfs/common/timer.h"
#include "mcfs/core/wma.h"
#include "mcfs/exact/distance_matrix.h"
#include "mcfs/exact/lagrangian.h"
#include "mcfs/flow/transport.h"
#include "mcfs/graph/dijkstra.h"

namespace mcfs {

namespace {

enum FacilityState : int8_t { kFree = 0, kOpen = 1, kClosed = 2 };

// Builds a McfsSolution from a dense transport assignment.
McfsSolution SolutionFromAssignment(const McfsInstance& instance,
                                    const std::vector<double>& cost,
                                    const TransportResult& transport) {
  McfsSolution solution;
  const int l = instance.l();
  std::vector<uint8_t> used(l, 0);
  solution.assignment = transport.assignment;
  solution.distances.assign(instance.m(), 0.0);
  for (int i = 0; i < instance.m(); ++i) {
    const int j = transport.assignment[i];
    used[j] = 1;
    solution.distances[i] = cost[static_cast<size_t>(i) * l + j];
    solution.objective += solution.distances[i];
  }
  for (int j = 0; j < l; ++j) {
    if (used[j]) solution.selected.push_back(j);
  }
  solution.feasible = true;
  return solution;
}

}  // namespace

ExactResult SolveExact(const McfsInstance& instance,
                       const ExactOptions& options) {
  WallTimer timer;
  ExactResult result;
  const int m = instance.m();
  const int l = instance.l();
  const double kTolerance = 1e-6;

  auto fail_with_incumbent = [&]() {
    result.failed = true;
    if (options.use_wma_incumbent) {
      result.solution = RunWma(instance).solution;
    }
    result.seconds = timer.Seconds();
    return result;
  };

  if (static_cast<int64_t>(m) * l > options.max_matrix_entries) {
    return fail_with_incumbent();
  }

  // Dense customer-facility distances (per-customer Dijkstra or a CH
  // bucket table, whichever the cost model prefers).
  const std::vector<double> cost = ComputeDistanceMatrix(instance);
  if (timer.Seconds() > options.time_limit_seconds) {
    return fail_with_incumbent();
  }

  double incumbent_cost = kInfDistance;
  if (options.use_wma_incumbent) {
    result.solution = RunWma(instance).solution;
    if (result.solution.feasible) incumbent_cost = result.solution.objective;
  }


  // Root feasibility: can all customers be assigned with every facility
  // open? If not, the instance is infeasible outright. The root cost is
  // also a global lower bound and a step-size reference when no
  // incumbent exists yet.
  double root_cost = 0.0;
  {
    const std::optional<TransportResult> root =
        SolveDenseTransport(m, l, cost, instance.capacities);
    if (!root.has_value()) {
      result.optimal = true;  // proven infeasible
      result.seconds = timer.Seconds();
      return result;
    }
    root_cost = root->cost;
  }

  LagrangianBound bound(m, l, instance.k, &cost, &instance.capacities);
  std::vector<std::vector<int8_t>> stack;
  stack.emplace_back(l, kFree);
  std::vector<int> node_capacities(l);

  // Solves the transport restricted to a facility subset and updates the
  // incumbent.
  auto try_primal = [&](const std::vector<int>& subset) {
    std::fill(node_capacities.begin(), node_capacities.end(), 0);
    for (const int j : subset) node_capacities[j] = instance.capacities[j];
    const std::optional<TransportResult> solved =
        SolveDenseTransport(m, l, cost, node_capacities);
    if (solved.has_value() && solved->cost < incumbent_cost) {
      incumbent_cost = solved->cost;
      result.solution = SolutionFromAssignment(instance, cost, *solved);
    }
  };

  bool at_root = true;
  while (!stack.empty()) {
    if (result.nodes_explored >= options.max_nodes ||
        timer.Seconds() > options.time_limit_seconds) {
      result.failed = true;
      break;
    }
    const std::vector<int8_t> state = std::move(stack.back());
    stack.pop_back();
    ++result.nodes_explored;

    int open_count = 0;
    int free_count = 0;
    for (int j = 0; j < l; ++j) {
      if (state[j] == kOpen) ++open_count;
      if (state[j] == kFree) ++free_count;
    }

    if (open_count >= instance.k || open_count + free_count <= instance.k) {
      // Leaf: the selection is decided (open set, possibly topped up by
      // every remaining free facility within budget).
      std::vector<int> subset;
      for (int j = 0; j < l; ++j) {
        if (state[j] == kOpen || (state[j] == kFree &&
                                  open_count < instance.k)) {
          subset.push_back(j);
        }
      }
      try_primal(subset);
      continue;
    }

    const LagrangianSubproblem sub = bound.Maximize(
        state, at_root ? 150 : 15,
        incumbent_cost == kInfDistance ? 4.0 * (1.0 + root_cost)
                                       : incumbent_cost);
    if (sub.bound >= incumbent_cost - kTolerance * (1.0 + incumbent_cost)) {
      continue;  // bound prune
    }
    if (at_root || result.nodes_explored % 16 == 0) {
      try_primal(sub.chosen);
      if (sub.bound >=
          incumbent_cost - kTolerance * (1.0 + incumbent_cost)) {
        at_root = false;
        continue;
      }
    }
    at_root = false;

    // Branch on the free facility serving the most customers in the
    // Lagrangian subproblem solution.
    int branch = -1;
    for (int j = 0; j < l; ++j) {
      if (state[j] != kFree) continue;
      if (branch == -1 || sub.usage[j] > sub.usage[branch]) branch = j;
    }
    MCFS_CHECK_NE(branch, -1);

    std::vector<int8_t> closed_child = state;
    closed_child[branch] = kClosed;
    stack.push_back(std::move(closed_child));
    std::vector<int8_t> open_child = state;
    open_child[branch] = kOpen;
    stack.push_back(std::move(open_child));  // explored first (DFS)
  }

  result.optimal = !result.failed;
  if (result.optimal && !result.solution.feasible &&
      incumbent_cost == kInfDistance) {
    // Exhausted the tree without a feasible selection: infeasible for
    // this k even though the root transport was feasible.
    result.optimal = true;
  }
  result.seconds = timer.Seconds();
  return result;
}

ExactResult SolveByEnumeration(const McfsInstance& instance) {
  WallTimer timer;
  ExactResult result;
  const int m = instance.m();
  const int l = instance.l();
  std::vector<double> cost(static_cast<size_t>(m) * l);
  for (int i = 0; i < m; ++i) {
    const std::vector<double> dist =
        ShortestPathsFrom(*instance.graph, instance.customers[i]);
    for (int j = 0; j < l; ++j) {
      cost[static_cast<size_t>(i) * l + j] = dist[instance.facility_nodes[j]];
    }
  }

  std::vector<int> subset;
  std::vector<int> capacities(l, 0);
  double best_cost = kInfDistance;

  // Recursive subset enumeration of exactly min(k, l) facilities.
  const int pick = std::min(instance.k, l);
  auto recurse = [&](auto&& self, int start) -> void {
    if (static_cast<int>(subset.size()) == pick) {
      std::fill(capacities.begin(), capacities.end(), 0);
      for (const int j : subset) capacities[j] = instance.capacities[j];
      const std::optional<TransportResult> solved =
          SolveDenseTransport(m, l, cost, capacities);
      if (solved.has_value() && solved->cost < best_cost) {
        best_cost = solved->cost;
        result.solution = SolutionFromAssignment(instance, cost, *solved);
      }
      return;
    }
    for (int j = start; j < l; ++j) {
      subset.push_back(j);
      self(self, j + 1);
      subset.pop_back();
    }
  };
  recurse(recurse, 0);
  result.optimal = true;
  result.seconds = timer.Seconds();
  return result;
}

}  // namespace mcfs
