#include "mcfs/core/verifier.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <optional>
#include <sstream>

#include "mcfs/graph/dijkstra.h"
#include "mcfs/obs/metrics.h"

namespace mcfs {

Status VerifyReport::ToStatus() const {
  if (ok) return OkStatus();
  std::ostringstream msg;
  msg << failures.size() << " verification failure(s); first: "
      << failures.front();
  return InvalidInputError(msg.str());
}

std::string VerifyReport::ToString() const {
  std::ostringstream out;
  out << (ok ? "VERIFIED" : "REJECTED") << ": " << customers_checked
      << " customers, " << dijkstra_runs << " dijkstras, objective "
      << recomputed_objective;
  for (const std::string& failure : failures) out << "\n  " << failure;
  return out.str();
}

namespace {

constexpr double kEpsilon = 1e-6;

bool Close(double a, double b) {
  return std::abs(a - b) <=
         kEpsilon * std::max({1.0, std::abs(a), std::abs(b)});
}

// Where the per-customer distances come from: the solution's own claims
// (VerifyStructure), or a re-derivation on the network.
enum class Distances { kClaimed, kFull, kTargeted };

VerifyReport Verify(const McfsInstance& instance,
                    const McfsSolution& solution, Distances source) {
  VerifyReport report;
  auto fail = [&report](const std::string& what) {
    report.ok = false;
    report.failures.push_back(what);
  };
  const bool counted = source != Distances::kClaimed;
  if (counted) MCFS_COUNT("verify/solutions_checked", 1);

  // --- Shape: a solution that is not even structurally sound is
  // rejected before any distance work.
  if (static_cast<int>(solution.assignment.size()) != instance.m() ||
      solution.distances.size() != solution.assignment.size()) {
    fail("assignment/distances sized " +
         std::to_string(solution.assignment.size()) + "/" +
         std::to_string(solution.distances.size()) + " for " +
         std::to_string(instance.m()) + " customers");
    if (counted) MCFS_COUNT("verify/failures", 1);
    return report;
  }

  // --- Selection: distinct in-range indices, within the k budget.
  if (static_cast<int>(solution.selected.size()) > instance.k) {
    fail(std::to_string(solution.selected.size()) +
         " facilities selected, budget k = " + std::to_string(instance.k));
  }
  std::vector<int> selected_slot(instance.l(), -1);
  bool selection_sound = true;
  for (size_t s = 0; s < solution.selected.size(); ++s) {
    const int j = solution.selected[s];
    if (j < 0 || j >= instance.l()) {
      fail("selected facility index " + std::to_string(j) +
           " out of range [0, " + std::to_string(instance.l()) + ")");
      selection_sound = false;
    } else if (selected_slot[j] >= 0) {
      fail("facility " + std::to_string(j) + " selected twice");
      selection_sound = false;
    } else {
      selected_slot[j] = static_cast<int>(s);
    }
  }
  if (!selection_sound) {
    if (counted) MCFS_COUNT("verify/failures", 1);
    return report;
  }

  // --- Independent distances. Full: one fresh full Dijkstra per
  // selected facility (undirected graphs, so dist(facility -> customer)
  // == dist(customer -> facility)), read at once into the distance of
  // every customer assigned to that facility, so one distance array is
  // alive at a time. Targeted: one early-exit point-to-point search per
  // distinct customer node, settled just past the claimed distance —
  // enough to either confirm the assigned facility's true distance or
  // prove the claim understates it.
  std::vector<double> assigned_distance;
  std::map<NodeId, IncrementalDijkstra> searches;
  if (source == Distances::kFull) {
    assigned_distance.assign(instance.m(), kInfDistance);
    for (size_t s = 0; s < solution.selected.size(); ++s) {
      const std::vector<double> dist = ShortestPathsFrom(
          *instance.graph, instance.facility_nodes[solution.selected[s]]);
      ++report.dijkstra_runs;
      for (int i = 0; i < instance.m(); ++i) {
        if (solution.assignment[i] == solution.selected[s]) {
          assigned_distance[i] = dist[instance.customers[i]];
        }
      }
    }
    MCFS_COUNT("verify/dijkstra_runs", report.dijkstra_runs);
  }

  // --- Assignments: valid targets, true distances, load within
  // capacity, and the objective as the sum of the distances.
  std::vector<int64_t> load(solution.selected.size(), 0);
  int unassigned = 0;
  bool distances_complete = true;
  for (int i = 0; i < instance.m(); ++i) {
    ++report.customers_checked;
    const int j = solution.assignment[i];
    if (j == -1) {
      ++unassigned;
      continue;
    }
    if (j < 0 || j >= instance.l() || selected_slot[j] < 0) {
      fail("customer " + std::to_string(i) +
           " assigned to unselected or invalid facility " +
           std::to_string(j));
      continue;
    }
    const int s = selected_slot[j];
    ++load[s];
    double true_distance;
    if (source == Distances::kClaimed) {
      true_distance = solution.distances[i];
    } else if (source == Distances::kTargeted) {
      const NodeId origin = instance.customers[i];
      const NodeId target = instance.facility_nodes[j];
      auto it = searches.find(origin);
      if (it == searches.end()) {
        it = searches
                 .emplace(std::piecewise_construct,
                          std::forward_as_tuple(origin),
                          std::forward_as_tuple(instance.graph, origin))
                 .first;
        ++report.dijkstra_runs;
      }
      IncrementalDijkstra& search = it->second;
      const double claimed = solution.distances[i];
      // Settling past this limit without reaching the target proves the
      // true distance is larger than anything Close() would accept.
      const double limit =
          claimed + kEpsilon * std::max({1.0, std::abs(claimed)});
      true_distance = search.SettledDistance(target);
      while (!std::isfinite(true_distance) &&
             search.PeekNextDistance() <= limit) {
        const std::optional<SettledNode> settled = search.NextSettled();
        if (!settled.has_value()) break;
        if (settled->node == target) true_distance = settled->distance;
      }
      if (!std::isfinite(true_distance)) {
        distances_complete = false;
        if (search.PeekNextDistance() == kInfDistance) {
          fail("customer " + std::to_string(i) +
               " unreachable from its facility " + std::to_string(j));
        } else {
          std::ostringstream msg;
          msg << "customer " << i << " claims distance " << claimed
              << " but the network distance exceeds it";
          fail(msg.str());
        }
        continue;
      }
    } else {
      true_distance = assigned_distance[i];
      if (!std::isfinite(true_distance)) {
        distances_complete = false;
        fail("customer " + std::to_string(i) +
             " unreachable from its facility " + std::to_string(j));
        continue;
      }
    }
    if (source != Distances::kClaimed &&
        !Close(solution.distances[i], true_distance)) {
      std::ostringstream msg;
      msg << "customer " << i << " claims distance "
          << solution.distances[i] << " but the network distance is "
          << true_distance;
      fail(msg.str());
    }
    report.recomputed_objective += true_distance;
  }
  if (source == Distances::kTargeted) {
    MCFS_COUNT("verify/dijkstra_runs", report.dijkstra_runs);
  }
  if (counted) {
    MCFS_COUNT("verify/customers_checked", report.customers_checked);
  }
  for (size_t s = 0; s < load.size(); ++s) {
    const int j = solution.selected[s];
    if (load[s] > instance.capacities[j]) {
      fail("facility " + std::to_string(j) + " serves " +
           std::to_string(load[s]) + " customers, capacity " +
           std::to_string(instance.capacities[j]));
    }
  }
  if (unassigned > 0 && solution.feasible) {
    fail(std::to_string(unassigned) +
         " customers unassigned in a solution marked feasible");
  }
  // An early-exited targeted search leaves the re-derived sum partial;
  // the per-customer failure is already recorded, so the objective
  // comparison would only add noise. The other sources always compare.
  if ((distances_complete || source != Distances::kTargeted) &&
      !Close(solution.objective, report.recomputed_objective)) {
    std::ostringstream msg;
    msg << "objective claims " << solution.objective
        << " but the assignments sum to " << report.recomputed_objective;
    fail(msg.str());
  }
  if (counted && !report.ok) MCFS_COUNT("verify/failures", 1);
  return report;
}

}  // namespace

VerifyReport VerifySolution(const McfsInstance& instance,
                            const McfsSolution& solution,
                            const VerifyOptions& options) {
  return Verify(instance, solution,
                options.targeted ? Distances::kTargeted : Distances::kFull);
}

VerifyReport VerifyStructure(const McfsInstance& instance,
                             const McfsSolution& solution) {
  return Verify(instance, solution, Distances::kClaimed);
}

}  // namespace mcfs
