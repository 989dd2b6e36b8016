#ifndef MCFS_CORE_INSTANCE_H_
#define MCFS_CORE_INSTANCE_H_

#include <vector>

#include "mcfs/graph/graph.h"

namespace mcfs {

// One MCFS problem instance (Sec. II of the paper): a network, m
// customer locations, l candidate facility locations with capacities,
// and a budget of k facilities to select. Facility nodes must be
// distinct; customer nodes may repeat (several customers per node).
struct McfsInstance {
  const Graph* graph = nullptr;
  std::vector<NodeId> customers;       // size m
  std::vector<NodeId> facility_nodes;  // size l, distinct nodes
  std::vector<int> capacities;         // size l, c_j >= 0
  int k = 0;

  int m() const { return static_cast<int>(customers.size()); }
  int l() const { return static_cast<int>(facility_nodes.size()); }

  // Occupancy o = m / sum of the k largest capacities' mean * k — the
  // paper defines o = m / (c*k) for uniform c; for nonuniform instances
  // we report m / (mean_capacity * k).
  double Occupancy() const;
};

// How a solver run ended. Solvers with anytime behavior (WMA under a
// deadline) still return their best feasible solution on kDeadline —
// the marker distinguishes "this is the converged answer" from "this is
// what the time budget allowed".
enum class Termination {
  kConverged = 0,  // ran to completion
  kDeadline,       // time budget / cancellation cut the search short
  kInfeasible,     // the instance admits no full cover (Theorem 3)
};

const char* TerminationName(Termination termination);

// A solution: the selected facilities and the customer assignment.
struct McfsSolution {
  std::vector<int> selected;      // candidate-facility indices, size <= k
  std::vector<int> assignment;    // size m; facility index or -1
  std::vector<double> distances;  // size m; network distance, 0 if unassigned
  double objective = 0.0;         // sum of assigned distances
  bool feasible = false;          // every customer assigned
  Termination termination = Termination::kConverged;
};

// Checks whether an instance admits any feasible solution (Theorem 3):
// for every connected component g, the customers in g must be coverable
// by at most k_g facilities inside g, and sum_g k_g <= k, where k_g is
// the minimum number of facilities (largest capacities first) whose
// capacity sum reaches |S_g|. Reads the graph's stored component
// labeling and skips DiagnoseInstance's structural checks, with which it
// shares the accounting (validate.cc).
bool IsFeasible(const McfsInstance& instance);

// Optimally assigns all customers to the given selected facilities
// (minimum-cost transportation over the network) and packages the
// result as a solution. If some customers cannot be assigned, the
// solution has feasible == false and contains the partial assignment.
// Serial: each customer's FindPair expands its nearest-facility stream
// only as far as the Theorem-1 threshold needs, usually one entry.
// Runs AssignWithMatcher on a fresh IncrementalMatcher.
McfsSolution AssignOptimally(const McfsInstance& instance,
                             const std::vector<int>& selected);

class IncrementalMatcher;

// Core of AssignOptimally on a caller-prepared matcher whose facility
// list is exactly the `selected` subset (in order), and the one batch
// SSPA path. Runs FindPair only for customers whose demand is still
// unsatisfied, so a warm-resumed matcher (flow/matcher.h ResumeFrom)
// pays only for the customers a delta invalidated; on a fresh matcher
// this is exactly AssignOptimally.
McfsSolution AssignWithMatcher(const McfsInstance& instance,
                               const std::vector<int>& selected,
                               IncrementalMatcher& matcher);

}  // namespace mcfs

#endif  // MCFS_CORE_INSTANCE_H_
