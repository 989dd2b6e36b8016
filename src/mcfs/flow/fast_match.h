#ifndef MCFS_FLOW_FAST_MATCH_H_
#define MCFS_FLOW_FAST_MATCH_H_

#include <vector>

#include "mcfs/graph/graph.h"

namespace mcfs {

// Bounded-work capacitated greedy matching (DESIGN.md §4.14): the
// instant-responder assignment behind the serving fast tier. Instead of
// the optimal min-cost matching (flow/matcher.h), customers are
// assigned nearest-first against precomputed multi-source distances —
// the O(M log M) roadmap-matching flavor of Treleaven et
// al. (arXiv 1311.4609):
//
//   round r: one MultiSourceDijkstra from the selected facilities that
//   still have free capacity; unassigned customers are visited in
//   ascending nearest-distance order (ties by customer index) and take
//   their nearest unsaturated facility while its capacity lasts.
//
// Customers that lose the race for a saturated facility roll into the
// next round, where the saturated facility is no longer a source. Work
// is bounded: each round either assigns every remaining reachable
// customer or saturates at least one facility, so at most
// |selected| + 1 rounds run (callers can tighten that with
// FastMatchOptions::max_rounds). The result is feasible
// (capacity-respecting) but deliberately not optimal — the full solver
// refines it in the background.
struct FastMatchOptions {
  // Upper bound on restricted re-match rounds; <= 0 derives the
  // |selected| + 1 bound above.
  int max_rounds = 0;
};

struct FastMatchResult {
  // Every customer holds an assignment. False when some customer is
  // unreachable from (or crowded out of) the selected capacity within
  // the round budget — the caller falls back to the exact matcher.
  bool all_assigned = false;
  std::vector<int> assignment;    // size m; facility index or -1
  std::vector<double> distances;  // size m; network distance, 0 if unassigned
  double total_cost = 0.0;        // sum of assigned distances
  int rounds = 0;                 // multi-source rounds actually run
};

// Greedily assigns every customer to the facilities named by `selected`
// (indices into `facility_nodes` / `capacities`, distinct).
// Deterministic: depends only on the input bytes and the selection
// order. The flow layer stays instance-free (core depends on flow, not
// the other way around), so callers pass the pieces directly.
FastMatchResult FastGreedyMatch(const Graph& graph,
                                const std::vector<NodeId>& customers,
                                const std::vector<NodeId>& facility_nodes,
                                const std::vector<int>& capacities,
                                const std::vector<int>& selected,
                                const FastMatchOptions& options = {});

}  // namespace mcfs

#endif  // MCFS_FLOW_FAST_MATCH_H_
