#include "mcfs/core/local_search.h"

#include <algorithm>
#include <set>
#include <utility>
#include <vector>

#include "mcfs/common/random.h"
#include "mcfs/core/repair.h"
#include "mcfs/graph/dijkstra.h"
#include "mcfs/graph/facility_stream.h"

namespace mcfs {

namespace {

// A candidate swap: replace selected facility `out` with candidate `in`
// (in == -1 means "no-op": only used when filling below k).
struct Move {
  int out;
  int in;
};

// Nearest unselected candidate facilities to `node`, up to `limit`.
std::vector<int> NearestUnselected(const McfsInstance& instance,
                                   const std::vector<int>& facility_of_node,
                                   const std::vector<uint8_t>& is_selected,
                                   NodeId node, int limit) {
  std::vector<int> found;
  IncrementalDijkstra dijkstra(instance.graph, node);
  while (static_cast<int>(found.size()) < limit) {
    const std::optional<SettledNode> settled = dijkstra.NextSettled();
    if (!settled.has_value()) break;
    const int j = facility_of_node[settled->node];
    if (j >= 0 && !is_selected[j]) found.push_back(j);
  }
  return found;
}

}  // namespace

LocalSearchResult ImproveByLocalSearch(const McfsInstance& instance,
                                       const McfsSolution& start,
                                       const LocalSearchOptions& options) {
  LocalSearchResult result;
  std::vector<int> selected = start.selected;
  if (!start.feasible) {
    if (static_cast<int>(selected.size()) < instance.k) {
      SelectGreedy(instance, selected);
    }
    CoverComponents(instance, selected);
  }
  McfsSolution best = AssignOptimally(instance, selected);
  if (!best.feasible && start.feasible) {
    best = start;  // repair hurt; keep the original
    selected = start.selected;
  }

  std::vector<int> facility_of_node(instance.graph->NumNodes(), -1);
  for (int j = 0; j < instance.l(); ++j) {
    facility_of_node[instance.facility_nodes[j]] = j;
  }
  Rng rng(options.seed);

  for (int round = 0; round < options.max_rounds && !selected.empty();
       ++round) {
    result.rounds = round + 1;
    std::vector<uint8_t> is_selected(instance.l(), 0);
    for (const int j : selected) is_selected[j] = 1;

    // Load and served-cost per selected facility.
    std::vector<int> load(instance.l(), 0);
    std::vector<double> served_cost(instance.l(), 0.0);
    std::vector<std::pair<double, int>> worst_customers;  // (dist, i)
    for (int i = 0; i < instance.m(); ++i) {
      const int j = best.assignment[i];
      if (j < 0) continue;
      load[j]++;
      served_cost[j] += best.distances[i];
      worst_customers.push_back({best.distances[i], i});
    }
    std::sort(worst_customers.begin(), worst_customers.end(),
              [](const auto& a, const auto& b) { return a.first > b.first; });

    // Facilities to consider closing: lightly used or expensive ones.
    std::vector<std::pair<double, int>> close_candidates;  // (score, j)
    for (const int j : selected) {
      const double score =
          load[j] == 0 ? -1.0 : served_cost[j] / load[j] - load[j];
      close_candidates.push_back({score, j});
    }
    std::sort(close_candidates.begin(), close_candidates.end(),
              [](const auto& a, const auto& b) { return a.first > b.first; });

    // Build the move set: open a facility near a badly served customer,
    // close one of the close-candidates.
    std::vector<Move> moves;
    const int probes = std::max(1, options.moves_per_round / 4);
    for (int w = 0; w < probes &&
                    w < static_cast<int>(worst_customers.size());
         ++w) {
      const NodeId customer_node =
          instance.customers[worst_customers[w].second];
      for (const int in : NearestUnselected(instance, facility_of_node,
                                            is_selected, customer_node, 2)) {
        for (int c = 0; c < 2 &&
                        c < static_cast<int>(close_candidates.size());
             ++c) {
          moves.push_back({close_candidates[c].second, in});
        }
        // Also try closing a random selected facility (diversification).
        moves.push_back(
            {selected[rng.UniformInt(0, selected.size() - 1)], in});
      }
      if (static_cast<int>(moves.size()) >= options.moves_per_round) break;
    }

    // Deduplicate and cap.
    std::set<std::pair<int, int>> seen;
    std::vector<Move> unique_moves;
    for (const Move& move : moves) {
      if (move.out == move.in) continue;
      if (seen.insert({move.out, move.in}).second) {
        unique_moves.push_back(move);
      }
      if (static_cast<int>(unique_moves.size()) >= options.moves_per_round) {
        break;
      }
    }

    // Steepest descent over the sampled moves.
    double best_gain = 0.0;
    McfsSolution best_move_solution;
    std::vector<int> best_move_selected;
    for (const Move& move : unique_moves) {
      std::vector<int> trial = selected;
      std::replace(trial.begin(), trial.end(), move.out, move.in);
      ++result.moves_evaluated;
      const McfsSolution candidate = AssignOptimally(instance, trial);
      if (!candidate.feasible) continue;
      const double gain = best.objective - candidate.objective;
      if (gain > best_gain) {
        best_gain = gain;
        best_move_solution = candidate;
        best_move_selected = std::move(trial);
      }
    }
    if (best_gain <=
        options.min_relative_gain * (1.0 + best.objective)) {
      break;  // local minimum w.r.t. the sampled neighborhood
    }
    best = std::move(best_move_solution);
    selected = std::move(best_move_selected);
    ++result.swaps_applied;
  }
  result.solution = std::move(best);
  return result;
}

}  // namespace mcfs
