#include "mcfs/baselines/brnn.h"

#include <algorithm>

#include "mcfs/core/repair.h"
#include "mcfs/graph/dijkstra.h"

namespace mcfs {

McfsSolution RunBrnnBaseline(const McfsInstance& instance) {
  const Graph& graph = *instance.graph;
  const int m = instance.m();
  const int l = instance.l();
  std::vector<int> facility_index_of_node(graph.NumNodes(), -1);
  for (int j = 0; j < l; ++j) {
    facility_index_of_node[instance.facility_nodes[j]] = j;
  }

  std::vector<int> selected;
  std::vector<uint8_t> used(l, 0);

  // First facility: maximize reachable customers, then minimize the
  // aggregate distance to them.
  {
    std::vector<double> sum(l, 0.0);
    std::vector<int> reached(l, 0);
    for (int i = 0; i < m; ++i) {
      const std::vector<double> dist =
          ShortestPathsFrom(graph, instance.customers[i]);
      for (int j = 0; j < l; ++j) {
        const double d = dist[instance.facility_nodes[j]];
        if (d != kInfDistance) {
          sum[j] += d;
          reached[j]++;
        }
      }
    }
    int best = 0;
    for (int j = 1; j < l; ++j) {
      if (reached[j] > reached[best] ||
          (reached[j] == reached[best] && sum[j] < sum[best])) {
        best = j;
      }
    }
    selected.push_back(best);
    used[best] = 1;
  }

  // Remaining rounds: MaxSum via NLR counting.
  while (static_cast<int>(selected.size()) < std::min(instance.k, l)) {
    std::vector<NodeId> sources;
    for (const int j : selected) {
      sources.push_back(instance.facility_nodes[j]);
    }
    const MultiSourceResult nearest = MultiSourceDijkstra(graph, sources);
    std::vector<int> attracted(l, 0);
    double worst_dist = -1.0;
    int worst_customer = -1;
    for (int i = 0; i < m; ++i) {
      const double radius = nearest.distance[instance.customers[i]];
      if (radius > worst_dist) {
        worst_dist = radius;
        worst_customer = i;
      }
      // The customer's NLR: nodes strictly closer than its nearest
      // selected facility.
      const std::vector<SettledNode> region =
          DijkstraWithinRadius(graph, instance.customers[i], radius);
      for (const SettledNode& s : region) {
        if (s.distance >= radius) continue;  // strict
        const int j = facility_index_of_node[s.node];
        if (j >= 0 && !used[j]) attracted[j]++;
      }
    }
    int best = -1;
    for (int j = 0; j < l; ++j) {
      if (used[j]) continue;
      if (best == -1 || attracted[j] > attracted[best]) best = j;
    }
    if (best == -1) break;
    if (attracted[best] == 0 && worst_customer != -1) {
      // No NLR overlaps any unused candidate; place near the
      // worst-served customer instead.
      IncrementalDijkstra dijkstra(&graph,
                                   instance.customers[worst_customer]);
      while (std::optional<SettledNode> s = dijkstra.NextSettled()) {
        const int j = facility_index_of_node[s->node];
        if (j >= 0 && !used[j]) {
          best = j;
          break;
        }
      }
    }
    selected.push_back(best);
    used[best] = 1;
  }

  CoverComponents(instance, selected);
  return AssignOptimally(instance, selected);
}

}  // namespace mcfs
