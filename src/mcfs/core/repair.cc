#include "mcfs/core/repair.h"

#include <algorithm>
#include <numeric>

#include "mcfs/common/check.h"
#include "mcfs/graph/dijkstra.h"

namespace mcfs {

void SelectGreedy(const McfsInstance& instance, std::vector<int>& selected) {
  const int l = instance.l();
  auto below_budget = [&] {
    const int size = static_cast<int>(selected.size());
    return size < instance.k && size < l;
  };
  if (!below_budget()) return;
  std::vector<uint8_t> is_selected(l, 0);
  for (const int j : selected) is_selected[j] = 1;
  std::vector<int> facility_index_of_node(instance.graph->NumNodes(), -1);
  for (int j = 0; j < l; ++j) {
    facility_index_of_node[instance.facility_nodes[j]] = j;
  }

  // Distance of every node to its nearest selected facility: one
  // multi-source run over the starting selection, then lowered by a
  // pruned search from each added facility (bit-identical to a fresh
  // MultiSourceDijkstra over the grown selection).
  std::vector<NodeId> sources;
  sources.reserve(selected.size());
  for (const int j : selected) sources.push_back(instance.facility_nodes[j]);
  std::vector<double> nearest =
      MultiSourceDijkstra(*instance.graph, sources).distance;

  std::vector<std::pair<double, int>> by_distance;
  by_distance.reserve(instance.m());
  while (true) {
    by_distance.clear();
    for (int i = 0; i < instance.m(); ++i) {
      by_distance.push_back({nearest[instance.customers[i]], i});
    }
    std::sort(by_distance.begin(), by_distance.end(),
              [](const auto& a, const auto& b) { return a.first > b.first; });

    int added = -1;
    for (const auto& [dist, customer] : by_distance) {
      (void)dist;
      IncrementalDijkstra dijkstra(instance.graph,
                                   instance.customers[customer]);
      while (std::optional<SettledNode> s = dijkstra.NextSettled()) {
        const int j = facility_index_of_node[s->node];
        if (j >= 0 && !is_selected[j]) {
          added = j;
          break;
        }
      }
      if (added != -1) break;
    }
    if (added == -1) {
      // No unselected facility reachable from any customer; fill the
      // budget with arbitrary unselected candidates.
      for (int j = 0; j < l && added == -1; ++j) {
        if (!is_selected[j]) added = j;
      }
      if (added == -1) return;
    }
    selected.push_back(added);
    is_selected[added] = 1;
    if (!below_budget()) return;
    AddMultiSource(*instance.graph, instance.facility_nodes[added], nearest);
  }
}

namespace {

// Direct reconstruction used when the swap loop of Algorithm 5 stalls:
// per component, pick the largest-capacity facilities (preferring ones
// already selected) until the component's customers fit, then top up to
// the original selection size. Returns false when infeasible.
bool DirectConstruct(const McfsInstance& instance,
                     const ComponentLabeling& components,
                     std::vector<int>& selected) {
  const int l = instance.l();
  const size_t target = selected.size();
  std::vector<uint8_t> was_selected(l, 0);
  for (const int j : selected) was_selected[j] = 1;

  std::vector<int64_t> customers_in(components.num_components, 0);
  for (const NodeId c : instance.customers) {
    customers_in[components.component_of[c]]++;
  }
  std::vector<std::vector<int>> facilities_in(components.num_components);
  for (int j = 0; j < l; ++j) {
    facilities_in[components.component_of[instance.facility_nodes[j]]]
        .push_back(j);
  }

  std::vector<int> result;
  std::vector<uint8_t> used(l, 0);
  for (int g = 0; g < components.num_components; ++g) {
    if (customers_in[g] == 0) continue;
    auto& candidates = facilities_in[g];
    std::sort(candidates.begin(), candidates.end(), [&](int a, int b) {
      if (instance.capacities[a] != instance.capacities[b]) {
        return instance.capacities[a] > instance.capacities[b];
      }
      if (was_selected[a] != was_selected[b]) {
        return was_selected[a] > was_selected[b];
      }
      return a < b;
    });
    int64_t remaining = customers_in[g];
    for (const int j : candidates) {
      if (remaining <= 0) break;
      result.push_back(j);
      used[j] = 1;
      remaining -= instance.capacities[j];
    }
    if (remaining > 0) return false;
  }
  if (result.size() > target) return false;
  // Top back up to the original size, preferring prior selections.
  for (const int j : selected) {
    if (result.size() >= target) break;
    if (!used[j]) {
      result.push_back(j);
      used[j] = 1;
    }
  }
  for (int j = 0; j < l && result.size() < target; ++j) {
    if (!used[j]) {
      result.push_back(j);
      used[j] = 1;
    }
  }
  selected = std::move(result);
  return true;
}

}  // namespace

bool CoverComponents(const McfsInstance& instance,
                     std::vector<int>& selected) {
  const ComponentLabeling& components = instance.graph->components();
  const int l = instance.l();
  std::vector<uint8_t> is_selected(l, 0);
  for (const int j : selected) is_selected[j] = 1;

  std::vector<int64_t> surplus(components.num_components, 0);
  for (const NodeId c : instance.customers) {
    surplus[components.component_of[c]]--;
  }
  auto component_of_facility = [&](int j) {
    return components.component_of[instance.facility_nodes[j]];
  };
  for (const int j : selected) {
    surplus[component_of_facility(j)] += instance.capacities[j];
  }

  const int max_swaps = 4 * l + 16;
  for (int swap = 0; swap < max_swaps; ++swap) {
    int g_min = -1;
    int g_max = -1;
    for (int g = 0; g < components.num_components; ++g) {
      if (surplus[g] < 0 && (g_min == -1 || surplus[g] < surplus[g_min])) {
        g_min = g;
      }
    }
    if (g_min == -1) break;  // every component is covered

    // Donor: the highest-surplus component that still has a selected
    // facility to give away.
    int f_out = -1;
    for (int j = 0; j < l; ++j) {
      if (!is_selected[j]) continue;
      const int g = component_of_facility(j);
      if (g == g_min) continue;
      if (g_max == -1 || surplus[g] > surplus[g_max] ||
          (surplus[g] == surplus[g_max] &&
           instance.capacities[j] < instance.capacities[f_out])) {
        g_max = g;
        f_out = j;
      } else if (g == g_max &&
                 instance.capacities[j] < instance.capacities[f_out]) {
        f_out = j;
      }
    }
    int f_in = -1;
    for (int j = 0; j < l; ++j) {
      if (is_selected[j] || component_of_facility(j) != g_min) continue;
      if (f_in == -1 || instance.capacities[j] > instance.capacities[f_in]) {
        f_in = j;
      }
    }
    if (f_out == -1 || f_in == -1) break;  // swap loop stalled
    is_selected[f_out] = 0;
    is_selected[f_in] = 1;
    surplus[g_max] -= instance.capacities[f_out];
    surplus[g_min] += instance.capacities[f_in];
  }

  // Rebuild `selected` from the bitmap if the loop made progress, then
  // verify; otherwise fall back to the direct construction.
  std::vector<int> revised;
  for (int j = 0; j < l; ++j) {
    if (is_selected[j]) revised.push_back(j);
  }
  bool all_covered = true;
  {
    std::vector<int64_t> check(components.num_components, 0);
    for (const NodeId c : instance.customers) {
      check[components.component_of[c]]--;
    }
    for (const int j : revised) {
      check[component_of_facility(j)] += instance.capacities[j];
    }
    for (const int64_t s : check) all_covered = all_covered && s >= 0;
  }
  if (all_covered) {
    selected = std::move(revised);
    return true;
  }
  return DirectConstruct(instance, components, selected);
}

}  // namespace mcfs
