#include "mcfs/baselines/hilbert_baseline.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "mcfs/common/check.h"
#include "mcfs/core/repair.h"
#include "mcfs/graph/dijkstra.h"
#include "mcfs/graph/spatial_index.h"
#include "mcfs/hilbert/hilbert.h"

namespace mcfs {

namespace {
constexpr int kHilbertOrder = 16;
}  // namespace

McfsSolution RunHilbertBaseline(const McfsInstance& instance) {
  MCFS_CHECK(instance.graph->has_coordinates())
      << "the Hilbert baseline sorts by coordinates";
  const Graph& graph = *instance.graph;
  const int m = instance.m();
  const int l = instance.l();

  // Bounding box for the Hilbert grid.
  double min_x = kInfDistance;
  double min_y = kInfDistance;
  double max_x = -kInfDistance;
  double max_y = -kInfDistance;
  for (const Point& p : graph.coordinates()) {
    min_x = std::min(min_x, p.x);
    min_y = std::min(min_y, p.y);
    max_x = std::max(max_x, p.x);
    max_y = std::max(max_y, p.y);
  }
  const double extent = std::max({max_x - min_x, max_y - min_y, 1e-9});

  // Partition customers and facilities by connected component.
  const ComponentLabeling& components = graph.components();
  std::vector<std::vector<int>> customers_in(components.num_components);
  std::vector<std::vector<int>> facilities_in(components.num_components);
  for (int i = 0; i < m; ++i) {
    customers_in[components.component_of[instance.customers[i]]].push_back(i);
  }
  for (int j = 0; j < l; ++j) {
    facilities_in[components.component_of[instance.facility_nodes[j]]]
        .push_back(j);
  }

  // Allot facilities per component proportionally to customer counts
  // (largest remainder method), at least one per populated component and
  // never more than a component offers.
  std::vector<int> quota(components.num_components, 0);
  {
    std::vector<std::pair<double, int>> remainders;
    int allotted = 0;
    for (int g = 0; g < components.num_components; ++g) {
      if (customers_in[g].empty() || facilities_in[g].empty()) continue;
      const double share =
          static_cast<double>(instance.k) * customers_in[g].size() / m;
      quota[g] = std::max(
          1, std::min<int>(static_cast<int>(share),
                           static_cast<int>(facilities_in[g].size())));
      allotted += quota[g];
      remainders.push_back({share - quota[g], g});
    }
    std::sort(remainders.begin(), remainders.end(),
              [](const auto& a, const auto& b) { return a.first > b.first; });
    for (const auto& [frac, g] : remainders) {
      (void)frac;
      if (allotted >= instance.k) break;
      if (quota[g] < static_cast<int>(facilities_in[g].size())) {
        quota[g]++;
        allotted++;
      }
    }
    // Spread any remaining budget wherever capacity of the quota allows.
    for (int g = 0; g < components.num_components && allotted < instance.k;
         ++g) {
      while (allotted < instance.k &&
             quota[g] < static_cast<int>(facilities_in[g].size())) {
        quota[g]++;
        allotted++;
      }
    }
    // More populated components than budget (infeasible instance):
    // trim the smallest components' quotas so at most k are selected.
    while (allotted > instance.k) {
      int victim = -1;
      for (int g = 0; g < components.num_components; ++g) {
        if (quota[g] == 0) continue;
        if (victim == -1 ||
            customers_in[g].size() < customers_in[victim].size()) {
          victim = g;
        }
      }
      quota[victim]--;
      allotted--;
    }
  }

  // Geometric index over the candidate facility coordinates for the
  // centroid -> nearest-facility lookups.
  std::vector<Point> facility_points;
  facility_points.reserve(l);
  for (int j = 0; j < l; ++j) {
    facility_points.push_back(graph.coordinate(instance.facility_nodes[j]));
  }
  const SpatialGridIndex facility_index(std::move(facility_points));

  std::vector<int> selected;
  std::vector<uint8_t> used(l, 0);
  for (int g = 0; g < components.num_components; ++g) {
    if (quota[g] == 0) continue;
    auto& customers = customers_in[g];
    // Sort the component's customers along the Hilbert curve.
    std::sort(customers.begin(), customers.end(), [&](int a, int b) {
      const Point& pa = graph.coordinate(instance.customers[a]);
      const Point& pb = graph.coordinate(instance.customers[b]);
      return HilbertIndexForPoint(kHilbertOrder, pa.x, pa.y, min_x, min_y,
                                  extent) <
             HilbertIndexForPoint(kHilbertOrder, pb.x, pb.y, min_x, min_y,
                                  extent);
    });
    const int bucket_size = static_cast<int>(
        std::ceil(static_cast<double>(customers.size()) / quota[g]));
    for (int b = 0; b < quota[g]; ++b) {
      const int lo = b * bucket_size;
      if (lo >= static_cast<int>(customers.size())) break;
      const int hi =
          std::min<int>(lo + bucket_size, static_cast<int>(customers.size()));
      Point centroid{0.0, 0.0};
      for (int idx = lo; idx < hi; ++idx) {
        const Point& p = graph.coordinate(instance.customers[customers[idx]]);
        centroid.x += p.x;
        centroid.y += p.y;
      }
      centroid.x /= (hi - lo);
      centroid.y /= (hi - lo);
      // Nearest unused candidate facility of this component (Euclidean —
      // the baseline deliberately ignores network distances here).
      const int best = facility_index.NearestNeighborIf(
          centroid, [&](int j) {
            return !used[j] &&
                   components.component_of[instance.facility_nodes[j]] == g;
          });
      if (best != -1) {
        used[best] = 1;
        selected.push_back(best);
      }
    }
  }

  // Feasibility repair and one optimal matching step.
  if (selected.empty()) {
    SelectGreedy(instance, selected);
  }
  CoverComponents(instance, selected);
  return AssignOptimally(instance, selected, /*threads=*/1);
}

}  // namespace mcfs
