// Reproduces Figure 5: example point distributions used to generate the
// synthetic networks — a uniform scatter and clustered scatters with
// 40, 20 and 5 clusters on the 10^3 x 10^3 square. The paper shows
// scatter plots; we report their summary statistics (and optionally
// dump the points as CSV for plotting with --dump_prefix=PATH).

#include <cmath>
#include <fstream>

#include "bench/bench_util.h"
#include "mcfs/graph/dijkstra.h"
#include "mcfs/graph/generators.h"

namespace mcfs {
namespace {

// Mean distance of a point to the overall centroid: uniform data on the
// unit square yields ~0.3825 * side; clustering reduces within-cluster
// spread, which we report via mean nearest-neighbor distance instead.
double MeanNearestNeighborDistance(const std::vector<Point>& points) {
  double total = 0.0;
  // O(n^2) is fine at the figure's 10^4 points (scaled down by default).
  for (size_t i = 0; i < points.size(); ++i) {
    double best = kInfDistance;
    for (size_t j = 0; j < points.size(); ++j) {
      if (i == j) continue;
      best = std::min(best, EuclideanDistance(points[i], points[j]));
    }
    total += best;
  }
  return total / points.size();
}

void MaybeDump(const std::vector<Point>& points, const std::string& prefix,
               const std::string& name) {
  if (prefix.empty()) return;
  std::ofstream out(prefix + name + ".csv");
  out << "x,y\n";
  for (const Point& p : points) out << p.x << ',' << p.y << '\n';
}

}  // namespace
}  // namespace mcfs

int main(int argc, char** argv) {
  using namespace mcfs;
  const Flags flags(argc, argv);
  const auto bench = bench_util::BenchConfig::FromFlags(flags, 0.2);
  bench_util::Banner("Figure 5: synthetic point distributions", bench);
  const int n = std::max(200, static_cast<int>(10000 * bench.scale));
  const std::string dump_prefix = flags.GetString("dump_prefix", "");

  Table table({"distribution", "points", "mean NN distance",
               "resulting avg degree (alpha=2)"});
  for (const int clusters : {40, 20, 5, 0}) {
    Rng rng(bench.seed + clusters);
    std::vector<Point> points;
    std::string name;
    if (clusters == 0) {
      points = GenerateUniformPoints(n, 1000.0, rng);
      name = "uniform";
    } else {
      const double sigma = 0.5 * 1000.0 * std::sqrt(1.0 / clusters);
      points = GenerateClusteredPoints(n, clusters, 1000.0, sigma, rng);
      name = std::to_string(clusters) + " clusters";
    }
    SyntheticNetworkOptions options;
    options.num_nodes = n;
    options.alpha = 2.0;
    options.num_clusters = clusters;
    options.seed = bench.seed + clusters;
    const Graph graph = GenerateSyntheticNetwork(options);
    table.AddRow({name, FmtInt(n),
                  FmtDouble(MeanNearestNeighborDistance(points), 2),
                  FmtDouble(graph.AverageDegree(), 2)});
    MaybeDump(points, dump_prefix,
              std::string("_").append(std::to_string(clusters)));
  }
  table.Print();
  return 0;
}
