// Solves an MCFS instance on a city network, prints the solution
// analytics, and exports plot-ready CSV layers (Figure-1-style):
//   <prefix>_customers.csv    x,y,assigned_facility,distance
//   <prefix>_facilities.csv   x,y,selected,load,capacity
//   <prefix>_edges.csv        x1,y1,x2,y2        (road segments)
// plus the instance/solution in the library's text formats, so the run
// can be reloaded and re-analyzed later.
//
//   ./examples/visualize_solution [--scale=0.03] [--k=30]
//       [--prefix=/tmp/mcfs_vegas]

#include <cstdio>
#include <fstream>

#include "mcfs/common/flags.h"
#include "mcfs/core/instance_io.h"
#include "mcfs/core/solution_stats.h"
#include "mcfs/core/wma.h"
#include "mcfs/graph/graph_io.h"
#include "mcfs/graph/road_network.h"
#include "mcfs/workload/yelp_sim.h"

int main(int argc, char** argv) {
  using namespace mcfs;
  const Flags flags(argc, argv);
  const double scale = flags.GetDouble("scale", 0.03);
  const uint64_t seed = static_cast<uint64_t>(flags.GetInt("seed", 42));
  const std::string prefix = flags.GetString("prefix", "/tmp/mcfs_vegas");

  const Graph city = GenerateCity(LasVegasPreset(scale, seed));
  YelpSimOptions yelp;
  yelp.num_venues = std::min(city.NumNodes() / 4, 250);
  yelp.num_customers = 300;
  yelp.seed = seed + 1;
  const CoworkingScenario scenario = GenerateCoworkingScenario(city, yelp);

  McfsInstance instance;
  instance.graph = &city;
  instance.customers = scenario.customers;
  instance.facility_nodes = scenario.venues;
  instance.capacities = scenario.capacities;
  instance.k = static_cast<int>(flags.GetInt("k", 60));

  const WmaResult result = RunWma(instance);
  std::printf("solved: objective %.0f m over %d customers (feasible=%s)\n",
              result.solution.objective, instance.m(),
              result.solution.feasible ? "yes" : "no");
  const SolutionStats stats =
      ComputeSolutionStats(instance, result.solution);
  std::printf("%s\n", FormatSolutionStats(stats).c_str());

  // --- CSV layers ---
  {
    std::ofstream out(prefix + "_customers.csv");
    out << "x,y,assigned_facility,distance\n";
    for (int i = 0; i < instance.m(); ++i) {
      const Point& p = city.coordinate(instance.customers[i]);
      out << p.x << ',' << p.y << ',' << result.solution.assignment[i]
          << ',' << result.solution.distances[i] << '\n';
    }
  }
  {
    std::vector<uint8_t> selected(instance.l(), 0);
    std::vector<int> load(instance.l(), 0);
    for (const int j : result.solution.selected) selected[j] = 1;
    for (const int j : result.solution.assignment) {
      if (j >= 0) load[j]++;
    }
    std::ofstream out(prefix + "_facilities.csv");
    out << "x,y,selected,load,capacity\n";
    for (int j = 0; j < instance.l(); ++j) {
      const Point& p = city.coordinate(instance.facility_nodes[j]);
      out << p.x << ',' << p.y << ',' << static_cast<int>(selected[j])
          << ',' << load[j] << ',' << instance.capacities[j] << '\n';
    }
  }
  {
    std::ofstream out(prefix + "_edges.csv");
    out << "x1,y1,x2,y2\n";
    for (NodeId u = 0; u < city.NumNodes(); ++u) {
      const Point& a = city.coordinate(u);
      for (const AdjEntry& e : city.Neighbors(u)) {
        if (u < e.to) {
          const Point& b = city.coordinate(e.to);
          out << a.x << ',' << a.y << ',' << b.x << ',' << b.y << '\n';
        }
      }
    }
  }

  // --- reloadable artifacts ---
  for (const Status& written :
       {WriteGraph(city, prefix + ".graph"),
        WriteInstance(instance, prefix + ".instance"),
        WriteSolution(result.solution, prefix + ".solution")}) {
    if (!written.ok()) {
      std::fprintf(stderr, "export failed: %s\n",
                   written.ToString().c_str());
      return 1;
    }
  }
  std::printf("exported %s_{customers,facilities,edges}.csv and "
              "%s.{graph,instance,solution}\n",
              prefix.c_str(), prefix.c_str());
  return 0;
}
