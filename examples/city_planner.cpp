// A small CLI around the whole library: generate (or load) a road
// network, place customers and capacitated candidate facilities, solve
// with the algorithm of your choice, and optionally persist the network
// for later runs.
//
//   ./examples/city_planner --city=aalborg --scale=0.05 --m=256 --k=25
//       --algorithm=wma [--capacity=20] [--save=net.graph]
//   ./examples/city_planner --load=net.graph --m=128 --k=12
//       --algorithm=hilbert
//   ./examples/city_planner --route_from=3 --route_to=700
//
// Cities: aalborg | riga | copenhagen | lasvegas
// Algorithms: wma | uf | naive | hilbert | brnn | kmedian | exact
//
// Bad input (an unknown city or algorithm, a --scale outside (0, 1], a
// route endpoint outside the network, m outside [1, n], an invalid or
// infeasible instance) prints a message and exits 2, as a malformed flag
// value does.

#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>

#include "mcfs/baselines/brnn.h"
#include "mcfs/baselines/hilbert_baseline.h"
#include "mcfs/common/flags.h"
#include "mcfs/common/timer.h"
#include "mcfs/baselines/greedy_kmedian.h"
#include "mcfs/core/validate.h"
#include "mcfs/core/wma.h"
#include "mcfs/exact/bb_solver.h"
#include "mcfs/graph/contraction_hierarchy.h"
#include "mcfs/graph/graph_io.h"
#include "mcfs/graph/road_network.h"
#include "mcfs/workload/workload.h"

namespace {

std::optional<mcfs::CityOptions> PresetFor(const std::string& name,
                                           double scale, uint64_t seed) {
  if (name == "aalborg") return mcfs::AalborgPreset(scale, seed);
  if (name == "riga") return mcfs::RigaPreset(scale, seed);
  if (name == "copenhagen") return mcfs::CopenhagenPreset(scale, seed);
  if (name == "lasvegas") return mcfs::LasVegasPreset(scale, seed);
  return std::nullopt;
}

bool KnownAlgorithm(const std::string& name) {
  for (const char* known :
       {"wma", "uf", "naive", "hilbert", "brnn", "kmedian", "exact"}) {
    if (name == known) return true;
  }
  return false;
}

// Prints `message` and exits 2, the exit code Flags uses for a
// malformed flag value.
[[noreturn]] void BadInput(const std::string& message) {
  std::fprintf(stderr, "%s\n", message.c_str());
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace mcfs;
  const Flags flags(argc, argv);
  const uint64_t seed = static_cast<uint64_t>(flags.GetInt("seed", 42));
  const std::string algorithm = flags.GetString("algorithm", "wma");
  if (!KnownAlgorithm(algorithm)) {
    BadInput("unknown --algorithm=" + algorithm +
             " (wma | uf | naive | hilbert | brnn | kmedian | exact)");
  }

  // Obtain the network.
  Graph city;
  const std::string load_path = flags.GetString("load", "");
  if (!load_path.empty()) {
    std::optional<Graph> loaded = LoadGraph(load_path);
    if (!loaded.has_value()) {
      std::fprintf(stderr, "could not load %s\n", load_path.c_str());
      return 1;
    }
    city = std::move(*loaded);
    std::printf("loaded %s: %d nodes, %lld edges\n", load_path.c_str(),
                city.NumNodes(), static_cast<long long>(city.NumEdges()));
  } else {
    const std::string city_name = flags.GetString("city", "aalborg");
    const double scale = flags.GetDouble("scale", 0.05);
    if (!(scale > 0.0 && scale <= 1.0)) {  // also rejects nan
      BadInput("--scale=" + flags.GetString("scale", "") +
               " is outside (0, 1]");
    }
    const std::optional<CityOptions> preset =
        PresetFor(city_name, scale, seed);
    if (!preset.has_value()) {
      BadInput("unknown --city=" + city_name +
               " (aalborg | riga | copenhagen | lasvegas)");
    }
    city = GenerateCity(*preset);
    std::printf("%s (scaled): %d nodes, %lld edges, avg degree %.2f\n",
                preset->name.c_str(), city.NumNodes(),
                static_cast<long long>(city.NumEdges()),
                city.AverageDegree());
  }
  const std::string save_path = flags.GetString("save", "");
  if (!save_path.empty() && SaveGraph(city, save_path)) {
    std::printf("saved network to %s\n", save_path.c_str());
  }

  // Optional point-to-point routing demo (contraction hierarchy).
  if (flags.Has("route_from") && flags.Has("route_to")) {
    const int64_t from = flags.GetInt("route_from", 0);
    const int64_t to = flags.GetInt("route_to", 0);
    for (const int64_t endpoint : {from, to}) {
      if (endpoint < 0 || endpoint >= city.NumNodes()) {
        BadInput("route endpoint " + std::to_string(endpoint) +
                 " out of range [0, " + std::to_string(city.NumNodes()) +
                 ")");
      }
    }
    const ContractionHierarchy router(&city);
    const double distance = router.Distance(static_cast<NodeId>(from),
                                            static_cast<NodeId>(to));
    std::printf("route %lld -> %lld: %.1f m (CH settled %lld nodes)\n",
                static_cast<long long>(from), static_cast<long long>(to),
                distance,
                static_cast<long long>(router.last_settled_count()));
  }

  // Build the instance.
  Rng rng(seed + 1);
  McfsInstance instance;
  instance.graph = &city;
  const int64_t m64 = flags.GetInt("m", 256);
  if (m64 < 1 || m64 > city.NumNodes()) {
    BadInput("--m=" + std::to_string(m64) + " out of range [1, " +
             std::to_string(city.NumNodes()) + "] for this network");
  }
  const int m = static_cast<int>(m64);
  const int capacity = static_cast<int>(flags.GetInt("capacity", 20));
  instance.customers = SampleDistinctNodes(city, m, rng);
  instance.facility_nodes = SampleDistinctNodes(city, city.NumNodes(), rng);
  instance.capacities = UniformCapacities(city.NumNodes(), capacity);
  instance.k = static_cast<int>(flags.GetInt("k", std::max(1, m / 10)));
  std::printf("instance: m=%d, l=%d, k=%d, c=%d, occupancy=%.2f\n",
              instance.m(), instance.l(), instance.k, capacity,
              instance.Occupancy());
  const Status valid = ValidateInstance(instance);
  if (!valid.ok()) BadInput("cannot solve: " + valid.ToString());

  // Solve.
  WallTimer timer;
  McfsSolution solution;
  if (algorithm == "hilbert") {
    solution = RunHilbertBaseline(instance);
  } else if (algorithm == "brnn") {
    solution = RunBrnnBaseline(instance);
  } else if (algorithm == "uf") {
    solution = RunUniformFirstWma(instance).solution;
  } else if (algorithm == "kmedian") {
    solution = RunGreedyKMedian(instance);
  } else if (algorithm == "naive") {
    WmaOptions options;
    options.naive = true;
    solution = RunWma(instance, options).solution;
  } else if (algorithm == "exact") {
    ExactOptions options;
    options.time_limit_seconds = flags.GetDouble("exact_seconds", 60.0);
    const ExactResult exact = SolveExact(instance, options);
    if (exact.failed) {
      std::printf("exact solver exceeded its budget after %lld nodes\n",
                  static_cast<long long>(exact.nodes_explored));
    }
    solution = exact.solution;
  } else {  // wma
    solution = RunWma(instance).solution;
  }
  const double seconds = timer.Seconds();

  const ValidationResult validation =
      ValidateSolution(instance, solution, /*check_distances=*/false);
  std::printf("%s: objective %.0f m, %zu facilities, %s, %s, %.2f s\n",
              algorithm.c_str(), solution.objective,
              solution.selected.size(),
              solution.feasible ? "feasible" : "infeasible",
              validation.ok ? "valid" : validation.message.c_str(),
              seconds);
  return 0;
}
