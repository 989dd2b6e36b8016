#include "mcfs/core/instance_io.h"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <fstream>

#include "mcfs/core/verifier.h"
#include "mcfs/core/wma.h"
#include "mcfs/graph/graph_io.h"
#include "mcfs/graph/road_network.h"
#include "mcfs/workload/workload.h"
#include "tests/test_util.h"

namespace mcfs {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

uint64_t Bits(double value) { return std::bit_cast<uint64_t>(value); }

TEST(InstanceIoTest, RoundTripsInstance) {
  Rng rng(3);
  testing_util::RandomInstance ri =
      testing_util::MakeRandomInstance(40, 10, 8, 4, 5, rng);
  const std::string path = TempPath("instance.mcfs");
  ASSERT_TRUE(WriteInstance(ri.instance, path).ok());
  const StatusOr<McfsInstance> loaded = ReadInstance(&ri.graph, path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->customers, ri.instance.customers);
  EXPECT_EQ(loaded->facility_nodes, ri.instance.facility_nodes);
  EXPECT_EQ(loaded->capacities, ri.instance.capacities);
  EXPECT_EQ(loaded->k, ri.instance.k);
  // Both instances solve to the same objective.
  const McfsSolution a = RunWma(ri.instance).solution;
  const McfsSolution b = RunWma(*loaded).solution;
  EXPECT_NEAR(a.objective, b.objective, 1e-9);
}

TEST(InstanceIoTest, RoundTripsSolution) {
  Rng rng(4);
  testing_util::RandomInstance ri =
      testing_util::MakeRandomInstance(40, 10, 8, 4, 5, rng);
  const McfsSolution solution = RunWma(ri.instance).solution;
  const std::string path = TempPath("solution.mcfs");
  ASSERT_TRUE(WriteSolution(solution, path).ok());
  const StatusOr<McfsSolution> loaded = ReadSolution(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->selected, solution.selected);
  EXPECT_EQ(loaded->assignment, solution.assignment);
  EXPECT_EQ(loaded->feasible, solution.feasible);
  EXPECT_NEAR(loaded->objective, solution.objective, 1e-9);
  // A loaded solution still verifies against the original instance.
  EXPECT_TRUE(VerifySolution(ri.instance, *loaded).ok);
}

// On a generated city the distances and the objective are not short
// decimals; the graph, instance and solution files must still carry
// every bit of them.
TEST(InstanceIoTest, RoundTripIsExactOnGeneratedCity) {
  const Graph city = GenerateCity(AalborgPreset(0.02, 42));
  Rng rng(8);
  McfsInstance instance;
  instance.graph = &city;
  instance.customers = SampleDistinctNodes(city, 120, rng);
  instance.facility_nodes = SampleDistinctNodes(city, 60, rng);
  instance.capacities = UniformCapacities(60, 6);
  instance.k = 24;
  const McfsSolution solution = RunWma(instance).solution;
  ASSERT_TRUE(solution.feasible);

  const std::string prefix = TempPath("exact_city");
  ASSERT_TRUE(WriteGraph(city, prefix + ".graph").ok());
  ASSERT_TRUE(WriteInstance(instance, prefix + ".instance").ok());
  ASSERT_TRUE(WriteSolution(solution, prefix + ".solution").ok());
  const StatusOr<Graph> city2 = ReadGraph(prefix + ".graph");
  ASSERT_TRUE(city2.ok()) << city2.status().ToString();
  const StatusOr<McfsInstance> instance2 =
      ReadInstance(&*city2, prefix + ".instance");
  ASSERT_TRUE(instance2.ok()) << instance2.status().ToString();
  const StatusOr<McfsSolution> solution2 =
      ReadSolution(prefix + ".solution");
  ASSERT_TRUE(solution2.ok()) << solution2.status().ToString();

  EXPECT_EQ(Bits(solution2->objective), Bits(solution.objective));
  int distance_mismatches = 0;
  for (int i = 0; i < instance.m(); ++i) {
    distance_mismatches +=
        Bits(solution2->distances[i]) != Bits(solution.distances[i]);
  }
  EXPECT_EQ(distance_mismatches, 0);
  // The reloaded network re-derives the same distances to the bit.
  const VerifyReport original = VerifySolution(instance, solution);
  const VerifyReport reloaded = VerifySolution(*instance2, *solution2);
  ASSERT_TRUE(reloaded.ok) << reloaded.ToString();
  EXPECT_EQ(Bits(reloaded.recomputed_objective),
            Bits(original.recomputed_objective));
}

TEST(InstanceIoTest, RejectsCorruptInstance) {
  Rng rng(5);
  const Graph graph = testing_util::RandomGraph(10, 5, rng);
  const std::string path = TempPath("corrupt_instance.mcfs");
  {
    std::ofstream out(path);
    out << "MCFS 1\n2 1 1\n0\n99\n0 3\n";  // customer node 99 > n
  }
  EXPECT_EQ(ReadInstance(&graph, path).status().code(),
            StatusCode::kInvalidInput);
  {
    std::ofstream out(path);
    out << "WRONG 1\n";
  }
  EXPECT_EQ(ReadInstance(&graph, path).status().code(),
            StatusCode::kInvalidInput);
  {
    std::ofstream out(path);
    out << "MCFS 2\n";  // unknown version
  }
  EXPECT_EQ(ReadInstance(&graph, path).status().code(),
            StatusCode::kInvalidInput);
  EXPECT_EQ(ReadInstance(&graph, "/no/such/file").status().code(),
            StatusCode::kIoError);
}

TEST(InstanceIoTest, RejectsCorruptSolution) {
  const std::string path = TempPath("corrupt_solution.mcfs");
  {
    std::ofstream out(path);
    out << "MCFSSOL 1\n2 1 5.0 1\n0 1\n";  // truncated assignment
  }
  EXPECT_EQ(ReadSolution(path).status().code(), StatusCode::kInvalidInput);
  EXPECT_EQ(ReadSolution("/no/such/file").status().code(),
            StatusCode::kIoError);
}

TEST(InstanceIoTest, EmptySelectionSolution) {
  McfsSolution solution;
  solution.assignment = {-1, -1};
  solution.distances = {0.0, 0.0};
  solution.feasible = false;
  const std::string path = TempPath("empty_solution.mcfs");
  ASSERT_TRUE(WriteSolution(solution, path).ok());
  const StatusOr<McfsSolution> loaded = ReadSolution(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_TRUE(loaded->selected.empty());
  EXPECT_EQ(loaded->assignment, solution.assignment);
}

}  // namespace
}  // namespace mcfs
