// Malformed-input corpus for the Status-based loaders: truncated files,
// out-of-range ids, negative/NaN weights, over-large counts, empty
// files. Every case must produce a typed Status error — never a crash —
// with a line-numbered diagnostic. A loaded solution is then checked
// against its instance by VerifyStructure.

#include <gtest/gtest.h>

#include <fstream>
#include <string>

#include "mcfs/core/instance_io.h"
#include "mcfs/core/verifier.h"
#include "mcfs/graph/graph_io.h"
#include "tests/test_util.h"

namespace mcfs {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

std::string WriteFile(const std::string& name, const std::string& content) {
  const std::string path = TempPath(name);
  std::ofstream out(path);
  out << content;
  return path;
}

// ---------------------------------------------------------------- graphs

TEST(IoRobustnessTest, GraphMissingFileIsIoError) {
  const StatusOr<Graph> graph = ReadGraph("/no/such/dir/x.graph");
  ASSERT_FALSE(graph.ok());
  EXPECT_EQ(graph.status().code(), StatusCode::kIoError);
}

TEST(IoRobustnessTest, GraphEmptyFileIsInvalidInput) {
  const StatusOr<Graph> graph = ReadGraph(WriteFile("empty.graph", ""));
  ASSERT_FALSE(graph.ok());
  EXPECT_EQ(graph.status().code(), StatusCode::kInvalidInput);
  EXPECT_NE(graph.status().message().find("empty"), std::string::npos);
}

TEST(IoRobustnessTest, GraphGarbageHeaderNamesLineOne) {
  const StatusOr<Graph> graph =
      ReadGraph(WriteFile("garbage.graph", "not a graph at all\n"));
  ASSERT_FALSE(graph.ok());
  EXPECT_EQ(graph.status().code(), StatusCode::kInvalidInput);
  EXPECT_NE(graph.status().message().find("line 1"), std::string::npos);
}

TEST(IoRobustnessTest, GraphTruncatedEdgesNameTheLine) {
  const StatusOr<Graph> graph =
      ReadGraph(WriteFile("truncated.graph", "4 3 0\n0 1 1.0\n"));
  ASSERT_FALSE(graph.ok());
  EXPECT_EQ(graph.status().code(), StatusCode::kInvalidInput);
  EXPECT_NE(graph.status().message().find("end of file"),
            std::string::npos);
}

TEST(IoRobustnessTest, GraphTruncatedCoordinates) {
  const StatusOr<Graph> graph =
      ReadGraph(WriteFile("short_coords.graph", "3 0 1\n0 0\n"));
  ASSERT_FALSE(graph.ok());
  EXPECT_EQ(graph.status().code(), StatusCode::kInvalidInput);
}

TEST(IoRobustnessTest, GraphOutOfRangeEndpoint) {
  const StatusOr<Graph> graph =
      ReadGraph(WriteFile("range.graph", "3 1 0\n0 99 1.0\n"));
  ASSERT_FALSE(graph.ok());
  EXPECT_EQ(graph.status().code(), StatusCode::kInvalidInput);
  EXPECT_NE(graph.status().message().find("line 2"), std::string::npos);
  EXPECT_NE(graph.status().message().find("out of range"),
            std::string::npos);
}

TEST(IoRobustnessTest, GraphNegativeZeroAndNanWeights) {
  for (const char* weight : {"-4.0", "0", "nan", "-nan", "inf"}) {
    const StatusOr<Graph> graph = ReadGraph(WriteFile(
        "weight.graph", std::string("3 1 0\n0 1 ") + weight + "\n"));
    ASSERT_FALSE(graph.ok()) << weight;
    EXPECT_EQ(graph.status().code(), StatusCode::kInvalidInput) << weight;
  }
}

TEST(IoRobustnessTest, GraphNanCoordinatesRejected) {
  const StatusOr<Graph> graph =
      ReadGraph(WriteFile("nan_coords.graph", "1 0 1\nnan 0\n"));
  ASSERT_FALSE(graph.ok());
  EXPECT_EQ(graph.status().code(), StatusCode::kInvalidInput);
}

TEST(IoRobustnessTest, GraphOverLargeCountsRejectedBeforeAllocation) {
  // 2^40 nodes in a 20-byte file: must fail on the header, not OOM.
  const StatusOr<Graph> graph =
      ReadGraph(WriteFile("huge.graph", "1099511627776 0 0\n"));
  ASSERT_FALSE(graph.ok());
  EXPECT_EQ(graph.status().code(), StatusCode::kInvalidInput);
  const StatusOr<Graph> edges =
      ReadGraph(WriteFile("huge_edges.graph", "2 999999999999 0\n"));
  ASSERT_FALSE(edges.ok());
  EXPECT_EQ(edges.status().code(), StatusCode::kInvalidInput);
}

TEST(IoRobustnessTest, GraphNegativeCountsRejected) {
  for (const char* header : {"-1 0 0", "2 -5 0", "2 0 7"}) {
    const StatusOr<Graph> graph =
        ReadGraph(WriteFile("neg.graph", std::string(header) + "\n"));
    ASSERT_FALSE(graph.ok()) << header;
    EXPECT_EQ(graph.status().code(), StatusCode::kInvalidInput) << header;
  }
}

// -------------------------------------------------------------- instances

class InstanceRobustnessTest : public ::testing::Test {
 protected:
  InstanceRobustnessTest() : rng_(99) {
    graph_ = testing_util::RandomGraph(10, 12, rng_);
  }
  Rng rng_;
  Graph graph_;
};

TEST_F(InstanceRobustnessTest, MissingFileIsIoError) {
  const StatusOr<McfsInstance> instance =
      ReadInstance(&graph_, "/no/such/file.mcfs");
  ASSERT_FALSE(instance.ok());
  EXPECT_EQ(instance.status().code(), StatusCode::kIoError);
}

TEST_F(InstanceRobustnessTest, EmptyAndBadMagic) {
  for (const char* content : {"", "WRONG 1\n", "MCFS 2\n", "MCFS\n"}) {
    const StatusOr<McfsInstance> instance =
        ReadInstance(&graph_, WriteFile("magic.mcfs", content));
    ASSERT_FALSE(instance.ok()) << '"' << content << '"';
    EXPECT_EQ(instance.status().code(), StatusCode::kInvalidInput);
  }
}

TEST_F(InstanceRobustnessTest, OutOfRangeCustomerNamesLine) {
  const StatusOr<McfsInstance> instance = ReadInstance(
      &graph_, WriteFile("badcust.mcfs", "MCFS 1\n2 1 1\n0\n99\n0 3\n"));
  ASSERT_FALSE(instance.ok());
  EXPECT_EQ(instance.status().code(), StatusCode::kInvalidInput);
  EXPECT_NE(instance.status().message().find("line 4"), std::string::npos);
}

TEST_F(InstanceRobustnessTest, OutOfRangeFacilityAndNegativeCapacity) {
  const StatusOr<McfsInstance> bad_node = ReadInstance(
      &graph_, WriteFile("badfac.mcfs", "MCFS 1\n1 1 1\n0\n77 3\n"));
  ASSERT_FALSE(bad_node.ok());
  EXPECT_EQ(bad_node.status().code(), StatusCode::kInvalidInput);
  const StatusOr<McfsInstance> bad_cap = ReadInstance(
      &graph_, WriteFile("badcap.mcfs", "MCFS 1\n1 1 1\n0\n2 -3\n"));
  ASSERT_FALSE(bad_cap.ok());
  EXPECT_EQ(bad_cap.status().code(), StatusCode::kInvalidInput);
  EXPECT_NE(bad_cap.status().message().find("capacity"), std::string::npos);
}

TEST_F(InstanceRobustnessTest, TruncatedAndOverLargeCounts) {
  const StatusOr<McfsInstance> truncated = ReadInstance(
      &graph_, WriteFile("trunc.mcfs", "MCFS 1\n3 1 1\n0\n1\n"));
  ASSERT_FALSE(truncated.ok());
  EXPECT_EQ(truncated.status().code(), StatusCode::kInvalidInput);
  const StatusOr<McfsInstance> huge = ReadInstance(
      &graph_, WriteFile("hugem.mcfs", "MCFS 1\n888888888888 1 1\n"));
  ASSERT_FALSE(huge.ok());
  EXPECT_EQ(huge.status().code(), StatusCode::kInvalidInput);
}

// -------------------------------------------------------------- solutions

TEST(SolutionRobustnessTest, TypedErrorsForCorruptFiles) {
  const StatusOr<McfsSolution> missing = ReadSolution("/no/such/file");
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), StatusCode::kIoError);
  struct Case {
    const char* name;
    const char* content;
  };
  const Case cases[] = {
      {"empty", ""},
      {"magic", "NOPE 1\n"},
      {"truncated header", "MCFSSOL 1\n"},
      {"bad header", "MCFSSOL 1\nx y z w\n"},
      {"nan objective", "MCFSSOL 1\n1 1 nan 1\n0\n0 1.0\n"},
      {"selected count mismatch", "MCFSSOL 1\n2 1 5.0 1\n0\n0 1.0\n"},
      {"negative selected", "MCFSSOL 1\n1 1 5.0 1\n-2\n0 1.0\n"},
      {"truncated assignments", "MCFSSOL 1\n2 3 5.0 1\n0 1\n0 1.0\n"},
      {"negative distance", "MCFSSOL 1\n1 1 5.0 1\n0\n0 -2.0\n"},
      {"nan distance", "MCFSSOL 1\n1 1 5.0 1\n0\n0 nan\n"},
      {"assignment below -1", "MCFSSOL 1\n1 1 5.0 1\n0\n-7 1.0\n"},
      {"over-large m", "MCFSSOL 1\n0 777777777777 5.0 0\n\n"},
  };
  for (const Case& c : cases) {
    const StatusOr<McfsSolution> solution =
        ReadSolution(WriteFile("sol.mcfs", c.content));
    ASSERT_FALSE(solution.ok()) << c.name;
    EXPECT_EQ(solution.status().code(), StatusCode::kInvalidInput) << c.name;
  }
}

// The solution-vs-instance consistency check: a structurally valid file
// can still disagree with the instance it is loaded for.
TEST(SolutionRobustnessTest, ConsistencyAgainstInstance) {
  Rng rng(7);
  testing_util::RandomInstance ri =
      testing_util::MakeRandomInstance(30, 12, 6, 3, 4, rng);
  const McfsSolution solution = AssignOptimally(ri.instance, {0, 1, 2});
  auto code = [&ri](const McfsSolution& candidate) {
    return VerifyStructure(ri.instance, candidate).ToStatus().code();
  };
  EXPECT_EQ(code(solution), StatusCode::kOk);

  McfsSolution wrong_m = solution;
  wrong_m.assignment.push_back(0);
  wrong_m.distances.push_back(1.0);
  EXPECT_EQ(code(wrong_m), StatusCode::kInvalidInput);

  McfsSolution over_budget = solution;
  over_budget.selected = {0, 1, 2, 3};  // k = 3
  EXPECT_EQ(code(over_budget), StatusCode::kInvalidInput);

  McfsSolution bad_index = solution;
  bad_index.selected = {0, 1, 99};  // l = 6
  EXPECT_EQ(code(bad_index), StatusCode::kInvalidInput);

  McfsSolution duplicate = solution;
  duplicate.selected = {0, 1, 1};
  EXPECT_EQ(code(duplicate), StatusCode::kInvalidInput);

  McfsSolution unselected = solution;
  unselected.assignment[0] = 5;  // facility 5 exists but is not selected
  EXPECT_EQ(code(unselected), StatusCode::kInvalidInput);

  McfsSolution out_of_range = solution;
  out_of_range.assignment[0] = 42;
  EXPECT_EQ(code(out_of_range), StatusCode::kInvalidInput);

  // An unassigned customer is consistent once the solution says so.
  McfsSolution unassigned = solution;
  unassigned.objective -= unassigned.distances[0];
  unassigned.assignment[0] = -1;
  unassigned.distances[0] = 0.0;
  unassigned.feasible = false;
  EXPECT_EQ(code(unassigned), StatusCode::kOk);
}

// Round trips still work through the Status API.
TEST(SolutionRobustnessTest, StatusApiRoundTrip) {
  Rng rng(21);
  const Graph graph = testing_util::RandomGraph(15, 20, rng);
  const std::string gpath = TempPath("rt.graph");
  ASSERT_TRUE(WriteGraph(graph, gpath).ok());
  const StatusOr<Graph> loaded = ReadGraph(gpath);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->NumNodes(), graph.NumNodes());
  EXPECT_EQ(loaded->NumEdges(), graph.NumEdges());
}

}  // namespace
}  // namespace mcfs
