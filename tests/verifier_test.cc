// Independent verifier: accepts genuine solver output and rejects every
// kind of tampering — wrong distances, inflated objectives, capacity
// overloads, unselected assignments, and budget violations.

#include <gtest/gtest.h>

#include "mcfs/core/verifier.h"
#include "mcfs/core/wma.h"
#include "mcfs/obs/metrics.h"
#include "tests/test_util.h"

namespace mcfs {
namespace {

class VerifierTest : public ::testing::Test {
 protected:
  VerifierTest()
      : rng_(42),
        ri_(testing_util::MakeRandomInstance(60, 25, 10, 5, 6, rng_)) {
    ri_.instance.graph = &ri_.graph;  // re-point after relocation
    WmaOptions options;
    solution_ = RunWma(ri_.instance, options).solution;
  }
  Rng rng_;
  testing_util::RandomInstance ri_;
  McfsSolution solution_;
};

TEST_F(VerifierTest, AcceptsWmaOutput) {
  ASSERT_TRUE(solution_.feasible);
  const VerifyReport report = VerifySolution(ri_.instance, solution_);
  EXPECT_TRUE(report.ok) << report.ToString();
  EXPECT_TRUE(report.ToStatus().ok());
  EXPECT_EQ(report.customers_checked, ri_.instance.m());
  EXPECT_EQ(report.dijkstra_runs,
            static_cast<int>(solution_.selected.size()));
  EXPECT_NEAR(report.recomputed_objective, solution_.objective, 1e-6);
}

TEST_F(VerifierTest, RejectsTamperedDistance) {
  McfsSolution tampered = solution_;
  tampered.distances[0] += 3.5;
  const VerifyReport report = VerifySolution(ri_.instance, tampered);
  EXPECT_FALSE(report.ok);
  EXPECT_EQ(report.ToStatus().code(), StatusCode::kInvalidInput);
}

TEST_F(VerifierTest, RejectsTamperedObjective) {
  McfsSolution tampered = solution_;
  tampered.objective *= 0.5;
  const VerifyReport report = VerifySolution(ri_.instance, tampered);
  EXPECT_FALSE(report.ok);
  ASSERT_FALSE(report.failures.empty());
  EXPECT_NE(report.failures[0].find("objective"), std::string::npos);
}

TEST_F(VerifierTest, RejectsCapacityOverload) {
  // Funnel every customer into the first selected facility.
  McfsSolution tampered = solution_;
  const int target = tampered.selected[0];
  for (int i = 0; i < ri_.instance.m(); ++i) {
    tampered.assignment[i] = target;
  }
  const VerifyReport report = VerifySolution(ri_.instance, tampered);
  EXPECT_FALSE(report.ok);
  bool saw_capacity = false;
  for (const std::string& f : report.failures) {
    if (f.find("capacity") != std::string::npos) saw_capacity = true;
  }
  EXPECT_TRUE(saw_capacity) << report.ToString();
}

TEST_F(VerifierTest, RejectsAssignmentToUnselectedFacility) {
  McfsSolution tampered = solution_;
  int unselected = -1;
  for (int j = 0; j < ri_.instance.l(); ++j) {
    bool used = false;
    for (const int s : tampered.selected) used |= (s == j);
    if (!used) {
      unselected = j;
      break;
    }
  }
  ASSERT_NE(unselected, -1);
  tampered.assignment[0] = unselected;
  EXPECT_FALSE(VerifySolution(ri_.instance, tampered).ok);
}

TEST_F(VerifierTest, RejectsBudgetViolationAndDuplicates) {
  McfsSolution over = solution_;
  over.selected.assign(ri_.instance.k + 1, 0);
  for (int s = 0; s <= ri_.instance.k; ++s) over.selected[s] = s;
  EXPECT_FALSE(VerifySolution(ri_.instance, over).ok);

  McfsSolution duplicated = solution_;
  ASSERT_GE(duplicated.selected.size(), 2u);
  duplicated.selected[1] = duplicated.selected[0];
  EXPECT_FALSE(VerifySolution(ri_.instance, duplicated).ok);
}

TEST_F(VerifierTest, RejectsShapeMismatch) {
  McfsSolution tampered = solution_;
  tampered.assignment.pop_back();
  const VerifyReport report = VerifySolution(ri_.instance, tampered);
  EXPECT_FALSE(report.ok);
  EXPECT_EQ(report.dijkstra_runs, 0);
}

TEST_F(VerifierTest, FlagsFeasibleMarkWithUnassignedCustomer) {
  McfsSolution tampered = solution_;
  tampered.objective -= tampered.distances[0];
  tampered.assignment[0] = -1;
  tampered.distances[0] = 0.0;
  EXPECT_FALSE(VerifySolution(ri_.instance, tampered).ok);

  tampered.feasible = false;  // honest about the gap -> accepted
  EXPECT_TRUE(VerifySolution(ri_.instance, tampered).ok);
  VerifyOptions strict;
  strict.require_all_assigned = true;
  EXPECT_FALSE(VerifySolution(ri_.instance, tampered, strict).ok);
}

// The full mode reads each facility's Dijkstra into its customers'
// distances facility by facility; the order of `selected` must not
// matter, including when it differs from the order in which customers
// first name their facilities.
TEST(VerifierOrderTest, SelectionOrderDiffersFromAssignmentOrder) {
  GraphBuilder builder(5);  // path 0 - 1 - 2 - 3 - 4, unit weights
  for (int v = 1; v < 5; ++v) builder.AddEdge(v - 1, v, 1.0);
  const Graph graph = builder.Build();
  McfsInstance instance;
  instance.graph = &graph;
  instance.customers = {1, 3, 2};
  instance.facility_nodes = {0, 4, 2};
  instance.capacities = {2, 2, 2};
  instance.k = 3;
  McfsSolution solution;
  solution.selected = {1, 2, 0};
  solution.assignment = {0, 1, 1};  // customer 2 sits 2 away from node 4
  solution.distances = {1.0, 1.0, 2.0};
  solution.objective = 4.0;
  solution.feasible = true;
  const VerifyReport report = VerifySolution(instance, solution);
  EXPECT_TRUE(report.ok) << report.ToString();
  EXPECT_EQ(report.dijkstra_runs, 3);
  EXPECT_EQ(report.recomputed_objective, 4.0);

  McfsSolution tampered = solution;
  tampered.distances[0] = 3.0;  // true distance to facility 0 is 1
  tampered.objective = 6.0;
  const VerifyReport rejected = VerifySolution(instance, tampered);
  EXPECT_FALSE(rejected.ok);
  ASSERT_EQ(rejected.failures.size(), 2u);
  EXPECT_EQ(rejected.failures[0],
            "customer 0 claims distance 3 but the network distance is 1");
  EXPECT_EQ(rejected.failures[1],
            "objective claims 6 but the assignments sum to 4");
}

TEST_F(VerifierTest, MaintainsVerifyCounters) {
  obs::EnableMetrics(true);
  obs::ResetMetrics();
  VerifySolution(ri_.instance, solution_);
  McfsSolution tampered = solution_;
  tampered.objective += 100.0;
  VerifySolution(ri_.instance, tampered);
  const obs::MetricsSnapshot snapshot = obs::SnapshotMetrics();
  obs::EnableMetrics(false);
  EXPECT_EQ(snapshot.counters.at("verify/solutions_checked"), 2);
  EXPECT_EQ(snapshot.counters.at("verify/failures"), 1);
  EXPECT_EQ(snapshot.counters.at("verify/customers_checked"),
            2 * ri_.instance.m());
  EXPECT_GT(snapshot.counters.at("verify/dijkstra_runs"), 0);
}

}  // namespace
}  // namespace mcfs
