// Preflight validation: structural defects yield kInvalidInput with the
// full problem list, unsolvable instances yield kInfeasible with
// per-component capacity accounting, and the verdict agrees with
// IsFeasible on structurally valid instances.

#include <gtest/gtest.h>

#include "mcfs/core/validate.h"
#include "mcfs/core/verifier.h"
#include "mcfs/core/wma.h"
#include "tests/test_util.h"

namespace mcfs {
namespace {

McfsInstance SmallInstance(const Graph* graph) {
  McfsInstance instance;
  instance.graph = graph;
  instance.customers = {0, 1, 2};
  instance.facility_nodes = {3, 4};
  instance.capacities = {2, 2};
  instance.k = 2;
  return instance;
}

TEST(ValidateTest, AcceptsWellFormedInstance) {
  Rng rng(1);
  const Graph graph = testing_util::RandomGraph(8, 6, rng);
  const McfsInstance instance = SmallInstance(&graph);
  const InstanceDiagnosis diagnosis = DiagnoseInstance(instance);
  EXPECT_TRUE(diagnosis.ok()) << diagnosis.ToString();
  EXPECT_EQ(diagnosis.total_demand, 3);
  EXPECT_EQ(diagnosis.total_capacity, 4);
  EXPECT_EQ(diagnosis.required_facilities, 2);
  EXPECT_TRUE(ValidateInstance(instance).ok());
}

TEST(ValidateTest, NullGraphIsInvalid) {
  McfsInstance instance;
  instance.customers = {0};
  EXPECT_EQ(ValidateInstance(instance).code(), StatusCode::kInvalidInput);
}

TEST(ValidateTest, NegativeBudgetIsInvalid) {
  Rng rng(2);
  const Graph graph = testing_util::RandomGraph(8, 6, rng);
  McfsInstance instance = SmallInstance(&graph);
  instance.k = -1;
  EXPECT_EQ(ValidateInstance(instance).code(), StatusCode::kInvalidInput);
}

TEST(ValidateTest, OutOfRangeNodesAreInvalid) {
  Rng rng(3);
  const Graph graph = testing_util::RandomGraph(8, 6, rng);
  McfsInstance bad_customer = SmallInstance(&graph);
  bad_customer.customers[1] = 99;
  EXPECT_EQ(ValidateInstance(bad_customer).code(),
            StatusCode::kInvalidInput);
  McfsInstance bad_facility = SmallInstance(&graph);
  bad_facility.facility_nodes[0] = -4;
  EXPECT_EQ(ValidateInstance(bad_facility).code(),
            StatusCode::kInvalidInput);
}

TEST(ValidateTest, DuplicateFacilityNodesAreInvalid) {
  Rng rng(4);
  const Graph graph = testing_util::RandomGraph(8, 6, rng);
  McfsInstance instance = SmallInstance(&graph);
  instance.facility_nodes = {3, 3};
  const InstanceDiagnosis diagnosis = DiagnoseInstance(instance);
  EXPECT_EQ(diagnosis.status.code(), StatusCode::kInvalidInput);
  ASSERT_EQ(diagnosis.problems.size(), 1u);
  EXPECT_NE(diagnosis.problems[0].find("duplicate"), std::string::npos);

  // A node listed three times reports each repeat, in facility order,
  // after a distinct node in between.
  instance.facility_nodes = {5, 4, 5, 5};
  instance.capacities = {1, 1, 1, 1};
  const InstanceDiagnosis triple = DiagnoseInstance(instance);
  EXPECT_EQ(triple.status.code(), StatusCode::kInvalidInput);
  ASSERT_EQ(triple.problems.size(), 2u);
  EXPECT_EQ(triple.problems[0], "duplicate facility node 5 (facility 2)");
  EXPECT_EQ(triple.problems[1], "duplicate facility node 5 (facility 3)");
  EXPECT_EQ(triple.status.message(),
            "2 structural problem(s); first: duplicate facility node 5 "
            "(facility 2)");
}

TEST(ValidateTest, NegativeCapacityAndMismatchedSizesReportAllProblems) {
  Rng rng(5);
  const Graph graph = testing_util::RandomGraph(8, 6, rng);
  McfsInstance instance = SmallInstance(&graph);
  instance.capacities = {-2, 2};
  instance.customers[0] = -1;  // second defect: out-of-range customer
  const InstanceDiagnosis diagnosis = DiagnoseInstance(instance);
  EXPECT_EQ(diagnosis.status.code(), StatusCode::kInvalidInput);
  EXPECT_EQ(diagnosis.problems.size(), 2u);
}

TEST(ValidateTest, TotalCapacityDeficitIsInfeasible) {
  Rng rng(6);
  const Graph graph = testing_util::RandomGraph(8, 6, rng);
  McfsInstance instance = SmallInstance(&graph);
  instance.capacities = {1, 1};  // 3 customers, capacity 2
  const InstanceDiagnosis diagnosis = DiagnoseInstance(instance);
  EXPECT_EQ(diagnosis.status.code(), StatusCode::kInfeasible);
  ASSERT_EQ(diagnosis.infeasible_components.size(), 1u);
  EXPECT_EQ(diagnosis.infeasible_components[0].customers, 3);
  EXPECT_EQ(diagnosis.infeasible_components[0].capacity_sum, 2);
  EXPECT_EQ(diagnosis.infeasible_components[0].min_facilities_needed, -1);
  EXPECT_FALSE(IsFeasible(instance));
}

TEST(ValidateTest, BudgetTooSmallAcrossComponentsIsInfeasible) {
  // Two disconnected halves, customers in both, but k = 1.
  Rng rng(7);
  const Graph graph = testing_util::RandomDisconnectedGraph(10, 2, rng);
  McfsInstance instance;
  instance.graph = &graph;
  instance.customers = {0, 6};
  instance.facility_nodes = {1, 7};
  instance.capacities = {5, 5};
  instance.k = 1;
  const InstanceDiagnosis diagnosis = DiagnoseInstance(instance);
  EXPECT_EQ(diagnosis.status.code(), StatusCode::kInfeasible);
  EXPECT_EQ(diagnosis.required_facilities, 2);
  EXPECT_NE(diagnosis.status.message().find("budget"), std::string::npos);
  EXPECT_FALSE(IsFeasible(instance));

  instance.k = 2;
  EXPECT_TRUE(ValidateInstance(instance).ok());
  EXPECT_TRUE(IsFeasible(instance));
}

TEST(ValidateTest, ComponentWithoutFacilitiesIsInfeasible) {
  Rng rng(8);
  const Graph graph = testing_util::RandomDisconnectedGraph(10, 2, rng);
  McfsInstance instance;
  instance.graph = &graph;
  instance.customers = {0, 6};
  instance.facility_nodes = {1};  // only the first component has one
  instance.capacities = {5};
  instance.k = 1;
  const InstanceDiagnosis diagnosis = DiagnoseInstance(instance);
  EXPECT_EQ(diagnosis.status.code(), StatusCode::kInfeasible);
  ASSERT_EQ(diagnosis.infeasible_components.size(), 1u);
  EXPECT_EQ(diagnosis.infeasible_components[0].num_facilities, 0);
}

TEST(ValidateTest, BudgetAboveCandidateCountIsFeasible) {
  // k = 5 over l = 3 candidates with room for every customer: a
  // selection of at most k facilities is all the verifier asks for, so
  // the instance is feasible and WMA converges on it.
  Rng rng(10);
  const Graph graph = testing_util::RandomGraph(12, 8, rng);
  McfsInstance instance;
  instance.graph = &graph;
  instance.customers = {0, 2, 5, 7, 9, 11};
  instance.facility_nodes = {1, 4, 8};
  instance.capacities = {3, 3, 3};
  instance.k = 5;
  EXPECT_TRUE(IsFeasible(instance));
  EXPECT_EQ(IsFeasible(instance), ValidateInstance(instance).ok());

  const StatusOr<WmaResult> result = SolveWma(instance);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result->solution.feasible);
  EXPECT_EQ(result->solution.termination, Termination::kConverged);
  EXPECT_EQ(result->stats.termination, Termination::kConverged);
  EXPECT_LE(static_cast<int>(result->solution.selected.size()), instance.l());
  EXPECT_TRUE(VerifySolution(instance, result->solution).ok);
}

TEST(ValidateTest, AgreesWithIsFeasibleOnRandomInstances) {
  Rng rng(99);
  for (int trial = 0; trial < 60; ++trial) {
    const int parts = 1 + trial % 3;
    testing_util::RandomInstance ri = testing_util::MakeRandomInstance(
        24, 10, 5, 1 + trial % 5, 1 + trial % 4, rng, parts);
    const Status status = ValidateInstance(ri.instance);
    EXPECT_NE(status.code(), StatusCode::kInvalidInput);
    EXPECT_EQ(status.ok(), IsFeasible(ri.instance)) << status.ToString();
  }
}

}  // namespace
}  // namespace mcfs
