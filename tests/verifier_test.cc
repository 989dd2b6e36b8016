// The one solution checker: VerifySolution accepts genuine solver
// output and, under both distance strategies, rejects every kind of
// tampering — wrong distances, inflated objectives, capacity overloads,
// unselected assignments, and budget violations. VerifyStructure
// reports the same first failure for every structural defect.

#include <gtest/gtest.h>

#include <functional>
#include <limits>
#include <set>

#include "mcfs/core/verifier.h"
#include "mcfs/core/wma.h"
#include "mcfs/obs/metrics.h"
#include "tests/test_util.h"

namespace mcfs {
namespace {

// The full strategy (one Dijkstra per selected facility) and the
// targeted one (one early-exit search per customer node).
std::vector<VerifyOptions> Strategies() {
  VerifyOptions targeted;
  targeted.targeted = true;
  return {VerifyOptions{}, targeted};
}

const char* Name(const VerifyOptions& options) {
  return options.targeted ? "targeted" : "full";
}

class VerifierTest : public ::testing::Test {
 protected:
  VerifierTest()
      : rng_(42),
        ri_(testing_util::MakeRandomInstance(60, 25, 10, 5, 6, rng_)) {
    ri_.instance.graph = &ri_.graph;  // re-point after relocation
    WmaOptions options;
    solution_ = RunWma(ri_.instance, options).solution;
  }
  // A selection index that the solution does not select.
  int Unselected() const {
    const std::set<int> selected(solution_.selected.begin(),
                                 solution_.selected.end());
    for (int j = 0; j < ri_.instance.l(); ++j) {
      if (selected.count(j) == 0) return j;
    }
    return -1;
  }

  Rng rng_;
  testing_util::RandomInstance ri_;
  McfsSolution solution_;
};

TEST_F(VerifierTest, AcceptsWmaOutput) {
  ASSERT_TRUE(solution_.feasible);
  const std::set<NodeId> customer_nodes(ri_.instance.customers.begin(),
                                        ri_.instance.customers.end());
  for (const VerifyOptions& options : Strategies()) {
    SCOPED_TRACE(Name(options));
    const VerifyReport report =
        VerifySolution(ri_.instance, solution_, options);
    EXPECT_TRUE(report.ok) << report.ToString();
    EXPECT_TRUE(report.ToStatus().ok());
    EXPECT_EQ(report.customers_checked, ri_.instance.m());
    EXPECT_EQ(report.dijkstra_runs,
              options.targeted
                  ? static_cast<int>(customer_nodes.size())
                  : static_cast<int>(solution_.selected.size()));
    EXPECT_NEAR(report.recomputed_objective, solution_.objective, 1e-6);
  }
}

TEST_F(VerifierTest, RejectsTamperedDistance) {
  McfsSolution tampered = solution_;
  tampered.distances[0] += 3.5;
  for (const VerifyOptions& options : Strategies()) {
    SCOPED_TRACE(Name(options));
    const VerifyReport report = VerifySolution(ri_.instance, tampered, options);
    EXPECT_FALSE(report.ok);
    EXPECT_EQ(report.ToStatus().code(), StatusCode::kInvalidInput);
  }
}

TEST_F(VerifierTest, RejectsTamperedObjective) {
  McfsSolution tampered = solution_;
  tampered.objective *= 0.5;
  for (const VerifyOptions& options : Strategies()) {
    SCOPED_TRACE(Name(options));
    const VerifyReport report = VerifySolution(ri_.instance, tampered, options);
    EXPECT_FALSE(report.ok);
    ASSERT_FALSE(report.failures.empty());
    EXPECT_NE(report.failures[0].find("objective"), std::string::npos);
  }
}

TEST_F(VerifierTest, RejectsCapacityOverload) {
  // Funnel every customer into the first selected facility.
  McfsSolution tampered = solution_;
  const int target = tampered.selected[0];
  for (int i = 0; i < ri_.instance.m(); ++i) {
    tampered.assignment[i] = target;
  }
  for (const VerifyOptions& options : Strategies()) {
    SCOPED_TRACE(Name(options));
    const VerifyReport report = VerifySolution(ri_.instance, tampered, options);
    EXPECT_FALSE(report.ok);
    bool saw_capacity = false;
    for (const std::string& f : report.failures) {
      if (f.find("capacity") != std::string::npos) saw_capacity = true;
    }
    EXPECT_TRUE(saw_capacity) << report.ToString();
  }
}

TEST_F(VerifierTest, RejectsAssignmentToUnselectedFacility) {
  McfsSolution tampered = solution_;
  const int unselected = Unselected();
  ASSERT_NE(unselected, -1);
  tampered.assignment[0] = unselected;
  for (const VerifyOptions& options : Strategies()) {
    EXPECT_FALSE(VerifySolution(ri_.instance, tampered, options).ok)
        << Name(options);
  }
}

TEST_F(VerifierTest, RejectsBudgetViolationAndDuplicates) {
  McfsSolution over = solution_;
  over.selected.assign(ri_.instance.k + 1, 0);
  for (int s = 0; s <= ri_.instance.k; ++s) over.selected[s] = s;

  McfsSolution duplicated = solution_;
  ASSERT_GE(duplicated.selected.size(), 2u);
  duplicated.selected[1] = duplicated.selected[0];
  for (const VerifyOptions& options : Strategies()) {
    EXPECT_FALSE(VerifySolution(ri_.instance, over, options).ok)
        << Name(options);
    EXPECT_FALSE(VerifySolution(ri_.instance, duplicated, options).ok)
        << Name(options);
  }
}

TEST_F(VerifierTest, RejectsShapeMismatch) {
  McfsSolution tampered = solution_;
  tampered.assignment.pop_back();
  for (const VerifyOptions& options : Strategies()) {
    SCOPED_TRACE(Name(options));
    const VerifyReport report = VerifySolution(ri_.instance, tampered, options);
    EXPECT_FALSE(report.ok);
    EXPECT_EQ(report.dijkstra_runs, 0);
  }
}

TEST_F(VerifierTest, FlagsFeasibleMarkWithUnassignedCustomer) {
  McfsSolution tampered = solution_;
  tampered.objective -= tampered.distances[0];
  tampered.assignment[0] = -1;
  tampered.distances[0] = 0.0;
  McfsSolution honest = tampered;
  honest.feasible = false;  // honest about the gap -> accepted
  for (const VerifyOptions& options : Strategies()) {
    EXPECT_FALSE(VerifySolution(ri_.instance, tampered, options).ok)
        << Name(options);
    EXPECT_TRUE(VerifySolution(ri_.instance, honest, options).ok)
        << Name(options);
  }
}

// A claimed distance below the truth, with the objective kept
// consistent, is a lie only the network can expose.
TEST_F(VerifierTest, RejectsClaimBelowTruth) {
  int i = 0;
  while (i < ri_.instance.m() && !(solution_.distances[i] > 0.0)) ++i;
  ASSERT_LT(i, ri_.instance.m());
  McfsSolution tampered = solution_;
  tampered.objective -= tampered.distances[i] / 2;
  tampered.distances[i] /= 2;
  for (const VerifyOptions& options : Strategies()) {
    SCOPED_TRACE(Name(options));
    const VerifyReport report = VerifySolution(ri_.instance, tampered, options);
    ASSERT_FALSE(report.ok);
    const std::string prefix =
        "customer " + std::to_string(i) + " claims distance ";
    EXPECT_EQ(report.failures[0].rfind(prefix, 0), 0u) << report.ToString();
  }
}

TEST_F(VerifierTest, RejectsNanClaimedDistance) {
  McfsSolution tampered = solution_;
  tampered.distances[0] = std::numeric_limits<double>::quiet_NaN();
  for (const VerifyOptions& options : Strategies()) {
    SCOPED_TRACE(Name(options));
    const VerifyReport report = VerifySolution(ri_.instance, tampered, options);
    ASSERT_FALSE(report.ok);
    EXPECT_EQ(report.failures[0].rfind("customer 0 claims distance nan", 0),
              0u)
        << report.ToString();
  }
  EXPECT_FALSE(VerifyStructure(ri_.instance, tampered).ok);
}

// Every structural defect: VerifyStructure reports the first failure
// VerifySolution reports, under either strategy.
TEST_F(VerifierTest, StructureReportsTheSameFirstFailure) {
  const int k = ri_.instance.k;
  const int unselected = Unselected();
  const std::vector<std::function<void(McfsSolution&)>> solution_tampers = {
      [](McfsSolution& s) { s.assignment.pop_back(); },
      [](McfsSolution& s) { s.distances.push_back(0.0); },
      [k](McfsSolution& s) {
        s.selected.clear();
        for (int j = 0; j <= k; ++j) s.selected.push_back(j);
      },
      [this](McfsSolution& s) { s.selected[0] = ri_.instance.l(); },
      [](McfsSolution& s) { s.selected[1] = s.selected[0]; },
      [unselected](McfsSolution& s) { s.assignment[0] = unselected; },
      [](McfsSolution& s) { s.assignment[0] = -7; },
      [](McfsSolution& s) {
        s.objective -= s.distances[0];
        s.assignment[0] = -1;
        s.distances[0] = 0.0;
      },
      [](McfsSolution& s) { s.objective *= 0.5; },
  };
  std::vector<std::pair<McfsInstance, McfsSolution>> cases;
  for (const auto& tamper : solution_tampers) {
    cases.emplace_back(ri_.instance, solution_);
    tamper(cases.back().second);
  }
  // Honest distances, but one facility's capacity is now too small.
  cases.emplace_back(ri_.instance, solution_);
  cases.back().first.capacities[solution_.assignment[0]] = 0;

  for (size_t c = 0; c < cases.size(); ++c) {
    const auto& [instance, solution] = cases[c];
    const VerifyReport structure = VerifyStructure(instance, solution);
    ASSERT_FALSE(structure.ok) << "case " << c;
    EXPECT_EQ(structure.dijkstra_runs, 0);
    for (const VerifyOptions& options : Strategies()) {
      const VerifyReport full = VerifySolution(instance, solution, options);
      ASSERT_FALSE(full.ok) << "case " << c << ", " << Name(options);
      EXPECT_EQ(structure.failures[0], full.failures[0])
          << "case " << c << ", " << Name(options);
    }
  }
}

TEST_F(VerifierTest, WrongDistancePassesStructureOnly) {
  McfsSolution tampered = solution_;
  tampered.distances[0] += 3.5;
  tampered.objective += 3.5;
  const VerifyReport structure = VerifyStructure(ri_.instance, tampered);
  EXPECT_TRUE(structure.ok) << structure.ToString();
  EXPECT_EQ(structure.dijkstra_runs, 0);
  EXPECT_EQ(structure.customers_checked, ri_.instance.m());
  for (const VerifyOptions& options : Strategies()) {
    EXPECT_FALSE(VerifySolution(ri_.instance, tampered, options).ok)
        << Name(options);
  }
}

TEST_F(VerifierTest, StructureMovesNoCounter) {
  obs::EnableMetrics(true);
  obs::ResetMetrics();
  VerifyStructure(ri_.instance, solution_);
  McfsSolution tampered = solution_;
  tampered.objective += 100.0;
  VerifyStructure(ri_.instance, tampered);
  tampered.selected.clear();
  VerifyStructure(ri_.instance, tampered);
  const obs::MetricsSnapshot snapshot = obs::SnapshotMetrics();
  obs::EnableMetrics(false);
  for (const auto& [name, value] : snapshot.counters) {
    if (name.rfind("verify/", 0) == 0) {
      EXPECT_EQ(value, 0) << name;
    }
  }
}

// A customer whose facility lies in another component of the network.
TEST(VerifierUnreachableTest, RejectsCustomerOutsideItsFacilityComponent) {
  GraphBuilder builder(4);  // two components: 0 - 1 and 2 - 3
  builder.AddEdge(0, 1, 1.0);
  builder.AddEdge(2, 3, 1.0);
  const Graph graph = builder.Build();
  McfsInstance instance;
  instance.graph = &graph;
  instance.customers = {0, 3};
  instance.facility_nodes = {1, 2};
  instance.capacities = {2, 2};
  instance.k = 2;
  McfsSolution solution;
  solution.selected = {0, 1};
  solution.assignment = {1, 1};  // customer 0 sits in the other component
  solution.distances = {100.0, 1.0};
  solution.objective = 101.0;
  solution.feasible = true;
  EXPECT_TRUE(VerifyStructure(instance, solution).ok);
  for (const VerifyOptions& options : Strategies()) {
    SCOPED_TRACE(Name(options));
    const VerifyReport report = VerifySolution(instance, solution, options);
    ASSERT_FALSE(report.ok);
    EXPECT_EQ(report.failures[0], "customer 0 unreachable from its facility 1")
        << report.ToString();
  }
}

// Path 0 - 1 - 2 - 3 (unit weights); customers at 0 and 2, facilities
// of capacity 1 at 1 and 3, and the solution serving each by its
// neighbour.
struct PathCase {
  Graph graph;
  McfsInstance instance;
  McfsSolution solution;
};

PathCase MakePathCase() {
  GraphBuilder builder(4);
  for (int v = 1; v < 4; ++v) builder.AddEdge(v - 1, v, 1.0);
  PathCase path{builder.Build(), {}, {}};
  path.instance.customers = {0, 2};
  path.instance.facility_nodes = {1, 3};
  path.instance.capacities = {1, 1};
  path.instance.k = 2;
  path.solution.selected = {0, 1};
  path.solution.assignment = {0, 1};
  path.solution.distances = {1.0, 1.0};
  path.solution.objective = 2.0;
  path.solution.feasible = true;
  return path;
}

TEST(VerifyStructureTest, AcceptsCorrectSolution) {
  PathCase path = MakePathCase();
  path.instance.graph = &path.graph;
  EXPECT_TRUE(VerifyStructure(path.instance, path.solution).ok);
  for (const VerifyOptions& options : Strategies()) {
    EXPECT_TRUE(VerifySolution(path.instance, path.solution, options).ok)
        << Name(options);
  }
}

TEST(VerifyStructureTest, RejectsDefects) {
  PathCase path = MakePathCase();
  path.instance.graph = &path.graph;
  const McfsInstance& instance = path.instance;
  const McfsSolution& good = path.solution;
  {
    McfsSolution bad = good;  // too many selections
    bad.selected = {0, 1, 1};
    EXPECT_FALSE(VerifyStructure(instance, bad).ok);
  }
  {
    McfsSolution bad = good;  // assignment to unselected facility
    bad.selected = {0};
    EXPECT_FALSE(VerifyStructure(instance, bad).ok);
  }
  {
    McfsSolution bad = good;  // capacity violation
    bad.assignment = {0, 0};
    EXPECT_FALSE(VerifyStructure(instance, bad).ok);
  }
  {
    McfsSolution bad = good;  // objective mismatch
    bad.objective = 5.0;
    EXPECT_FALSE(VerifyStructure(instance, bad).ok);
  }
  {
    McfsSolution bad = good;  // wrong recorded distance
    bad.distances = {1.5, 0.5};
    EXPECT_TRUE(VerifyStructure(instance, bad).ok)
        << "only the network re-derivation sees distances";
    for (const VerifyOptions& options : Strategies()) {
      EXPECT_FALSE(VerifySolution(instance, bad, options).ok)
          << Name(options);
    }
  }
  {
    McfsSolution bad = good;  // feasible flag but unassigned customer
    bad.assignment = {0, -1};
    bad.distances = {1.0, 0.0};
    bad.objective = 1.0;
    EXPECT_FALSE(VerifyStructure(instance, bad).ok);
  }
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
