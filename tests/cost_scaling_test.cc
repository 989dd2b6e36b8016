// Correctness of the cost-scaling backend (flow/cost_scaling.h): the
// raw flow engine against hand-checked optima, the dense transportation
// oracle against flow/transport.h, and CostScalingMatcher against the
// SSPA IncrementalMatcher across a randomized instance sweep — equal
// objectives on feasible instances, equal cardinality plus a no-worse
// objective on capacity-short ones, and thread-count invariance. Both
// engines run through AssignOptimally, the production batch path.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>
#include <optional>
#include <vector>

#include "mcfs/core/instance.h"
#include "mcfs/flow/cost_scaling.h"
#include "mcfs/flow/matcher.h"
#include "mcfs/flow/matcher_backend.h"
#include "mcfs/flow/transport.h"
#include "tests/test_util.h"

namespace mcfs {
namespace {

using testing_util::MakeRandomInstance;
using testing_util::RandomInstance;

constexpr double kRelTol = 1e-9;

bool NearRel(double a, double b) {
  return std::abs(a - b) <= kRelTol * std::max({1.0, std::abs(a),
                                                std::abs(b)});
}

// Assigns every customer with every facility selected, so the
// solution's facility indices are the instance's.
McfsSolution AssignAll(MatcherBackendKind kind, const RandomInstance& ri,
                       int threads = 1) {
  std::vector<int> selected(ri.instance.l());
  std::iota(selected.begin(), selected.end(), 0);
  return AssignOptimally(ri.instance, selected, threads, kind);
}

int AssignedCount(const McfsSolution& solution) {
  return static_cast<int>(solution.assignment.size()) -
         static_cast<int>(std::count(solution.assignment.begin(),
                                     solution.assignment.end(), -1));
}

TEST(CostScalingFlowTest, HandCheckedDiamond) {
  // 0 -> {1, 2} -> 3, two units from 0 to 3. Taking both middle routes
  // (cost 1 + 4 and 2 + 1) beats doubling up anywhere else; all costs
  // are multiples of num_nodes + 1 = 5 to sit on the exactness lattice.
  CostScalingFlow flow(4);
  flow.SetSupply(0, 2);
  flow.SetSupply(3, -2);
  const int a01 = flow.AddArc(0, 1, 1, 1 * 5);
  const int a02 = flow.AddArc(0, 2, 1, 2 * 5);
  const int a13 = flow.AddArc(1, 3, 1, 4 * 5);
  const int a23 = flow.AddArc(2, 3, 1, 1 * 5);
  ASSERT_TRUE(flow.Solve());
  EXPECT_EQ(flow.FlowOf(a01), 1);
  EXPECT_EQ(flow.FlowOf(a02), 1);
  EXPECT_EQ(flow.FlowOf(a13), 1);
  EXPECT_EQ(flow.FlowOf(a23), 1);
  EXPECT_TRUE(flow.VerifyEpsOptimality(1));
  EXPECT_GT(flow.num_refines(), 0);
  EXPECT_GT(flow.num_pushes(), 0);
}

TEST(CostScalingFlowTest, IncrementalResolveAfterArcAndCostEdits) {
  // Start with one expensive route, then add a cheap arc and re-Solve:
  // the repair must reroute onto it.
  CostScalingFlow flow(3);
  flow.SetSupply(0, 1);
  flow.SetSupply(2, -1);
  const int expensive = flow.AddArc(0, 2, 1, 100 * 4);
  ASSERT_TRUE(flow.Solve());
  EXPECT_EQ(flow.FlowOf(expensive), 1);
  const int a01 = flow.AddArc(0, 1, 1, 1 * 4);
  const int a12 = flow.AddArc(1, 2, 1, 1 * 4);
  ASSERT_TRUE(flow.Solve());
  EXPECT_EQ(flow.FlowOf(expensive), 0);
  EXPECT_EQ(flow.FlowOf(a01), 1);
  EXPECT_EQ(flow.FlowOf(a12), 1);
  // Re-pricing the cheap path above the direct arc must move it back.
  flow.SetCost(a01, 200 * 4);
  ASSERT_TRUE(flow.Solve());
  EXPECT_EQ(flow.FlowOf(expensive), 1);
  EXPECT_EQ(flow.FlowOf(a01), 0);
  EXPECT_TRUE(flow.VerifyEpsOptimality(1));
}

class DenseTransportSweep : public ::testing::TestWithParam<int> {};

TEST_P(DenseTransportSweep, MatchesReferenceTransport) {
  Rng rng(7100 + GetParam());
  const int m = 1 + static_cast<int>(rng.UniformInt(0, 7));
  const int l = 1 + static_cast<int>(rng.UniformInt(0, 7));
  std::vector<double> cost(static_cast<size_t>(m) * l);
  for (double& c : cost) {
    // A sprinkle of forbidden pairs exercises the infeasible paths.
    c = rng.Uniform(0.0, 1.0) < 0.15 ? kInfDistance
                                     : rng.Uniform(0.0, 50.0);
  }
  std::vector<int> capacities(l);
  for (int& cap : capacities) {
    cap = static_cast<int>(rng.UniformInt(0, 2));
  }
  std::optional<TransportResult> reference =
      SolveDenseTransport(m, l, cost, capacities);
  std::optional<TransportResult> scaled =
      SolveDenseTransportCostScaling(m, l, cost, capacities);
  ASSERT_EQ(reference.has_value(), scaled.has_value());
  if (!reference.has_value()) return;
  EXPECT_TRUE(NearRel(reference->cost, scaled->cost))
      << reference->cost << " vs " << scaled->cost;
  ASSERT_EQ(scaled->assignment.size(), static_cast<size_t>(m));
  std::vector<int> load(l, 0);
  for (int i = 0; i < m; ++i) {
    const int j = scaled->assignment[i];
    ASSERT_GE(j, 0);
    ASSERT_LT(j, l);
    ASSERT_NE(cost[static_cast<size_t>(i) * l + j], kInfDistance);
    ++load[j];
  }
  for (int j = 0; j < l; ++j) EXPECT_LE(load[j], capacities[j]);
}

INSTANTIATE_TEST_SUITE_P(RandomSweep, DenseTransportSweep,
                         ::testing::Range(0, 40));

class BackendEquivalenceSweep : public ::testing::TestWithParam<int> {};

TEST_P(BackendEquivalenceSweep, CostScalingMatchesSspa) {
  Rng rng(7300 + GetParam());
  const int n = 20 + static_cast<int>(rng.UniformInt(0, 100));
  const int m = 4 + static_cast<int>(rng.UniformInt(0, 28));
  const int l = 3 + static_cast<int>(rng.UniformInt(0, 12));
  // max_capacity 1 with m > l forces capacity-short instances into the
  // sweep; disconnected graphs force component-local shortages.
  const int max_capacity = 1 + static_cast<int>(rng.UniformInt(0, 3));
  const int parts = 1 + GetParam() % 3;
  RandomInstance ri =
      MakeRandomInstance(n, m, l, l, max_capacity, rng, parts);

  const McfsSolution sspa = AssignAll(MatcherBackendKind::kSspa, ri);
  const McfsSolution scaled = AssignAll(MatcherBackendKind::kCostScaling, ri);

  // Both engines route max-cardinality flows, so the assigned count
  // must agree even when capacity runs short.
  EXPECT_EQ(sspa.feasible, scaled.feasible);
  EXPECT_EQ(AssignedCount(sspa), AssignedCount(scaled));
  if (sspa.feasible) {
    EXPECT_TRUE(NearRel(sspa.objective, scaled.objective))
        << sspa.objective << " vs " << scaled.objective;
  } else {
    // SSPA satisfies customers greedily in index order; cost scaling
    // globally minimizes over max-cardinality assignments, so it may
    // pick a cheaper subset of customers to leave unassigned.
    EXPECT_LE(scaled.objective,
              sspa.objective + kRelTol * std::max(1.0, sspa.objective));
  }

  // The matching respects capacities, one facility per customer.
  ASSERT_EQ(scaled.assignment.size(), static_cast<size_t>(m));
  std::vector<int> load(l, 0);
  for (const int j : scaled.assignment) {
    if (j >= 0) ++load[j];
  }
  for (int j = 0; j < l; ++j) EXPECT_LE(load[j], ri.instance.capacities[j]);
}

INSTANTIATE_TEST_SUITE_P(RandomSweep, BackendEquivalenceSweep,
                         ::testing::Range(0, 30));

TEST(CostScalingMatcherTest, ThreadCountInvariance) {
  Rng rng(7411);
  RandomInstance ri = MakeRandomInstance(120, 40, 12, 12, 4, rng);
  std::optional<McfsSolution> baseline;
  for (const int threads : {1, 2, 8}) {
    const McfsSolution result =
        AssignAll(MatcherBackendKind::kCostScaling, ri, threads);
    if (!baseline.has_value()) {
      baseline = result;
      continue;
    }
    EXPECT_EQ(baseline->feasible, result.feasible);
    EXPECT_EQ(baseline->assignment, result.assignment);
    EXPECT_EQ(baseline->distances, result.distances);
    EXPECT_EQ(baseline->objective, result.objective);
  }
}

TEST(CostScalingMatcherTest, LazyMaterializationStaysPartial) {
  // Plenty of facilities with ample capacity: the optimum only needs a
  // few nearest candidates per customer, and the price-certified
  // extension loop must prove the rest of each stream away.
  Rng rng(7512);
  RandomInstance ri = MakeRandomInstance(200, 24, 40, 40, 5, rng);
  CostScalingMatcher matcher(ri.instance.graph, ri.instance.customers,
                             ri.instance.facility_nodes,
                             ri.instance.capacities);
  ASSERT_TRUE(matcher.MatchAll());
  EXPECT_LT(matcher.num_edges_materialized(),
            static_cast<int64_t>(ri.instance.m()) * ri.instance.l());
  const McfsSolution sspa = AssignAll(MatcherBackendKind::kSspa, ri);
  EXPECT_TRUE(NearRel(sspa.objective, matcher.TotalCost()));
}

TEST(CostScalingMatcherTest, WarmSeedRefusalIsTyped) {
  const Status status = CostScalingMatcher::WarmSeedStatus();
  EXPECT_EQ(status.code(), StatusCode::kUnsupported);
  Rng rng(7613);
  RandomInstance ri = MakeRandomInstance(30, 4, 3, 3, 2, rng);
  CostScalingMatcher matcher(ri.instance.graph, ri.instance.customers,
                             ri.instance.facility_nodes,
                             ri.instance.capacities);
  WarmSeed seed;
  EXPECT_EQ(matcher.ResumeFrom(seed).code(), StatusCode::kUnsupported);
}

TEST(MatcherBackendTest, ParseAndNames) {
  EXPECT_EQ(*ParseMatcherBackend("sspa"), MatcherBackendKind::kSspa);
  EXPECT_EQ(*ParseMatcherBackend("cost_scaling"),
            MatcherBackendKind::kCostScaling);
  EXPECT_EQ(*ParseMatcherBackend("cost-scaling"),
            MatcherBackendKind::kCostScaling);
  EXPECT_EQ(*ParseMatcherBackend("auto"), MatcherBackendKind::kAuto);
  EXPECT_EQ(ParseMatcherBackend("bogus").status().code(),
            StatusCode::kInvalidInput);
  EXPECT_STREQ(MatcherBackendName(MatcherBackendKind::kCostScaling),
               "cost_scaling");
}

TEST(MatcherBackendTest, AutoResolvesByShape) {
  // Near-saturated wide batch: the regime the crossover sweep measured
  // cost scaling 1.6-7.5x faster in (BENCH_matcher_backends.json).
  MatchShape dense;
  dense.customers = 4096;
  dense.facilities = 64;
  dense.total_capacity = 4100;
  EXPECT_EQ(ResolveMatcherBackend(MatcherBackendKind::kAuto, dense),
            MatcherBackendKind::kCostScaling);
  // The same batch with real slack (occupancy ~0.8) stays on SSPA —
  // below saturation its lazy searches win.
  MatchShape slack = dense;
  slack.total_capacity = 5000;
  EXPECT_EQ(ResolveMatcherBackend(MatcherBackendKind::kAuto, slack),
            MatcherBackendKind::kSspa);
  MatchShape warm = dense;
  warm.warm = true;
  EXPECT_EQ(ResolveMatcherBackend(MatcherBackendKind::kAuto, warm),
            MatcherBackendKind::kSspa);
  MatchShape small;
  small.customers = 20;
  small.facilities = 4;
  small.total_capacity = 40;
  EXPECT_EQ(ResolveMatcherBackend(MatcherBackendKind::kAuto, small),
            MatcherBackendKind::kSspa);
  // Concrete requests pass through untouched.
  EXPECT_EQ(ResolveMatcherBackend(MatcherBackendKind::kCostScaling, small),
            MatcherBackendKind::kCostScaling);
  EXPECT_EQ(ResolveMatcherBackend(MatcherBackendKind::kSspa, dense),
            MatcherBackendKind::kSspa);
}

}  // namespace
}  // namespace mcfs
