// Deterministic chaos soak (DESIGN.md §4.13): a seeded FaultPlan fires
// deadline cuts, verifier rejections, and queue-overflow pulses into a
// serving SolverService under load, at several thread counts. The
// contract under chaos: no crash, every handle completes with a typed
// status (kOk or kUnavailable — nothing hangs, nothing is silently
// dropped), every degraded answer is verifier-feasible with a reported
// quality bound, and once the fault budgets are spent the service goes
// straight back to converged answers bit-identical to a direct solve.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "mcfs/common/fault_plan.h"
#include "mcfs/common/random.h"
#include "mcfs/core/verifier.h"
#include "mcfs/core/wma.h"
#include "mcfs/serve/solver_service.h"
#include "tests/test_util.h"

namespace mcfs {
namespace {

struct ChaosFixture {
  testing_util::RandomInstance ri;

  explicit ChaosFixture(uint64_t seed) {
    Rng rng(seed);
    ri = testing_util::MakeRandomInstance(200, 60, 30, 12, 15, rng);
    ri.instance.graph = &ri.graph;
  }

  const McfsInstance& catalog() const { return ri.instance; }

  McfsInstance RequestInstance(const SolveRequest& request) const {
    McfsInstance instance;
    instance.graph = catalog().graph;
    instance.customers = request.customers;
    instance.k = request.k;
    if (request.facility_subset.empty()) {
      instance.facility_nodes = catalog().facility_nodes;
      instance.capacities = catalog().capacities;
    } else {
      for (const int idx : request.facility_subset) {
        instance.facility_nodes.push_back(catalog().facility_nodes[idx]);
        instance.capacities.push_back(catalog().capacities[idx]);
      }
    }
    return instance;
  }
};

// Request shapes the soak cycles through; all opt into degraded mode.
std::vector<SolveRequest> ChaosShapes(const ChaosFixture& fx) {
  const std::vector<NodeId>& all = fx.catalog().customers;
  std::vector<SolveRequest> shapes;
  {
    SolveRequest request;
    request.customers = all;
    request.k = fx.catalog().k;
    request.allow_degraded = true;
    shapes.push_back(request);
  }
  {
    SolveRequest request;
    request.customers.assign(all.begin(), all.begin() + 20);
    request.k = 6;
    request.allow_degraded = true;
    shapes.push_back(request);
  }
  {
    SolveRequest request;
    request.customers = all;
    request.k = fx.catalog().k;
    for (int j = 0; j < fx.catalog().l(); j += 2) {
      request.facility_subset.push_back(j);
    }
    request.allow_degraded = true;
    shapes.push_back(request);
  }
  return shapes;
}

// Spends whatever is left of a kind's fire budget by polling the plan
// directly — the harness's way to declare "the faults have stopped"
// without a timing dependence.
void DrainFaultBudget(FaultPlan& plan, FaultKind kind) {
  const int64_t cap = plan.spec().max_fires[static_cast<int>(kind)];
  ASSERT_GE(cap, 0) << "chaos plans must cap every enabled kind";
  int64_t safety = 0;
  while (plan.fires(kind) < cap && safety++ < 1'000'000) {
    plan.ShouldFire(kind);
  }
  EXPECT_EQ(plan.fires(kind), cap);
}

TEST(ServeChaosTest, SoakSurvivesFaultsAndReconvergesAcrossThreadCounts) {
  ChaosFixture fx(71);
  const std::vector<SolveRequest> shapes = ChaosShapes(fx);

  // Every shape must be solvable when nothing is injected — so any
  // non-OK soak status is the fault machinery, not a bad instance.
  for (const SolveRequest& shape : shapes) {
    const StatusOr<WmaResult> direct = SolveWma(fx.RequestInstance(shape));
    ASSERT_TRUE(direct.ok()) << direct.status().ToString();
  }

  constexpr int kRequestsPerConfig = 400;  // x3 thread counts >= 1000 total
  for (const int threads : {1, 2, 8}) {
    SCOPED_TRACE("serve_threads=" + std::to_string(threads));

    FaultPlanSpec spec;
    spec.seed = 9000 + static_cast<uint64_t>(threads);
    spec.rate[static_cast<int>(FaultKind::kDeadlineCut)] = 0.2;
    spec.max_fires[static_cast<int>(FaultKind::kDeadlineCut)] = 25;
    spec.rate[static_cast<int>(FaultKind::kVerifyReject)] = 0.15;
    spec.max_fires[static_cast<int>(FaultKind::kVerifyReject)] = 20;
    spec.rate[static_cast<int>(FaultKind::kQueuePulse)] = 0.05;
    spec.max_fires[static_cast<int>(FaultKind::kQueuePulse)] = 8;
    auto plan = std::make_shared<FaultPlan>(spec);

    ServiceOptions options;
    options.serve_threads = threads;
    options.wma.threads = threads;
    options.queue_depth = kRequestsPerConfig + 16;  // pulses only
    options.cache_capacity = 0;  // every request really solves (and polls)
    options.fault_plan = plan;
    auto service = std::make_unique<SolverService>(
        fx.catalog().graph, fx.catalog().facility_nodes,
        fx.catalog().capacities, options);

    std::vector<std::shared_ptr<ResponseHandle>> handles;
    handles.reserve(kRequestsPerConfig);
    for (int i = 0; i < kRequestsPerConfig; ++i) {
      handles.push_back(service->Submit(shapes[i % shapes.size()]));
    }

    int64_t converged = 0, degraded = 0, shed = 0, exhausted = 0;
    for (int i = 0; i < kRequestsPerConfig; ++i) {
      ASSERT_TRUE(handles[i]->WaitFor(120'000)) << "request " << i << " hung";
      const SolveResponse& response = handles[i]->Wait();
      if (response.status.ok()) {
        if (response.tier == "degraded") {
          ++degraded;
          // Degraded answers are always verifier-checked in-service and
          // carry a quality bound; re-verify independently here.
          EXPECT_TRUE(response.verify_ran);
          EXPECT_TRUE(response.verify_ok);
          EXPECT_TRUE(response.solution.feasible);
          EXPECT_GE(response.quality_bound, 1.0);
          const VerifyReport verdict = VerifySolution(
              fx.RequestInstance(shapes[i % shapes.size()]),
              response.solution);
          EXPECT_TRUE(verdict.ok) << verdict.ToString();
        } else {
          EXPECT_EQ(response.tier, "full");
          ++converged;
        }
      } else {
        // The only failure the soak may produce is typed unavailability:
        // an admission shed (with a retry hint) or an exhausted ladder.
        ASSERT_EQ(response.status.code(), StatusCode::kUnavailable)
            << response.status.ToString();
        if (response.retry_after_ms > 0) {
          ++shed;
        } else {
          ++exhausted;
        }
      }
    }

    EXPECT_EQ(converged + degraded + shed + exhausted, kRequestsPerConfig);
    EXPECT_GT(degraded, 0);
    EXPECT_GT(converged, 0);
    EXPECT_EQ(shed, plan->fires(FaultKind::kQueuePulse));
    // Every shape is a validated feasible instance, so the ladder's
    // rung 2 (the instant responder) always finds a verified answer.
    EXPECT_EQ(exhausted, 0);

    const ServiceReport report = service->Report();
    EXPECT_EQ(report.requests_shed, shed);
    EXPECT_EQ(report.degraded_responses, degraded);
    EXPECT_GE(report.degraded_fallbacks, 1);
    EXPECT_GE(report.faults_injected, plan->fires(FaultKind::kQueuePulse));
    const std::string json = report.Json();
    EXPECT_NE(json.find("\"fault_tolerance\""), std::string::npos);
    EXPECT_NE(json.find("\"degraded_responses\": "), std::string::npos);
    const std::string snapshot = service->DebugSnapshot().Json();
    EXPECT_NE(snapshot.find("\"shed\": "), std::string::npos);
    EXPECT_NE(snapshot.find("\"degraded\": "), std::string::npos);

    // Faults stop: spend what is left of every budget, then a clean
    // request must come back converged and bit-identical to a direct
    // solve — the service recovered, not just survived.
    DrainFaultBudget(*plan, FaultKind::kDeadlineCut);
    DrainFaultBudget(*plan, FaultKind::kVerifyReject);
    DrainFaultBudget(*plan, FaultKind::kQueuePulse);

    const SolveResponse clean = service->SolveSync(shapes[0]);
    ASSERT_TRUE(clean.status.ok()) << clean.status.ToString();
    EXPECT_EQ(clean.tier, "full");
    EXPECT_EQ(clean.solution.termination, Termination::kConverged);
    const StatusOr<WmaResult> direct =
        SolveWma(fx.RequestInstance(shapes[0]), options.wma);
    ASSERT_TRUE(direct.ok());
    EXPECT_EQ(clean.solution.selected, direct.value().solution.selected);
    EXPECT_EQ(clean.solution.assignment, direct.value().solution.assignment);
    EXPECT_EQ(clean.solution.objective, direct.value().solution.objective);

    service->Shutdown();
  }
}

}  // namespace
}  // namespace mcfs
