// SolverService functional contract: responses are bit-identical to
// direct SolveWma calls on the same instance (results, statuses, and
// error messages) for every serve_threads value; admission control
// rejects loudly; the epoch cache serves repeats and is invalidated by
// catalog updates; per-request deadlines degrade only their own
// request; the service report and its JSON have the documented shape.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "mcfs/common/deadline.h"
#include "mcfs/common/fault_plan.h"
#include "mcfs/common/timer.h"
#include "mcfs/core/validate.h"
#include "mcfs/core/verifier.h"
#include "mcfs/core/wma.h"
#include "mcfs/obs/flight_recorder.h"
#include "mcfs/obs/histogram.h"
#include "mcfs/obs/metrics.h"
#include "mcfs/obs/trace.h"
#include "mcfs/serve/solver_service.h"
#include "tests/test_util.h"

namespace mcfs {
namespace {

struct ServeFixture {
  testing_util::RandomInstance ri;

  explicit ServeFixture(uint64_t seed, int parts = 1) {
    Rng rng(seed);
    ri = testing_util::MakeRandomInstance(200, 60, 30, 12, 15, rng, parts);
    // The assignment moved the graph into this fixture; re-point the
    // instance at the moved-to object.
    ri.instance.graph = &ri.graph;
  }

  const McfsInstance& catalog() const { return ri.instance; }

  // The instance a request describes, built the way the service builds
  // it — the direct-solve reference for bit-identity checks.
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

  std::unique_ptr<SolverService> MakeService(
      const ServiceOptions& options = {}) const {
    return std::make_unique<SolverService>(
        catalog().graph, catalog().facility_nodes, catalog().capacities,
        options);
  }
};

bool SameSolution(const McfsSolution& a, const McfsSolution& b) {
  return a.selected == b.selected && a.assignment == b.assignment &&
         a.distances == b.distances && a.objective == b.objective &&
         a.feasible == b.feasible && a.termination == b.termination;
}

std::vector<SolveRequest> MixedRequests(const ServeFixture& fx) {
  const std::vector<NodeId>& all = fx.catalog().customers;
  std::vector<SolveRequest> requests;
  // Full catalog, full customer set.
  requests.push_back({all, fx.catalog().k, {}, 0, nullptr});
  // Fewer customers, tighter budget.
  requests.push_back(
      {{all.begin(), all.begin() + 20}, 6, {}, 0, nullptr});
  // A catalog subset (every other candidate), enough budget.
  std::vector<int> subset;
  for (int j = 0; j < fx.catalog().l(); j += 2) subset.push_back(j);
  requests.push_back({all, fx.catalog().k, subset, 0, nullptr});
  // Empty customer list (the trivial shortcut).
  requests.push_back({{}, 3, {}, 0, nullptr});
  return requests;
}

TEST(ServeTest, ResponsesBitIdenticalToDirectSolveAcrossServeThreads) {
  ServeFixture fx(11);
  const std::vector<SolveRequest> requests = MixedRequests(fx);

  for (const int serve_threads : {1, 2, 8}) {
    ServiceOptions options;
    options.serve_threads = serve_threads;
    options.cache_capacity = 0;  // every request must really solve
    auto service = fx.MakeService(options);

    std::vector<std::shared_ptr<ResponseHandle>> handles;
    for (const SolveRequest& request : requests) {
      handles.push_back(service->Submit(request));
    }
    for (size_t r = 0; r < requests.size(); ++r) {
      const SolveResponse& response = handles[r]->Wait();
      const StatusOr<WmaResult> direct =
          SolveWma(fx.RequestInstance(requests[r]));
      ASSERT_TRUE(response.status.ok()) << response.status.ToString();
      ASSERT_TRUE(direct.ok());
      EXPECT_TRUE(SameSolution(response.solution, direct.value().solution))
          << "request " << r << " at serve_threads " << serve_threads;
      EXPECT_EQ(response.stats.iterations, direct.value().stats.iterations);
      EXPECT_EQ(response.stats.dijkstra_runs,
                direct.value().stats.dijkstra_runs);
      EXPECT_EQ(response.epoch, 1u);
    }
  }
}

TEST(ServeTest, ErrorStatusesMatchDirectSolveByteForByte) {
  ServeFixture fx(12);
  auto service = fx.MakeService();

  std::vector<SolveRequest> bad;
  // Customer node out of range.
  bad.push_back({{5, 10'000}, 4, {}, 0, nullptr});
  // Negative budget.
  bad.push_back({{fx.catalog().customers[0]}, -1, {}, 0, nullptr});
  // Duplicate subset index => duplicate facility node.
  bad.push_back({fx.catalog().customers, fx.catalog().k, {0, 1, 0}, 0,
                 nullptr});
  // Infeasible: customers but a zero budget.
  bad.push_back({fx.catalog().customers, 0, {}, 0, nullptr});
  // Infeasible: one facility cannot hold 60 customers.
  bad.push_back({fx.catalog().customers, 1, {0}, 0, nullptr});

  // Returns the direct status so a case can check which rule fired.
  const auto expect_same_error = [](const ServeFixture& f,
                                    SolverService& svc,
                                    const SolveRequest& request) {
    const SolveResponse response = svc.SolveSync(request);
    const StatusOr<WmaResult> direct = SolveWma(f.RequestInstance(request));
    EXPECT_FALSE(direct.ok());
    EXPECT_FALSE(response.status.ok());
    EXPECT_EQ(response.status.code(), direct.status().code());
    EXPECT_EQ(response.status.message(), direct.status().message());
    return direct.status();
  };
  for (size_t r = 0; r < bad.size(); ++r) {
    SCOPED_TRACE("request " + std::to_string(r));
    expect_same_error(fx, *service, bad[r]);
  }

  // A four-part network whose last part holds no catalog facility.
  ServeFixture split(12, /*parts=*/4);
  const std::vector<int>& component_of =
      split.ri.graph.components().component_of;
  const int bare = component_of[199];
  McfsInstance& catalog = split.ri.instance;
  std::vector<NodeId> kept_nodes;
  std::vector<int> kept_caps;
  for (int j = 0; j < catalog.l(); ++j) {
    if (component_of[catalog.facility_nodes[j]] == bare) continue;
    kept_nodes.push_back(catalog.facility_nodes[j]);
    kept_caps.push_back(catalog.capacities[j]);
  }
  catalog.facility_nodes = kept_nodes;
  catalog.capacities = kept_caps;
  std::vector<NodeId> covered;  // customers outside the bare part
  for (const NodeId c : catalog.customers) {
    if (component_of[c] != bare) covered.push_back(c);
  }
  McfsInstance roomy = catalog;
  roomy.customers = covered;
  roomy.k = roomy.l();
  const InstanceDiagnosis diagnosis = DiagnoseInstance(roomy);
  ASSERT_TRUE(diagnosis.ok()) << diagnosis.ToString();
  ASSERT_GE(diagnosis.required_facilities, 2);
  auto split_service = split.MakeService();

  // Customers in a component with no catalog facility.
  std::vector<NodeId> with_bare = covered;
  with_bare.push_back(199);
  EXPECT_NE(expect_same_error(split, *split_service,
                              {with_bare, catalog.l(), {}, 0, nullptr})
                .message()
                .find("lack capacity"),
            std::string::npos);
  // A subset that leaves the first customer's component uncovered.
  std::vector<int> subset;
  for (int j = 0; j < catalog.l(); ++j) {
    if (component_of[catalog.facility_nodes[j]] != component_of[covered[0]]) {
      subset.push_back(j);
    }
  }
  EXPECT_NE(expect_same_error(split, *split_service,
                              {covered, catalog.l(), subset, 0, nullptr})
                .message()
                .find("lack capacity"),
            std::string::npos);
  // Every component coverable, but k below the per-component minimum sum.
  EXPECT_NE(expect_same_error(
                split, *split_service,
                {covered, diagnosis.required_facilities - 1, {}, 0, nullptr})
                .message()
                .find("covering every component needs at least"),
            std::string::npos);
}

TEST(ServeTest, SubsetIndexOutOfRangeIsServiceLevelInvalidInput) {
  ServeFixture fx(13);
  auto service = fx.MakeService();
  const SolveResponse response =
      service->SolveSync({fx.catalog().customers, 4, {0, 99}, 0, nullptr});
  EXPECT_EQ(response.status.code(), StatusCode::kInvalidInput);
  EXPECT_NE(response.status.message().find("facility subset index"),
            std::string::npos);
}

TEST(ServeTest, ZeroDepthQueueRejectsWithUnavailable) {
  ServeFixture fx(14);
  ServiceOptions options;
  options.queue_depth = 0;
  auto service = fx.MakeService(options);
  const SolveResponse response =
      service->SolveSync({fx.catalog().customers, 4, {}, 0, nullptr});
  EXPECT_EQ(response.status.code(), StatusCode::kUnavailable);
  EXPECT_NE(response.status.message().find("admission queue full"),
            std::string::npos);
  EXPECT_EQ(service->Report().requests_rejected, 1);
}

TEST(ServeTest, SubmitAfterShutdownIsRejectedAndQueueDrains) {
  ServeFixture fx(15);
  auto service = fx.MakeService();
  std::vector<std::shared_ptr<ResponseHandle>> handles;
  for (int r = 0; r < 5; ++r) {
    handles.push_back(
        service->Submit({fx.catalog().customers, fx.catalog().k, {}, 0,
                         nullptr}));
  }
  service->Shutdown();
  // Drain-on-shutdown: every admitted request still completed.
  for (const auto& handle : handles) {
    EXPECT_TRUE(handle->Done());
    EXPECT_TRUE(handle->Wait().status.ok());
  }
  const SolveResponse late =
      service->SolveSync({fx.catalog().customers, 4, {}, 0, nullptr});
  EXPECT_EQ(late.status.code(), StatusCode::kUnavailable);
  EXPECT_NE(late.status.message().find("shut down"), std::string::npos);
}

TEST(ServeTest, RepeatRequestHitsCacheWithIdenticalSolution) {
  ServeFixture fx(16);
  auto service = fx.MakeService();
  const SolveRequest request{fx.catalog().customers, fx.catalog().k, {}, 0,
                             nullptr};
  const SolveResponse first = service->SolveSync(request);
  const SolveResponse second = service->SolveSync(request);
  ASSERT_TRUE(first.status.ok());
  ASSERT_TRUE(second.status.ok());
  EXPECT_FALSE(first.cache_hit);
  EXPECT_TRUE(second.cache_hit);
  EXPECT_TRUE(SameSolution(first.solution, second.solution));
  EXPECT_EQ(service->Report().cache_hits, 1);
}

TEST(ServeTest, CatalogUpdateBumpsEpochInvalidatesCacheAndChangesAnswer) {
  ServeFixture fx(17);
  auto service = fx.MakeService();
  const SolveRequest request{fx.catalog().customers, fx.catalog().k, {}, 0,
                             nullptr};
  const SolveResponse before = service->SolveSync(request);
  ASSERT_TRUE(before.status.ok());
  EXPECT_EQ(before.epoch, 1u);

  // Halve every capacity (still feasible for these instances' slack).
  std::vector<int> halved = fx.catalog().capacities;
  for (int& c : halved) c = (c + 1) / 2;
  ASSERT_TRUE(service->UpdateCapacities(halved).ok());
  EXPECT_EQ(service->epoch(), 2u);

  const SolveResponse after = service->SolveSync(request);
  ASSERT_TRUE(after.status.ok()) << after.status.ToString();
  EXPECT_EQ(after.epoch, 2u);
  EXPECT_FALSE(after.cache_hit);  // the update invalidated the cache

  McfsInstance updated = fx.catalog();
  updated.capacities = halved;
  const StatusOr<WmaResult> direct = SolveWma(updated);
  ASSERT_TRUE(direct.ok());
  EXPECT_TRUE(SameSolution(after.solution, direct.value().solution));
}

TEST(ServeTest, PerRequestDeadlineDegradesOnlyThatRequest) {
  // A larger instance so the solve takes long enough for a 1 ms budget
  // to fire mid-run; the assertions below only rely on the anytime
  // contract (feasible, verifier-clean), never on where the cut lands.
  Rng rng(18);
  testing_util::RandomInstance ri =
      testing_util::MakeRandomInstance(1200, 320, 60, 30, 14, rng);
  ASSERT_TRUE(IsFeasible(ri.instance));
  SolverService service(ri.instance.graph, ri.instance.facility_nodes,
                        ri.instance.capacities, {});

  SolveRequest tight{ri.instance.customers, ri.instance.k, {}, 1, nullptr};
  SolveRequest free{ri.instance.customers, ri.instance.k, {}, 0, nullptr};
  auto tight_handle = service.Submit(tight);
  auto free_handle = service.Submit(free);

  const SolveResponse& cut = tight_handle->Wait();
  ASSERT_TRUE(cut.status.ok()) << cut.status.ToString();
  EXPECT_TRUE(cut.solution.feasible);
  EXPECT_TRUE(VerifySolution(ri.instance, cut.solution).ok);

  const SolveResponse& full = free_handle->Wait();
  ASSERT_TRUE(full.status.ok());
  EXPECT_EQ(full.solution.termination, Termination::kConverged);
  const StatusOr<WmaResult> direct = SolveWma(ri.instance);
  ASSERT_TRUE(direct.ok());
  EXPECT_TRUE(SameSolution(full.solution, direct.value().solution));

  if (cut.solution.termination == Termination::kDeadline) {
    EXPECT_GE(service.Report().deadline_terminations, 1);
  }
}

TEST(ServeTest, VerifyOptionRunsIndependentVerifier) {
  ServeFixture fx(19);
  ServiceOptions options;
  options.verify = true;
  auto service = fx.MakeService(options);
  const SolveResponse response = service->SolveSync(
      {fx.catalog().customers, fx.catalog().k, {}, 0, nullptr});
  ASSERT_TRUE(response.status.ok());
  EXPECT_TRUE(response.verify_ran);
  EXPECT_TRUE(response.verify_ok);
}

TEST(ServeTest, ReportCountsAndJsonShape) {
  ServeFixture fx(20);
  auto service = fx.MakeService();
  const SolveRequest good{fx.catalog().customers, fx.catalog().k, {}, 0,
                          nullptr};
  const SolveRequest bad{fx.catalog().customers, -3, {}, 0, nullptr};
  ASSERT_TRUE(service->SolveSync(good).status.ok());
  ASSERT_TRUE(service->SolveSync(good).status.ok());  // cache hit
  ASSERT_FALSE(service->SolveSync(bad).status.ok());

  const ServiceReport report = service->Report();
  EXPECT_EQ(report.epoch, 1u);
  EXPECT_EQ(report.epochs_built, 1);
  EXPECT_EQ(report.requests_admitted, 3);
  EXPECT_EQ(report.requests_completed, 3);
  EXPECT_EQ(report.requests_failed, 1);
  EXPECT_EQ(report.cache_hits, 1);
  EXPECT_EQ(report.latency.count, 3);
  EXPECT_GE(report.latency.p99, report.latency.p50);
  EXPECT_GE(report.latency.max, report.latency.p99);
  EXPECT_GE(report.batches, 1);

  const std::string json = report.Json();
  for (const char* key :
       {"\"service\"", "\"epoch\"", "\"requests\"", "\"admitted\"",
        "\"rejected\"", "\"completed\"", "\"failed\"", "\"cache_hits\"",
        "\"deadline_terminations\"", "\"batches\"", "\"latency_seconds\"",
        "\"p50\"", "\"p99\"", "\"phase_seconds\"", "\"amortization\"",
        "\"warm_preprocess_seconds_per_request\""}) {
    EXPECT_NE(json.find(key), std::string::npos) << key << "\n" << json;
  }
  // Non-finite doubles must never leak into the document.
  EXPECT_EQ(json.find("inf"), std::string::npos) << json;
  EXPECT_EQ(json.find("nan"), std::string::npos) << json;
}

// --- Observability v2 (DESIGN.md §4.11) ---

TEST(ServeTest, ResponseTraceIdAssignedAtAdmissionAndEchoed) {
  ServeFixture fx(30);
  auto service = fx.MakeService();
  SolveRequest request;
  request.customers = fx.catalog().customers;
  request.k = fx.catalog().k;
  const SolveResponse assigned = service->SolveSync(request);
  ASSERT_TRUE(assigned.status.ok());
  EXPECT_NE(assigned.trace_id, 0u);
  request.trace_id = 777;
  const SolveResponse echoed = service->SolveSync(request);
  EXPECT_EQ(echoed.trace_id, 777u);
  // Even rejected requests get a joinable id.
  ServiceOptions zero;
  zero.queue_depth = 0;
  auto full = fx.MakeService(zero);
  SolveRequest shed;
  shed.customers = fx.catalog().customers;
  shed.k = 4;
  EXPECT_NE(full->SolveSync(shed).trace_id, 0u);
}

TEST(ServeTest, EverySpanCarriesItsRequestsTraceIdAcrossServeThreads) {
  ServeFixture fx(31);
  const std::vector<SolveRequest> mix = MixedRequests(fx);

  // Tracing-off reference (also proves tracing changes no bytes).
  std::vector<McfsSolution> reference;
  {
    auto service = fx.MakeService();
    for (const SolveRequest& request : mix) {
      reference.push_back(service->SolveSync(request).solution);
    }
  }

  for (const int serve_threads : {1, 2, 8}) {
    obs::ClearTrace();
    obs::EnableTracing(true);
    ServiceOptions options;
    options.serve_threads = serve_threads;
    options.cache_capacity = 0;  // every request must really solve
    auto service = fx.MakeService(options);

    // Submit the whole mix at once so the dispatcher batches them.
    std::vector<std::shared_ptr<ResponseHandle>> handles;
    for (const SolveRequest& request : mix) {
      handles.push_back(service->Submit(request));
    }
    std::set<uint64_t> request_ids;
    for (size_t r = 0; r < mix.size(); ++r) {
      const SolveResponse& response = handles[r]->Wait();
      ASSERT_TRUE(response.status.ok());
      EXPECT_NE(response.trace_id, 0u);
      EXPECT_TRUE(request_ids.insert(response.trace_id).second)
          << "duplicate trace id";
      EXPECT_TRUE(SameSolution(response.solution, reference[r]))
          << "tracing changed solution bytes at serve_threads "
          << serve_threads;
    }
    service->Shutdown();
    obs::EnableTracing(false);

    // Attribution: every request-scoped span (serve/request and the
    // whole solver stack under it, including ParallelFor workers)
    // carries exactly its request's id — across batching and worker
    // threads. Service-scoped spans (batch, warm build) carry 0.
    std::set<uint64_t> seen_ids;
    for (const obs::TraceEvent& event :
         obs::CollectTraceEvents()) {
      if (event.trace_id == 0) {
        EXPECT_TRUE(std::string(event.name) != "serve/request");
        continue;
      }
      EXPECT_EQ(request_ids.count(event.trace_id), 1u)
          << event.name << " carries unknown trace id " << event.trace_id;
      seen_ids.insert(event.trace_id);
    }
    // Every solving request produced attributed spans (the empty-
    // customer shortcut still spans serve/request).
    EXPECT_EQ(seen_ids, request_ids)
        << "some request produced no attributed span at serve_threads "
        << serve_threads;
    obs::ClearTrace();
  }
}

TEST(ServeTest, InjectedVerifyRejectionDumpsPostmortemAndFallsBackCold) {
  ServeFixture fx(32);
  ServiceOptions options;
  options.flight_recorder = true;
  // Exactly one verifier rejection, at the first warm verify.
  FaultPlanSpec spec;
  spec.rate[static_cast<int>(FaultKind::kVerifyReject)] = 1.0;
  spec.max_fires[static_cast<int>(FaultKind::kVerifyReject)] = 1;
  options.fault_plan = std::make_shared<FaultPlan>(spec);
  auto service = fx.MakeService(options);

  UpdateRequest arrivals;
  for (const NodeId customer : fx.catalog().customers) {
    arrivals.ops.push_back({UpdateKind::kCustomerArrive, customer, 0});
  }
  ASSERT_TRUE(service->ApplyUpdate(arrivals).ok());

  const int k = fx.catalog().k;
  // First resolve plants the seed; the second warm-starts and hits the
  // injected rejection — postmortem + cold fallback, correct response.
  const SolveResponse cold_ref = service->ResolveTracked(k);
  ASSERT_TRUE(cold_ref.status.ok());
  EXPECT_TRUE(service->LastPostmortem().empty());
  EXPECT_FALSE(cold_ref.warm_attempted);
  EXPECT_FALSE(cold_ref.warm_served);
  const SolveResponse rejected = service->ResolveTracked(k);
  ASSERT_TRUE(rejected.status.ok());
  EXPECT_TRUE(rejected.verify_ran);
  EXPECT_TRUE(rejected.verify_ok);  // the cold fallback's verdict
  EXPECT_EQ(rejected.solution.objective, cold_ref.solution.objective);
  // The warm attempt fell back cold: attempted, but not served warm —
  // the distinction bench_serve --churn classifies its epochs by.
  EXPECT_TRUE(rejected.warm_attempted);
  EXPECT_FALSE(rejected.warm_served);

  // With the injection consumed, the next resolve serves warm for real.
  const SolveResponse warm = service->ResolveTracked(k);
  ASSERT_TRUE(warm.status.ok());
  EXPECT_TRUE(warm.warm_attempted);
  EXPECT_TRUE(warm.warm_served);
  EXPECT_EQ(warm.solution.objective, cold_ref.solution.objective);

  const ServiceReport report = service->Report();
  EXPECT_EQ(report.resolve_verify_rejections, 1);
  EXPECT_EQ(report.postmortems, 1);

  const std::string postmortem = service->LastPostmortem();
  ASSERT_FALSE(postmortem.empty());
  EXPECT_NE(postmortem.find("\"reason\": \"verify_rejection\""),
            std::string::npos)
      << postmortem;
  EXPECT_NE(postmortem.find("\"trace_id\": " +
                            std::to_string(rejected.trace_id)),
            std::string::npos)
      << postmortem;
  EXPECT_NE(postmortem.find("\"epoch\": " +
                            std::to_string(rejected.epoch)),
            std::string::npos)
      << postmortem;
  // The dump holds the recent phase transitions leading to the failure.
  EXPECT_NE(postmortem.find("wma/run_begin"), std::string::npos)
      << postmortem;
  EXPECT_NE(postmortem.find("wma/phase/"), std::string::npos) << postmortem;
  obs::EnableFlightRecorder(false);
  obs::ClearFlightEvents();
}

TEST(ServeTest, DeadlineExceededWarmSolveDumpsPostmortem) {
  ServeFixture fx(33);
  ServiceOptions options;
  options.flight_recorder = true;
  // Poll #1 (iteration-loop top) passes, poll #2 (the augmentation
  // boundary inside matching) expires — deterministically landing the
  // cut where "wma/deadline_hit" is recorded. Each served solve gets
  // its own copy of this deadline, with its own poll budget.
  options.wma.deadline = Deadline::AfterPolls(2);
  auto service = fx.MakeService(options);

  UpdateRequest arrivals;
  for (const NodeId customer : fx.catalog().customers) {
    arrivals.ops.push_back({UpdateKind::kCustomerArrive, customer, 0});
  }
  ASSERT_TRUE(service->ApplyUpdate(arrivals).ok());

  const SolveResponse cut = service->ResolveTracked(fx.catalog().k);
  ASSERT_TRUE(cut.status.ok()) << cut.status.ToString();
  EXPECT_EQ(cut.solution.termination, Termination::kDeadline);
  const std::string postmortem = service->LastPostmortem();
  ASSERT_FALSE(postmortem.empty());
  EXPECT_NE(postmortem.find("\"reason\": \"warm_deadline\""),
            std::string::npos)
      << postmortem;
  EXPECT_NE(postmortem.find("\"trace_id\": " +
                            std::to_string(cut.trace_id)),
            std::string::npos)
      << postmortem;
  EXPECT_NE(postmortem.find("wma/deadline_hit"), std::string::npos)
      << postmortem;
  obs::EnableFlightRecorder(false);
  obs::ClearFlightEvents();
}

TEST(ServeTest, DebugSnapshotShapeAndJson) {
  ServeFixture fx(34);
  ServiceOptions options;
  options.queue_depth = 17;
  options.cache_capacity = 9;
  SloPolicy slo;
  slo.tier = "default";
  slo.target_latency_ms = 1e9;  // never violated
  options.slos.push_back(slo);
  auto service = fx.MakeService(options);
  SolveRequest request;
  request.customers = fx.catalog().customers;
  request.k = fx.catalog().k;
  ASSERT_TRUE(service->SolveSync(request).status.ok());

  const ServiceSnapshot snapshot = service->DebugSnapshot();
  EXPECT_EQ(snapshot.epoch, 1u);
  EXPECT_GT(snapshot.t_us, 0);
  EXPECT_EQ(snapshot.queue_depth, 0);  // drained
  EXPECT_EQ(snapshot.queue_capacity, 17);
  EXPECT_EQ(snapshot.cache_size, 1);
  EXPECT_EQ(snapshot.cache_capacity, 9);
  EXPECT_EQ(snapshot.tracked_customers, 0);
  EXPECT_TRUE(snapshot.in_flight.empty());
  EXPECT_EQ(snapshot.latency.count, 1);
  ASSERT_EQ(snapshot.slos.size(), 1u);
  EXPECT_EQ(snapshot.slos[0].requests, 1);
  EXPECT_EQ(snapshot.slos[0].violations, 0);

  const std::string json = snapshot.Json();
  for (const char* key :
       {"\"epoch\"", "\"t_us\"", "\"queue\"", "\"depth\"", "\"capacity\"",
        "\"cache\"", "\"size\"", "\"tracked_customers\"", "\"in_flight\"",
        "\"latency_seconds\"", "\"p50\"", "\"p99\"", "\"p99_exemplar\"",
        "\"slo\"", "\"burn\"", "\"postmortems\""}) {
    EXPECT_NE(json.find(key), std::string::npos) << key << "\n" << json;
  }
  EXPECT_EQ(json.find("inf"), std::string::npos) << json;

  // Tracked population shows up without taking the resolve lock.
  UpdateRequest arrivals;
  arrivals.ops.push_back(
      {UpdateKind::kCustomerArrive, fx.catalog().customers[0], 0});
  ASSERT_TRUE(service->ApplyUpdate(arrivals).ok());
  EXPECT_EQ(service->DebugSnapshot().tracked_customers, 1);
}

TEST(ServeTest, HistogramQuantilesMatchBruteForceWithinOneBucket) {
  ServeFixture fx(35);
  ServiceOptions options;
  options.cache_capacity = 0;  // every request really solves
  auto service = fx.MakeService(options);
  SolveRequest request;
  request.customers = fx.catalog().customers;
  request.k = fx.catalog().k;
  // Client-side samples: the server's admission-to-completion interval
  // lies inside each SolveSync call, so every client sample bounds its
  // server sample from above (plus one tick of the microsecond clock the
  // server reads).
  constexpr int kRequests = 24;
  constexpr double kClockTick = 1e-6;
  std::vector<double> samples;
  for (int r = 0; r < kRequests; ++r) {
    WallTimer timer;
    ASSERT_TRUE(service->SolveSync(request).status.ok());
    samples.push_back(timer.Seconds() + kClockTick);
  }
  const LatencySummary hist = service->Report().latency;
  const LatencySummary client = SummarizeLatencies(samples);
  ASSERT_EQ(hist.count, kRequests);
  EXPECT_LE(hist.max, client.max);  // max is tracked exactly
  // Exact nearest-rank quantile with the histogram's own rank
  // convention (rank = ceil(q * n), at least 1).
  std::sort(samples.begin(), samples.end());
  const auto exact_quantile = [&samples](double q) {
    const int64_t n = static_cast<int64_t>(samples.size());
    int64_t rank = static_cast<int64_t>(
        std::ceil(q * static_cast<double>(n)));
    if (rank < 1) rank = 1;
    return samples[rank - 1];
  };
  struct QuantilePair {
    double histogram, brute_force;
  };
  for (const QuantilePair q :
       {QuantilePair{hist.p50, exact_quantile(0.50)},
        QuantilePair{hist.p95, exact_quantile(0.95)},
        QuantilePair{hist.p99, exact_quantile(0.99)}}) {
    // Bucket-quantile contract: the estimate is at most the server's
    // exact rank sample times the bucket growth, and the server's rank
    // sample is at most the client's.
    EXPECT_LE(q.histogram, q.brute_force * obs::kHistogramGrowth *
                               (1.0 + 1e-12));
  }
  EXPECT_NE(hist.p99_exemplar, 0u);  // tail bucket is attributed
}

TEST(ServeTest, SloBurnAccounting) {
  ServeFixture fx(36);
  ServiceOptions options;
  SloPolicy strict;  // impossible target: every request violates
  strict.tier = "default";
  strict.target_latency_ms = 1e-9;
  strict.error_budget = 0.5;
  SloPolicy lax;  // unreachable target via an explicit tier
  lax.tier = "batch";
  lax.target_latency_ms = 1e9;
  lax.error_budget = 0.01;
  options.slos = {strict, lax};
  auto service = fx.MakeService(options);

  SolveRequest request;
  request.customers = fx.catalog().customers;
  request.k = fx.catalog().k;
  const SolveResponse first = service->SolveSync(request);  // "default"
  ASSERT_TRUE(first.status.ok());
  request.tier = "batch";
  ASSERT_TRUE(service->SolveSync(request).status.ok());
  request.tier = "unconfigured";  // counted nowhere, no implicit tiers
  ASSERT_TRUE(service->SolveSync(request).status.ok());

  const ServiceReport report = service->Report();
  ASSERT_EQ(report.slos.size(), 2u);
  const SloReport& burned = report.slos[0];
  EXPECT_EQ(burned.tier, "default");
  EXPECT_EQ(burned.requests, 1);
  EXPECT_EQ(burned.violations, 1);
  // burn = violations / (budget * requests) = 1 / 0.5.
  EXPECT_DOUBLE_EQ(burned.burn, 2.0);
  EXPECT_EQ(burned.last_violation_trace_id, first.trace_id);
  const SloReport& calm = report.slos[1];
  EXPECT_EQ(calm.requests, 1);
  EXPECT_EQ(calm.violations, 0);
  EXPECT_DOUBLE_EQ(calm.burn, 0.0);
  const std::string json = report.Json();
  EXPECT_NE(json.find("\"slo\": [{\"tier\": \"default\""),
            std::string::npos)
      << json;
}

TEST(ServeTest, EmptyReportLatencyIsNullNotGarbage) {
  ServeFixture fx(37);
  auto service = fx.MakeService();
  const ServiceReport report = service->Report();
  EXPECT_EQ(report.latency.count, 0);
  const std::string json = report.Json();
  EXPECT_NE(json.find("\"latency_seconds\": {\"count\": 0, \"mean\": null"),
            std::string::npos)
      << json;
  EXPECT_EQ(json.find("inf"), std::string::npos) << json;
  EXPECT_EQ(json.find("nan"), std::string::npos) << json;
}

// --- Fault-tolerant serving (DESIGN.md §4.13) ---

TEST(ServeTest, WaitForBoundsTheWaitAndThenAgreesWithWait) {
  // A solve big enough that the instantaneous poll right after Submit
  // cannot observe a completed handle.
  Rng rng(38);
  testing_util::RandomInstance ri =
      testing_util::MakeRandomInstance(1200, 320, 60, 30, 14, rng);
  SolverService service(ri.instance.graph, ri.instance.facility_nodes,
                        ri.instance.capacities, {});
  auto handle =
      service.Submit({ri.instance.customers, ri.instance.k, {}, 0, nullptr});
  EXPECT_FALSE(handle->WaitFor(0));  // instantaneous poll, not started yet
  ASSERT_TRUE(handle->WaitFor(120'000)) << "request hung";
  EXPECT_TRUE(handle->Done());
  EXPECT_TRUE(handle->WaitFor(0));  // completed: the poll now agrees
  EXPECT_TRUE(handle->Wait().status.ok());
}

TEST(ServeTest, DeadlineCutDegradedRequestServesVerifiedFallback) {
  ServeFixture fx(39);
  ServiceOptions options;
  options.cache_capacity = 8;
  // Every served solve deadline-cuts deterministically (same planting
  // as the postmortem test above).
  options.wma.deadline = Deadline::AfterPolls(2);
  auto service = fx.MakeService(options);

  SolveRequest request;
  request.customers = fx.catalog().customers;
  request.k = fx.catalog().k;

  // Without the opt-in, the pre-existing behavior: an OK anytime answer
  // on the full tier, unverified.
  const SolveResponse opted_out = service->SolveSync(request);
  ASSERT_TRUE(opted_out.status.ok()) << opted_out.status.ToString();
  EXPECT_EQ(opted_out.solution.termination, Termination::kDeadline);
  EXPECT_EQ(opted_out.tier, "full");
  EXPECT_EQ(opted_out.quality_bound, 0.0);

  request.allow_degraded = true;
  const SolveResponse degraded = service->SolveSync(request);
  ASSERT_TRUE(degraded.status.ok()) << degraded.status.ToString();
  EXPECT_EQ(degraded.tier, "degraded");
  EXPECT_TRUE(degraded.verify_ran);
  EXPECT_TRUE(degraded.verify_ok);
  EXPECT_TRUE(degraded.solution.feasible);
  EXPECT_GE(degraded.quality_bound, 1.0);
  EXPECT_TRUE(VerifySolution(fx.RequestInstance(request), degraded.solution).ok)
      << "degraded answer must be independently feasible";
  // The ladder leaves a postmortem trail naming the degradation cause.
  EXPECT_NE(service->LastPostmortem().find("degraded_deadline"),
            std::string::npos)
      << service->LastPostmortem();

  // Degraded answers are never cached: the repeat is a fresh solve.
  const SolveResponse repeat = service->SolveSync(request);
  ASSERT_TRUE(repeat.status.ok());
  EXPECT_FALSE(repeat.cache_hit);
  EXPECT_EQ(repeat.tier, "degraded");

  const ServiceReport report = service->Report();
  EXPECT_GE(report.degraded_responses, 2);
  EXPECT_EQ(report.cache_hits, 0);
  const std::string json = report.Json();
  for (const char* key :
       {"\"fault_tolerance\"", "\"degraded_responses\"",
        "\"degraded_fallbacks\"", "\"requests_shed\"", "\"checkpoints\"",
        "\"faults_injected\"", "\"shed\"", "\"degraded\""}) {
    EXPECT_NE(json.find(key), std::string::npos) << key << "\n" << json;
  }
}

// Rung 2 of the ladder is the instant responder, also for a catalog
// subset on a graph without coordinates (no Hilbert sweep possible).
TEST(ServeTest, RejectedSubsetRequestServesInstantResponderWithoutCoordinates) {
  ServeFixture fx(11);
  ASSERT_FALSE(fx.catalog().graph->has_coordinates());
  ServiceOptions options;
  FaultPlanSpec spec;
  spec.rate[static_cast<int>(FaultKind::kVerifyReject)] = 1.0;
  spec.max_fires[static_cast<int>(FaultKind::kVerifyReject)] = 1;
  options.fault_plan = std::make_shared<FaultPlan>(spec);
  auto service = fx.MakeService(options);

  SolveRequest request;
  request.customers = fx.catalog().customers;
  request.k = fx.catalog().k;
  for (int j = 0; j < fx.catalog().l(); j += 2) {
    request.facility_subset.push_back(j);
  }
  request.allow_degraded = true;
  ASSERT_TRUE(SolveWma(fx.RequestInstance(request)).ok());

  const SolveResponse degraded = service->SolveSync(request);
  ASSERT_TRUE(degraded.status.ok()) << degraded.status.ToString();
  EXPECT_EQ(degraded.tier, "degraded");
  EXPECT_TRUE(degraded.verify_ran);
  EXPECT_TRUE(degraded.verify_ok);
  EXPECT_TRUE(degraded.solution.feasible);
  EXPECT_TRUE(degraded.quality_bound >= 1.0 ||
              degraded.quality_bound == kDegenerateQualityBound)
      << degraded.quality_bound;
  const VerifyReport verdict =
      VerifySolution(fx.RequestInstance(request), degraded.solution);
  EXPECT_TRUE(verdict.ok) << verdict.ToString();
  EXPECT_EQ(service->Report().degraded_fallbacks, 1);
}

TEST(ServeTest, QueueFullRejectionCarriesRetryAfterHint) {
  ServeFixture fx(40);
  ServiceOptions options;
  options.queue_depth = 0;
  options.expected_solve_ms = 25.0;
  auto service = fx.MakeService(options);
  const SolveResponse rejected =
      service->SolveSync({fx.catalog().customers, 4, {}, 0, nullptr});
  ASSERT_EQ(rejected.status.code(), StatusCode::kUnavailable);
  EXPECT_NE(rejected.status.message().find("admission queue full"),
            std::string::npos);
  // Overloaded-but-alive rejections always carry a usable backoff hint.
  EXPECT_GE(rejected.retry_after_ms, 1);

  // Shutdown rejections do not: a retry against a stopped service is
  // futile, and the 0 tells clients to give up rather than spin.
  service->Shutdown();
  const SolveResponse dead =
      service->SolveSync({fx.catalog().customers, 4, {}, 0, nullptr});
  ASSERT_EQ(dead.status.code(), StatusCode::kUnavailable);
  EXPECT_EQ(dead.retry_after_ms, 0);
}

TEST(ServeTest, QueueDelayShedRejectsDoomedRequestsAtAdmission) {
  ServeFixture fx(41);
  // An absurd seeded service-time estimate: any queued request means
  // the estimated wait dwarfs a 1 ms deadline, so admission must shed
  // rather than let the request time out in line.
  ServiceOptions options;
  options.serve_threads = 1;
  options.max_batch = 1;
  options.cache_capacity = 0;
  options.queue_depth = 2048;  // only the shed may reject
  options.expected_solve_ms = 1e7;
  auto service = fx.MakeService(options);

  SolveRequest patient;  // no deadline: never shed, keeps the queue busy
  patient.customers = fx.catalog().customers;
  patient.k = fx.catalog().k;
  SolveRequest hurried = patient;
  hurried.deadline_ms = 1;

  // Race note: the dispatcher may drain the queue between our Submits,
  // in which case the hurried request is admitted (an empty queue sheds
  // nothing). Keep feeding until one lands behind a queued request.
  bool shed_seen = false;
  std::vector<std::shared_ptr<ResponseHandle>> handles;
  for (int attempt = 0; attempt < 200 && !shed_seen; ++attempt) {
    for (int b = 0; b < 4; ++b) handles.push_back(service->Submit(patient));
    auto handle = service->Submit(hurried);
    handles.push_back(handle);
    if (handle->Done() && !handle->Wait().status.ok()) {
      const SolveResponse& shed = handle->Wait();
      ASSERT_EQ(shed.status.code(), StatusCode::kUnavailable);
      EXPECT_NE(shed.status.message().find("exceeds the request deadline"),
                std::string::npos)
          << shed.status.message();
      EXPECT_GE(shed.retry_after_ms, 1);
      shed_seen = true;
    }
  }
  EXPECT_TRUE(shed_seen);
  for (const auto& handle : handles) {
    ASSERT_TRUE(handle->WaitFor(120'000));
  }
  const ServiceReport report = service->Report();
  EXPECT_GE(report.requests_shed, 1);
  EXPECT_EQ(report.requests_rejected, 0);  // sheds are their own class
}

// One count per serving event: the registry's serve/* and resolve/*
// metrics mirror the service's own counts, so with one service in the
// process each equals its report field. Drives every counted event once.
TEST(ServeTest, RegistryAndReportCountEveryEventOnce) {
  obs::ResetMetrics();
  obs::EnableMetrics(true);
  ServeFixture fx(42);
  FaultPlanSpec spec;  // the first poll of each kind fires, no later one
  for (const FaultKind kind : {FaultKind::kDeadlineCut, FaultKind::kQueuePulse,
                               FaultKind::kCheckpointIo}) {
    spec.rate[static_cast<int>(kind)] = 1.0;
    spec.max_fires[static_cast<int>(kind)] = 1;
  }
  ServiceOptions options;
  options.fault_plan = std::make_shared<FaultPlan>(spec);
  // A 10 s estimate sends every SLA request to the fast tier.
  options.expected_solve_ms = 10000.0;
  // Every solve gets this poll budget: the few-customer requests below
  // (k >= m) converge inside it, and the whole-population refinement does
  // not, so its fast cache entry stays "fast".
  options.wma.deadline = Deadline::AfterPolls(20);
  auto service = fx.MakeService(options);

  const std::vector<NodeId>& all = fx.catalog().customers;
  SolveRequest few;
  few.customers.assign(all.begin(), all.begin() + 4);
  few.k = fx.catalog().k;
  SolveRequest few_sla = few;
  few_sla.customers.push_back(all[4]);
  few_sla.max_latency_ms = 1;
  SolveRequest all_sla;
  all_sla.customers = all;
  all_sla.k = fx.catalog().k;
  all_sla.max_latency_ms = 1;
  SolveRequest degradable = few;
  degradable.customers.push_back(all[5]);
  degradable.allow_degraded = true;
  SolveRequest invalid = few;
  invalid.k = -3;

  // Shed by the queue pulse, then degraded by the planted deadline cut.
  EXPECT_EQ(service->SolveSync(few).status.code(), StatusCode::kUnavailable);
  EXPECT_EQ(service->SolveSync(degradable).tier, "degraded");
  // A full entry hit, a failure, and a fast entry hit.
  const SolveResponse full = service->SolveSync(few);
  ASSERT_TRUE(full.status.ok()) << full.status.ToString();
  ASSERT_EQ(full.solution.termination, Termination::kConverged);
  EXPECT_TRUE(service->SolveSync(few).cache_hit);
  EXPECT_FALSE(service->SolveSync(invalid).status.ok());
  EXPECT_EQ(service->SolveSync(all_sla).tier, "fast");
  service->DrainRefinements();
  const SolveResponse fast_hit = service->SolveSync(all_sla);
  EXPECT_TRUE(fast_hit.cache_hit);
  EXPECT_EQ(fast_hit.tier, "fast");
  // A refinement that converges upgrades its entry in place.
  EXPECT_EQ(service->SolveSync(few_sla).tier, "fast");
  service->DrainRefinements();
  EXPECT_EQ(service->ProbeCache(few_sla).tier, "full");

  // A no-op and two real updates around a cold and a warm resolve.
  UpdateRequest arrive;
  for (int i = 0; i < 3; ++i) {
    arrive.ops.push_back({UpdateKind::kCustomerArrive, all[i], 0});
  }
  const StatusOr<UpdateResult> noop = service->ApplyUpdate({});
  ASSERT_TRUE(noop.ok() && noop.value().noop);
  ASSERT_TRUE(service->ApplyUpdate(arrive).ok());
  EXPECT_FALSE(service->ResolveTracked(few.k).warm_attempted);
  UpdateRequest grow;
  grow.ops.push_back({UpdateKind::kCapacityDelta,
                      fx.catalog().facility_nodes[0], 1});
  grow.ops.push_back({UpdateKind::kCustomerArrive, all[3], 0});
  const StatusOr<UpdateResult> grown = service->ApplyUpdate(grow);
  ASSERT_TRUE(grown.ok() && grown.value().epoch_bumped);
  EXPECT_TRUE(service->ResolveTracked(few.k).warm_served);

  // A faulted and a real checkpoint save, a failed and a real restore.
  const std::string path =
      ::testing::TempDir() + "/serve_registry_parity.mcfsckpt";
  EXPECT_FALSE(service->CheckpointTo(path).ok());
  EXPECT_TRUE(service->CheckpointTo(path).ok());
  EXPECT_FALSE(service->RestoreFrom(path + ".missing").ok());
  EXPECT_TRUE(service->RestoreFrom(path).ok());
  service->Shutdown();
  EXPECT_TRUE(service->SolveSync(few).shutdown);  // rejected

  const ServiceReport report = service->Report();
  const obs::MetricsSnapshot metrics = obs::SnapshotMetrics();
  obs::EnableMetrics(false);
  const std::map<std::string, int64_t> fields = {
      {"serve/requests_admitted", report.requests_admitted},
      {"serve/requests_rejected", report.requests_rejected},
      {"serve/requests_completed", report.requests_completed},
      {"serve/requests_failed", report.requests_failed},
      {"serve/requests_shed", report.requests_shed},
      {"serve/cache_hits", report.cache_hits},
      {"serve/deadline_terminations", report.deadline_terminations},
      {"serve/batches", report.batches},
      {"serve/epoch_rebuilds", report.epochs_built},
      {"serve/postmortems", report.postmortems},
      {"serve/degraded_responses", report.degraded_responses},
      {"serve/degraded_fallbacks", report.degraded_fallbacks},
      {"serve/checkpoints_saved", report.checkpoints_saved},
      {"serve/checkpoints_restored", report.checkpoints_restored},
      {"serve/checkpoint_failures", report.checkpoint_failures},
      {"serve/faults_injected", report.faults_injected},
      {"serve/tier_fast", report.fast_responses},
      {"serve/fast_fallthroughs", report.fast_fallthroughs},
      {"serve/refines_enqueued", report.refines_enqueued},
      {"serve/refine_runs", report.refine_runs},
      {"serve/tier_upgrades", report.refine_upgrades},
      {"serve/refine_discards", report.refine_discards},
      {"resolve/updates", report.resolve_updates},
      {"resolve/noop_updates", report.resolve_noop_updates},
      {"resolve/deltas_classified", report.resolve_ops_applied},
      {"resolve/components_dirtied", report.resolve_components_dirtied},
      {"resolve/warm_repairs", report.resolves_warm},
      {"resolve/cold_fallbacks", report.resolves_cold},
      {"resolve/verify_rejections", report.resolve_verify_rejections},
      {"resolve/warm_customers_reused", report.warm_customers_reused},
      {"resolve/warm_customers_repaired", report.warm_customers_repaired},
  };
  for (const auto& [name, value] : metrics.counters) {
    if (name.rfind("serve/", 0) != 0 && name.rfind("resolve/", 0) != 0) {
      continue;
    }
    ASSERT_TRUE(fields.count(name) != 0) << name << " has no report field";
    EXPECT_EQ(value, fields.at(name)) << name;
  }
  for (const auto& [name, value] : fields) {
    const auto it = metrics.counters.find(name);
    EXPECT_EQ(it == metrics.counters.end() ? 0 : it->second, value) << name;
  }
  const obs::DistSnapshot& batch = metrics.distributions.at("serve/batch_size");
  EXPECT_EQ(batch.count, report.batches);
  EXPECT_EQ(static_cast<int>(batch.max), report.max_batch_size);
  EXPECT_EQ(metrics.distributions.at("serve/latency_seconds").count,
            report.latency.count);

  // Each event above happened.
  EXPECT_EQ(report.requests_shed, 1);
  EXPECT_EQ(report.requests_rejected, 1);
  EXPECT_EQ(report.requests_admitted, 7);
  EXPECT_EQ(report.requests_completed, 7);
  EXPECT_EQ(report.requests_failed, 1);
  EXPECT_EQ(report.latency.count, report.requests_completed);
  EXPECT_EQ(report.cache_hits, 2);
  EXPECT_EQ(report.degraded_responses, 1);
  EXPECT_EQ(report.fast_responses, 3);
  EXPECT_EQ(report.faults_injected, 3);
  EXPECT_EQ(report.refines_enqueued, 2);
  EXPECT_EQ(report.refine_runs, 2);
  EXPECT_EQ(report.refine_upgrades, 1);
  EXPECT_EQ(report.refine_discards, 1);
  EXPECT_EQ(report.resolve_updates, 2);
  EXPECT_EQ(report.resolve_noop_updates, 1);
  EXPECT_EQ(report.resolve_ops_applied, 5);
  EXPECT_GE(report.resolve_components_dirtied, 1);
  EXPECT_EQ(report.resolves_cold, 1);
  EXPECT_EQ(report.resolves_warm, 1);
  EXPECT_EQ(report.checkpoints_saved, 1);
  EXPECT_EQ(report.checkpoints_restored, 1);
  EXPECT_EQ(report.checkpoint_failures, 2);
  EXPECT_EQ(report.epochs_built, 3);
  EXPECT_GE(report.postmortems, 1);
}

// SLO rows are configuration, checked at construction like the catalog.
// A zero budget would report burn 0 however many requests violate.
TEST(ServeDeathTest, SloErrorBudgetOutsideUnitIntervalIsRejected) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  ServeFixture fx(43);
  ServiceOptions options;
  options.slos.push_back({"default", 5.0, 0.0});
  EXPECT_DEATH(fx.MakeService(options), "error_budget");
}

TEST(ServeDeathTest, SloTargetThatIsNotFiniteIsRejected) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  ServeFixture fx(43);
  ServiceOptions options;
  options.slos.push_back(
      {"default", std::numeric_limits<double>::quiet_NaN(), 0.01});
  EXPECT_DEATH(fx.MakeService(options), "target_latency_ms");
}

// "" reads "default": a second row for the same tier would never count.
TEST(ServeDeathTest, SloTierConfiguredTwiceIsRejected) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  ServeFixture fx(43);
  ServiceOptions options;
  options.slos.push_back({"", 5.0, 0.01});
  options.slos.push_back({"default", 50.0, 0.01});
  EXPECT_DEATH(fx.MakeService(options), "configured twice");
}

TEST(ServeTest, LatencySummaryQuantiles) {
  EXPECT_EQ(SummarizeLatencies({}).count, 0);
  const LatencySummary one = SummarizeLatencies({2.0});
  EXPECT_EQ(one.count, 1);
  EXPECT_DOUBLE_EQ(one.p50, 2.0);
  EXPECT_DOUBLE_EQ(one.p99, 2.0);
  EXPECT_DOUBLE_EQ(one.max, 2.0);
  std::vector<double> ramp;
  for (int i = 1; i <= 100; ++i) ramp.push_back(static_cast<double>(i));
  const LatencySummary summary = SummarizeLatencies(ramp);
  EXPECT_EQ(summary.count, 100);
  EXPECT_DOUBLE_EQ(summary.mean, 50.5);
  EXPECT_DOUBLE_EQ(summary.p50, 50.0);
  EXPECT_DOUBLE_EQ(summary.p99, 99.0);
  EXPECT_DOUBLE_EQ(summary.max, 100.0);
}

}  // namespace
}  // namespace mcfs
