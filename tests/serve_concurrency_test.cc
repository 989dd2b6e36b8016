// Concurrency contract of SolverService, written to run under TSan:
// requests racing a catalog update must each see one whole epoch (the
// pre- or the post-update catalog, never a torn mix), concurrent
// clients always receive responses bit-identical to direct SolveWma
// calls on the instances their requests describe, and the report and
// snapshot views over the service's counts never go backwards.

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <thread>
#include <vector>

#include "mcfs/common/fault_plan.h"
#include "mcfs/core/wma.h"
#include "mcfs/serve/solver_service.h"
#include "tests/test_util.h"

namespace mcfs {
namespace {

bool SameSolution(const McfsSolution& a, const McfsSolution& b) {
  return a.selected == b.selected && a.assignment == b.assignment &&
         a.distances == b.distances && a.objective == b.objective &&
         a.feasible == b.feasible && a.termination == b.termination;
}

TEST(ServeConcurrencyTest, RequestsRacingUpdatesSeeWholeEpochs) {
  Rng rng(31);
  testing_util::RandomInstance ri =
      testing_util::MakeRandomInstance(200, 60, 30, 12, 15, rng);
  const std::vector<int> caps_a = ri.instance.capacities;
  std::vector<int> caps_b = caps_a;
  for (int& c : caps_b) c = (c + 1) / 2;
  ASSERT_TRUE(IsFeasible(ri.instance));
  McfsInstance with_b = ri.instance;
  with_b.capacities = caps_b;
  ASSERT_TRUE(IsFeasible(with_b));

  // The two whole-epoch answers; a torn catalog (nodes of one epoch,
  // capacities of another, or a half-written component cache) could
  // match neither.
  const StatusOr<WmaResult> direct_a = SolveWma(ri.instance);
  const StatusOr<WmaResult> direct_b = SolveWma(with_b);
  ASSERT_TRUE(direct_a.ok());
  ASSERT_TRUE(direct_b.ok());

  SolverService service(ri.instance.graph, ri.instance.facility_nodes,
                        caps_a, {});

  constexpr int kClients = 3;
  constexpr int kRequestsPerClient = 10;
  std::vector<SolveResponse> responses(kClients * kRequestsPerClient);
  std::vector<std::thread> clients;
  for (int t = 0; t < kClients; ++t) {
    clients.emplace_back([&, t] {
      for (int r = 0; r < kRequestsPerClient; ++r) {
        responses[t * kRequestsPerClient + r] = service.SolveSync(
            {ri.instance.customers, ri.instance.k, {}, 0, nullptr});
      }
    });
  }
  // Race catalog updates against the in-flight requests. Epochs: 1 = A,
  // then each update alternates B, A, B, ... so odd epochs carry A.
  for (int u = 0; u < 6; ++u) {
    service.UpdateCapacities(u % 2 == 0 ? caps_b : caps_a);
    std::this_thread::yield();
  }
  for (std::thread& client : clients) client.join();
  EXPECT_EQ(service.epoch(), 7u);

  for (const SolveResponse& response : responses) {
    ASSERT_TRUE(response.status.ok()) << response.status.ToString();
    const WmaResult& expected = response.epoch % 2 == 1 ? direct_a.value()
                                                        : direct_b.value();
    EXPECT_TRUE(SameSolution(response.solution, expected.solution))
        << "epoch " << response.epoch;
  }
}

TEST(ServeConcurrencyTest, ConcurrentClientsGetBitIdenticalResponses) {
  Rng rng(32);
  testing_util::RandomInstance ri =
      testing_util::MakeRandomInstance(200, 60, 30, 12, 15, rng);

  // Distinct per-client requests (varying customer prefixes) with their
  // direct-solve references computed up front.
  constexpr int kClients = 8;
  std::vector<SolveRequest> requests;
  std::vector<WmaResult> expected;
  for (int t = 0; t < kClients; ++t) {
    SolveRequest request{ri.instance.customers, ri.instance.k, {}, 0,
                         nullptr};
    request.customers.resize(ri.instance.m() - 3 * t);
    McfsInstance instance = ri.instance;
    instance.customers = request.customers;
    StatusOr<WmaResult> direct = SolveWma(instance);
    ASSERT_TRUE(direct.ok());
    requests.push_back(std::move(request));
    expected.push_back(std::move(direct).value());
  }

  ServiceOptions options;
  options.serve_threads = 4;
  options.cache_capacity = 0;
  SolverService service(ri.instance.graph, ri.instance.facility_nodes,
                        ri.instance.capacities, options);

  std::vector<SolveResponse> responses(kClients);
  std::vector<std::thread> clients;
  for (int t = 0; t < kClients; ++t) {
    clients.emplace_back(
        [&, t] { responses[t] = service.SolveSync(requests[t]); });
  }
  for (std::thread& client : clients) client.join();

  for (int t = 0; t < kClients; ++t) {
    ASSERT_TRUE(responses[t].status.ok()) << responses[t].status.ToString();
    EXPECT_TRUE(SameSolution(responses[t].solution, expected[t].solution))
        << "client " << t;
  }
  const ServiceReport report = service.Report();
  EXPECT_EQ(report.requests_admitted, kClients);
  EXPECT_EQ(report.requests_completed, kClients);
  EXPECT_EQ(report.requests_failed, 0);
}

// Submit racing Shutdown: no matter where the race lands, every handle
// completes — with a real response or a typed kUnavailable rejection —
// and WaitFor never has to ride out its full timeout. The regression
// this pins down is a handle leaked mid-shutdown that Wait() would
// block on forever.
TEST(ServeConcurrencyTest, SubmitRacingShutdownCompletesEveryHandle) {
  Rng rng(34);
  testing_util::RandomInstance ri =
      testing_util::MakeRandomInstance(150, 40, 20, 8, 12, rng);

  for (const int serve_threads : {1, 2, 8}) {
    SCOPED_TRACE("serve_threads=" + std::to_string(serve_threads));
    ServiceOptions options;
    options.serve_threads = serve_threads;
    options.cache_capacity = 0;
    SolverService service(ri.instance.graph, ri.instance.facility_nodes,
                          ri.instance.capacities, options);

    constexpr int kClients = 4;
    constexpr int kRequestsPerClient = 12;
    std::vector<std::shared_ptr<ResponseHandle>> handles(
        kClients * kRequestsPerClient);
    std::atomic<int> submitted{0};
    std::vector<std::thread> clients;
    for (int t = 0; t < kClients; ++t) {
      clients.emplace_back([&, t] {
        for (int r = 0; r < kRequestsPerClient; ++r) {
          handles[t * kRequestsPerClient + r] = service.Submit(
              {ri.instance.customers, ri.instance.k, {}, 0, nullptr});
          submitted.fetch_add(1);
        }
      });
    }
    // Let the race develop, then slam the door while Submits are still
    // arriving.
    while (submitted.load() < kClients * kRequestsPerClient / 2) {
      std::this_thread::yield();
    }
    service.Shutdown();
    for (std::thread& client : clients) client.join();

    int completed = 0, rejected = 0;
    for (size_t i = 0; i < handles.size(); ++i) {
      ASSERT_NE(handles[i], nullptr);
      ASSERT_TRUE(handles[i]->WaitFor(60'000)) << "handle " << i << " hung";
      const SolveResponse& response = handles[i]->Wait();
      if (response.status.ok()) {
        ++completed;
      } else {
        // The only failure the race may produce is the typed rejection.
        ASSERT_EQ(response.status.code(), StatusCode::kUnavailable)
            << response.status.ToString();
        EXPECT_EQ(response.retry_after_ms, 0);  // shut down: retry is futile
        ++rejected;
      }
    }
    EXPECT_EQ(completed + rejected, kClients * kRequestsPerClient);

    const ServiceReport report = service.Report();
    EXPECT_EQ(report.requests_admitted + report.requests_rejected +
                  report.requests_shed,
              kClients * kRequestsPerClient);
    EXPECT_EQ(report.requests_completed, completed);
  }
}

TEST(ServeConcurrencyTest, HandleCanBeAwaitedFromSeveralThreads) {
  Rng rng(33);
  testing_util::RandomInstance ri =
      testing_util::MakeRandomInstance(150, 40, 20, 8, 12, rng);
  SolverService service(ri.instance.graph, ri.instance.facility_nodes,
                        ri.instance.capacities, {});
  auto handle =
      service.Submit({ri.instance.customers, ri.instance.k, {}, 0, nullptr});
  std::atomic<int> ok_count{0};
  std::vector<std::thread> waiters;
  for (int t = 0; t < 4; ++t) {
    waiters.emplace_back([&] {
      if (handle->Wait().status.ok()) ok_count.fetch_add(1);
    });
  }
  for (std::thread& waiter : waiters) waiter.join();
  EXPECT_EQ(ok_count.load(), 4);
}

// Report() and DebugSnapshot() are views over one set of counts. Polled
// while clients mix fast, full, degraded and shed requests, no count
// ever decreases; once the load and its refinements drain, the two views
// agree.
TEST(ServeConcurrencyTest, ReportAndSnapshotStayConsistentUnderLoad) {
  Rng rng(35);
  testing_util::RandomInstance ri =
      testing_util::MakeRandomInstance(150, 40, 20, 8, 12, rng);
  FaultPlanSpec spec;
  spec.seed = 7;
  spec.rate[static_cast<int>(FaultKind::kDeadlineCut)] = 0.5;
  spec.rate[static_cast<int>(FaultKind::kQueuePulse)] = 0.1;
  ServiceOptions options;
  options.serve_threads = 2;
  options.max_batch = 2;
  options.fault_plan = std::make_shared<FaultPlan>(spec);
  options.expected_solve_ms = 10000.0;  // SLA requests answer fast
  options.slos.push_back({"default", 1e9, 0.5});
  SolverService service(ri.instance.graph, ri.instance.facility_nodes,
                        ri.instance.capacities, options);

  struct Counts {
    std::vector<int64_t> report;
    std::vector<int64_t> snapshot;
  };
  const auto read = [&service] {
    const ServiceReport r = service.Report();
    const ServiceSnapshot s = service.DebugSnapshot();
    return Counts{{r.requests_admitted, r.requests_rejected,
                   r.requests_completed, r.requests_failed, r.requests_shed,
                   r.cache_hits, r.batches, r.postmortems,
                   r.degraded_responses, r.faults_injected, r.fast_responses,
                   r.refines_enqueued, r.refine_runs, r.refine_upgrades,
                   r.refine_discards, r.latency.count, r.latency_fast.count,
                   r.latency_full.count, r.slos[0].requests},
                  {s.latency.count, s.postmortems, s.degraded, s.shed,
                   s.fast, s.upgrades, s.slos[0].requests}};
  };
  std::atomic<bool> done{false};
  std::thread poller([&] {
    Counts last = read();
    do {
      const Counts now = read();
      for (size_t i = 0; i < now.report.size(); ++i) {
        EXPECT_GE(now.report[i], last.report[i]) << "report count " << i;
      }
      for (size_t i = 0; i < now.snapshot.size(); ++i) {
        EXPECT_GE(now.snapshot[i], last.snapshot[i]) << "snapshot count " << i;
      }
      last = now;
    } while (!done.load());
  });

  constexpr int kClients = 3;
  constexpr int kRequestsPerClient = 12;
  std::vector<std::thread> clients;
  for (int t = 0; t < kClients; ++t) {
    clients.emplace_back([&, t] {
      for (int r = 0; r < kRequestsPerClient; ++r) {
        // Eight identities, so repeats hit the cache; every other request
        // is an SLA request the instant responder answers.
        SolveRequest request;
        request.customers = ri.instance.customers;
        request.customers.resize(ri.instance.m() - 3 * ((t * 5 + r) % 8));
        request.k = ri.instance.k;
        request.allow_degraded = true;
        if (r % 2 == 0) request.max_latency_ms = 1;
        service.SolveSync(std::move(request));
      }
    });
  }
  for (std::thread& client : clients) client.join();
  service.DrainRefinements();
  done.store(true);
  poller.join();

  const ServiceReport report = service.Report();
  const ServiceSnapshot snap = service.DebugSnapshot();
  EXPECT_EQ(report.requests_admitted + report.requests_shed,
            kClients * kRequestsPerClient);
  EXPECT_GT(report.fast_responses, 0);
  EXPECT_EQ(snap.fast, report.fast_responses);
  EXPECT_EQ(snap.degraded, report.degraded_responses);
  EXPECT_EQ(snap.shed, report.requests_shed);
  EXPECT_EQ(snap.upgrades, report.refine_upgrades);
  EXPECT_EQ(snap.postmortems, report.postmortems);
  EXPECT_EQ(report.latency.count, report.requests_completed);
  EXPECT_EQ(snap.latency.count, report.requests_completed);
  EXPECT_EQ(report.slos[0].requests, report.requests_completed);
}

}  // namespace
}  // namespace mcfs
