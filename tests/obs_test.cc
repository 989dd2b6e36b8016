// Tests for the observability layer: sharded counter/distribution
// aggregation across threads, snapshot/reset semantics, macro gating,
// span nesting, the Chrome trace_event JSON export, log-scale
// histograms, request-scoped trace contexts, and the flight recorder.

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "mcfs/common/thread_pool.h"
#include "mcfs/core/wma.h"
#include "mcfs/graph/graph.h"
#include "mcfs/obs/flight_recorder.h"
#include "mcfs/obs/histogram.h"
#include "mcfs/obs/metrics.h"
#include "mcfs/obs/trace.h"

namespace mcfs {
namespace obs {
namespace {

class ObsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    EnableMetrics(true);
    ResetMetrics();
    ClearTrace();
    ClearFlightEvents();
  }
  void TearDown() override {
    EnableMetrics(false);
    EnableTracing(false);
    EnableFlightRecorder(false);
    ResetMetrics();
    ClearTrace();
    ClearFlightEvents();
  }
};

TEST_F(ObsTest, CounterMergesAcrossThreads) {
  Counter* counter =
      MetricsRegistry::Get().GetCounter("obs_test/threaded_counter");
  constexpr int kThreads = 8;
  constexpr int kAddsPerThread = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([counter] {
      for (int i = 0; i < kAddsPerThread; ++i) counter->Add(1);
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(counter->Value(),
            static_cast<int64_t>(kThreads) * kAddsPerThread);
}

TEST_F(ObsTest, DistributionMergesAcrossThreads) {
  Distribution* dist =
      MetricsRegistry::Get().GetDistribution("obs_test/threaded_dist");
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([dist, t] {
      for (int i = 0; i < 100; ++i) {
        dist->Observe(static_cast<double>(t * 100 + i));
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  const DistSnapshot snapshot = dist->Snapshot();
  EXPECT_EQ(snapshot.count, 400);
  EXPECT_DOUBLE_EQ(snapshot.min, 0.0);
  EXPECT_DOUBLE_EQ(snapshot.max, 399.0);
  // Sum of 0..399.
  EXPECT_DOUBLE_EQ(snapshot.sum, 399.0 * 400.0 / 2.0);
  EXPECT_DOUBLE_EQ(snapshot.Mean(), snapshot.sum / 400.0);
}

TEST_F(ObsTest, SnapshotAndReset) {
  MCFS_COUNT("obs_test/snap_counter", 7);
  MCFS_OBSERVE("obs_test/snap_dist", 2.5);
  MetricsSnapshot snapshot = SnapshotMetrics();
  EXPECT_EQ(snapshot.counters.at("obs_test/snap_counter"), 7);
  EXPECT_EQ(snapshot.distributions.at("obs_test/snap_dist").count, 1);
  EXPECT_DOUBLE_EQ(snapshot.distributions.at("obs_test/snap_dist").sum,
                   2.5);

  ResetMetrics();
  snapshot = SnapshotMetrics();
  // Registration survives a reset; values are zeroed.
  EXPECT_EQ(snapshot.counters.at("obs_test/snap_counter"), 0);
  EXPECT_EQ(snapshot.distributions.at("obs_test/snap_dist").count, 0);
}

TEST_F(ObsTest, DisabledMacrosDoNotRecord) {
  EnableMetrics(false);
  MCFS_COUNT("obs_test/disabled_counter", 5);
  MCFS_OBSERVE("obs_test/disabled_dist", 1.0);
  EnableMetrics(true);
  const MetricsSnapshot snapshot = SnapshotMetrics();
  EXPECT_EQ(snapshot.counters.count("obs_test/disabled_counter"), 0u);
  EXPECT_EQ(snapshot.distributions.count("obs_test/disabled_dist"), 0u);
}

TEST_F(ObsTest, MetricsJsonIsWellFormed) {
  MCFS_COUNT("obs_test/json_counter", 3);
  MCFS_OBSERVE("obs_test/json_dist", 1.5);
  const std::string json = MetricsJson(SnapshotMetrics());
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"obs_test/json_counter\": 3"), std::string::npos);
  EXPECT_NE(json.find("\"distributions\""), std::string::npos);
  EXPECT_NE(json.find("\"count\": 1"), std::string::npos);
}

TEST_F(ObsTest, JsonNumberSerializesNonFiniteAsNull) {
  EXPECT_EQ(JsonNumber(1.5), "1.5");
  EXPECT_EQ(JsonNumber(0.0), "0");
  EXPECT_EQ(JsonNumber(-3e7), "-30000000");
  EXPECT_EQ(JsonNumber(std::numeric_limits<double>::infinity()), "null");
  EXPECT_EQ(JsonNumber(-std::numeric_limits<double>::infinity()), "null");
  EXPECT_EQ(JsonNumber(std::numeric_limits<double>::quiet_NaN()), "null");
}

TEST_F(ObsTest, MetricsJsonHandlesEmptyDistributionMinMax) {
  // A registered-but-never-observed distribution snapshots with
  // min = +inf and max = -inf; the JSON must render those as null.
  MetricsRegistry::Get().GetDistribution("obs_test/empty_dist");
  const std::string json = MetricsJson(SnapshotMetrics());
  EXPECT_NE(json.find("\"obs_test/empty_dist\""), std::string::npos);
  EXPECT_NE(json.find("\"min\": null"), std::string::npos) << json;
  EXPECT_NE(json.find("\"max\": null"), std::string::npos) << json;
  EXPECT_EQ(json.find("inf"), std::string::npos) << json;
}

TEST_F(ObsTest, SpanNestingDepthsAndContainment) {
  EnableTracing(true);
  {
    MCFS_SPAN("obs_test/outer");
    {
      MCFS_SPAN("obs_test/inner");
      { MCFS_SPAN("obs_test/leaf"); }
    }
  }
  EnableTracing(false);
  const std::vector<TraceEvent> events = CollectTraceEvents();
  ASSERT_EQ(events.size(), 3u);
  // Sorted by start time: outer begins first.
  EXPECT_EQ(events[0].name, "obs_test/outer");
  EXPECT_EQ(events[0].depth, 0);
  EXPECT_EQ(events[1].name, "obs_test/inner");
  EXPECT_EQ(events[1].depth, 1);
  EXPECT_EQ(events[2].name, "obs_test/leaf");
  EXPECT_EQ(events[2].depth, 2);
  // Containment: each child starts and ends within its parent.
  for (int child = 1; child < 3; ++child) {
    EXPECT_GE(events[child].start_us, events[child - 1].start_us);
    EXPECT_LE(events[child].start_us + events[child].dur_us,
              events[child - 1].start_us + events[child - 1].dur_us);
  }
}

TEST_F(ObsTest, SpansFromExitedThreadsAreCollected) {
  EnableTracing(true);
  int main_tid = -1;
  {
    MCFS_SPAN("obs_test/main_thread");
  }
  std::thread worker([] { MCFS_SPAN("obs_test/worker_thread"); });
  worker.join();
  EnableTracing(false);
  const std::vector<TraceEvent> events = CollectTraceEvents();
  ASSERT_EQ(events.size(), 2u);
  for (const TraceEvent& event : events) {
    if (event.name == "obs_test/main_thread") main_tid = event.tid;
  }
  bool found_worker = false;
  for (const TraceEvent& event : events) {
    if (event.name == "obs_test/worker_thread") {
      found_worker = true;
      EXPECT_NE(event.tid, main_tid);
    }
  }
  EXPECT_TRUE(found_worker);
}

TEST_F(ObsTest, ChromeTraceJsonHasCompleteEvents) {
  EnableTracing(true);
  {
    MCFS_SPAN("obs_test/json_span");
  }
  EnableTracing(false);
  const std::string json = ChromeTraceJson();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"X\""), std::string::npos);
  EXPECT_NE(json.find("\"name\": \"obs_test/json_span\""),
            std::string::npos);
  EXPECT_NE(json.find("\"cat\": \"mcfs\""), std::string::npos);
  EXPECT_NE(json.find("\"ts\": "), std::string::npos);
  EXPECT_NE(json.find("\"dur\": "), std::string::npos);
  EXPECT_NE(json.find("\"pid\": "), std::string::npos);
  EXPECT_NE(json.find("\"tid\": "), std::string::npos);
}

TEST_F(ObsTest, DisabledSpansRecordNothing) {
  EnableTracing(false);
  {
    MCFS_SPAN("obs_test/never_recorded");
  }
  EXPECT_TRUE(CollectTraceEvents().empty());
}

TEST_F(ObsTest, JsonEscapeHandlesSpecials) {
  EXPECT_EQ(JsonEscape("plain"), "plain");
  EXPECT_EQ(JsonEscape("a\"b"), "a\\\"b");
  EXPECT_EQ(JsonEscape("a\\b"), "a\\\\b");
  EXPECT_EQ(JsonEscape("a\nb"), "a\\nb");
}

// --- Log-scale histograms (DESIGN.md §4.11) ---

TEST_F(ObsTest, HistogramBoundariesAreGeometric) {
  const double* bounds = HistogramBoundaries();
  EXPECT_DOUBLE_EQ(bounds[0], kHistogramMinBound);
  for (int i = 1; i < kHistogramBuckets - 1; ++i) {
    EXPECT_NEAR(bounds[i] / bounds[i - 1], kHistogramGrowth, 1e-9);
  }
  EXPECT_TRUE(std::isinf(bounds[kHistogramBuckets - 1]));
  EXPECT_EQ(HistogramBucketFor(0.0), 0);
  EXPECT_EQ(HistogramBucketFor(-1.0), 0);
  EXPECT_EQ(HistogramBucketFor(1e12), kHistogramBuckets - 1);
}

TEST_F(ObsTest, HistogramQuantilesWithinOneBucketOfExact) {
  Histogram hist("obs_test/quantiles");
  std::vector<double> samples;
  for (int i = 0; i < 500; ++i) {
    // Deterministic spread over ~5 decades of latency.
    samples.push_back(1e-5 * std::pow(1.03, i));
  }
  for (const double s : samples) hist.Observe(s);
  const HistogramSnapshot snapshot = hist.Snapshot();
  EXPECT_EQ(snapshot.count, 500);
  std::sort(samples.begin(), samples.end());
  EXPECT_DOUBLE_EQ(snapshot.min, samples.front());
  EXPECT_DOUBLE_EQ(snapshot.max, samples.back());
  for (const double q : {0.50, 0.95, 0.99}) {
    const size_t rank = static_cast<size_t>(
        std::max<int64_t>(1, static_cast<int64_t>(std::ceil(q * 500))));
    const double exact = samples[rank - 1];
    const double estimate = snapshot.Quantile(q);
    // The estimate is the bucket's upper bound: never below the exact
    // value, never more than one bucket width (kHistogramGrowth) above.
    EXPECT_GE(estimate * (1.0 + 1e-12), exact) << "q=" << q;
    EXPECT_LE(estimate, exact * kHistogramGrowth * (1.0 + 1e-12))
        << "q=" << q;
  }
  // Monotone and clamped to the exact extremes.
  EXPECT_LE(snapshot.Quantile(0.50), snapshot.Quantile(0.95));
  EXPECT_LE(snapshot.Quantile(0.95), snapshot.Quantile(0.99));
  EXPECT_LE(snapshot.Quantile(0.99), snapshot.max);
}

TEST_F(ObsTest, HistogramMergesAcrossThreads) {
  Histogram hist("obs_test/threaded_hist");
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&hist, t] {
      for (int i = 0; i < 100; ++i) {
        hist.Observe(1e-4 * (1 + t * 100 + i));
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  const HistogramSnapshot snapshot = hist.Snapshot();
  EXPECT_EQ(snapshot.count, 400);
  EXPECT_DOUBLE_EQ(snapshot.min, 1e-4);
  EXPECT_DOUBLE_EQ(snapshot.max, 1e-4 * 400);
  int64_t bucket_total = 0;
  for (const int64_t b : snapshot.buckets) bucket_total += b;
  EXPECT_EQ(bucket_total, 400);
}

TEST_F(ObsTest, HistogramSnapshotMergeAddsBucketwise) {
  Histogram a("obs_test/merge_a");
  Histogram b("obs_test/merge_b");
  a.Observe(1e-3);
  b.Observe(1e-1);
  HistogramSnapshot merged = a.Snapshot();
  merged.Merge(b.Snapshot());
  EXPECT_EQ(merged.count, 2);
  EXPECT_DOUBLE_EQ(merged.min, 1e-3);
  EXPECT_DOUBLE_EQ(merged.max, 1e-1);
  EXPECT_EQ(merged.buckets[HistogramBucketFor(1e-3)], 1);
  EXPECT_EQ(merged.buckets[HistogramBucketFor(1e-1)], 1);
}

TEST_F(ObsTest, HistogramExemplarCarriesTraceId) {
  Histogram hist("obs_test/exemplar");
  {
    ScopedTraceContext scope(uint64_t{42});
    hist.Observe(0.25);  // the tail observation
  }
  {
    ScopedTraceContext scope(uint64_t{7});
    hist.Observe(1e-5);
  }
  const HistogramSnapshot snapshot = hist.Snapshot();
  EXPECT_EQ(snapshot.exemplars[HistogramBucketFor(0.25)], 42u);
  EXPECT_EQ(snapshot.exemplars[HistogramBucketFor(1e-5)], 7u);
  EXPECT_EQ(snapshot.TailExemplar(0.99), 42u);
}

TEST_F(ObsTest, HistogramIgnoresNaN) {
  Histogram hist("obs_test/nan");
  hist.Observe(std::numeric_limits<double>::quiet_NaN());
  EXPECT_EQ(hist.Snapshot().count, 0);
}

TEST_F(ObsTest, HistogramJsonEmptyEmitsNulls) {
  Histogram hist("obs_test/empty_hist");
  const std::string json = HistogramJson(hist.Snapshot());
  EXPECT_NE(json.find("\"count\": 0"), std::string::npos) << json;
  EXPECT_NE(json.find("\"p99\": null"), std::string::npos) << json;
  EXPECT_EQ(json.find("inf"), std::string::npos) << json;
}

TEST_F(ObsTest, RegistryHistogramViaMacro) {
  MCFS_HISTOGRAM("obs_test/macro_hist", 0.5);
  MCFS_HISTOGRAM("obs_test/macro_hist", 0.5);
  const MetricsSnapshot snapshot = SnapshotMetrics();
  EXPECT_EQ(snapshot.histograms.at("obs_test/macro_hist").count, 2);
  const std::string json = MetricsJson(snapshot);
  EXPECT_NE(json.find("\"histograms\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"obs_test/macro_hist\""), std::string::npos) << json;
}

// --- Request-scoped trace contexts ---

TEST_F(ObsTest, ScopedTraceContextNestsAndRestores) {
  EXPECT_EQ(CurrentTraceId(), 0u);
  {
    ScopedTraceContext outer(uint64_t{11});
    EXPECT_EQ(CurrentTraceId(), 11u);
    {
      ScopedTraceContext inner(uint64_t{22});
      EXPECT_EQ(CurrentTraceId(), 22u);
    }
    EXPECT_EQ(CurrentTraceId(), 11u);
  }
  EXPECT_EQ(CurrentTraceId(), 0u);
}

TEST_F(ObsTest, NewTraceIdsAreUniqueAndNonzero) {
  const uint64_t a = NewTraceId();
  const uint64_t b = NewTraceId();
  EXPECT_NE(a, 0u);
  EXPECT_NE(b, 0u);
  EXPECT_NE(a, b);
}

TEST_F(ObsTest, SpansCarryTheActiveTraceId) {
  EnableTracing(true);
  const uint64_t id = NewTraceId();
  {
    ScopedTraceContext scope(id);
    MCFS_SPAN("obs_test/traced_span");
  }
  {
    MCFS_SPAN("obs_test/untraced_span");
  }
  EnableTracing(false);
  const std::vector<TraceEvent> events = CollectTraceEvents();
  ASSERT_EQ(events.size(), 2u);
  for (const TraceEvent& event : events) {
    if (event.name == "obs_test/traced_span") {
      EXPECT_EQ(event.trace_id, id);
    } else {
      EXPECT_EQ(event.trace_id, 0u);
    }
  }
}

// RunWma's phases each have a span, so wma/run's self time is only the
// glue between them. Here the cover picks one facility of k = 3 and
// leaves an isolated customer uncovered, so the wrap-up runs both
// SelectGreedy and CoverComponents.
TEST_F(ObsTest, WmaRecordsEachPhaseSpanOnce) {
  GraphBuilder builder(4);  // path 0 - 1 - 2; node 3 is isolated
  builder.AddEdge(0, 1, 1.0);
  builder.AddEdge(1, 2, 1.0);
  const Graph graph = builder.Build();
  McfsInstance instance;
  instance.graph = &graph;
  instance.customers = {0, 2, 3};
  instance.facility_nodes = {0, 1, 2};
  instance.capacities = {5, 5, 5};
  instance.k = 3;
  EnableTracing(true);
  WmaOptions options;
  options.threads = 1;
  const WmaResult result = RunWma(instance, options);
  EnableTracing(false);
  EXPECT_EQ(result.solution.selected.size(), 3u);
  std::map<std::string, int> spans;
  for (const TraceEvent& event : CollectTraceEvents()) ++spans[event.name];
  for (const char* name : {"wma/run", "wma/setup", "wma/select_greedy",
                           "wma/cover_components", "wma/final_assign"}) {
    EXPECT_EQ(spans[name], 1) << name;
  }
  EXPECT_GE(spans["wma/iteration"], 1);
}

TEST_F(ObsTest, TraceContextPropagatesThroughParallelFor) {
  EnableTracing(true);
  const uint64_t id = NewTraceId();
  {
    ScopedTraceContext scope(id);
    ParallelFor(
        0, 16, 1, [](int64_t) { MCFS_SPAN("obs_test/pool_span"); }, 4);
  }
  EnableTracing(false);
  const std::vector<TraceEvent> events = CollectTraceEvents();
  ASSERT_EQ(events.size(), 16u);
  for (const TraceEvent& event : events) {
    EXPECT_EQ(event.name, "obs_test/pool_span");
    // Pool workers inherit the dispatching thread's trace context.
    EXPECT_EQ(event.trace_id, id);
  }
}

TEST_F(ObsTest, ConfigureTraceFileBadPathWarnsAndDisables) {
  EnableTracing(true);
  std::string error;
  const std::string bad = "/nonexistent-mcfs-dir/trace.json";
  EXPECT_FALSE(ConfigureTraceFile(bad, &error));
  // The error is typed: it names the path and the disable action — and
  // tracing is actually off, not silently dropping spans on exit.
  EXPECT_NE(error.find(bad), std::string::npos) << error;
  EXPECT_NE(error.find("tracing disabled"), std::string::npos) << error;
  {
    MCFS_SPAN("obs_test/after_bad_path");
  }
  EXPECT_TRUE(CollectTraceEvents().empty());

  // A good path re-enables cleanly.
  const std::string good =
      ::testing::TempDir() + "/mcfs_obs_test_trace.json";
  EXPECT_TRUE(ConfigureTraceFile(good, &error));
  EXPECT_TRUE(error.empty());
  EXPECT_TRUE(TracingEnabled());
  EnableTracing(false);
}

// --- Flight recorder ---

TEST_F(ObsTest, FlightRecorderDisabledRecordsNothing) {
  EnableFlightRecorder(false);
  MCFS_RECORD("obs_test/never", 1, 2);
  EXPECT_TRUE(CollectFlightEvents(0).empty());
}

TEST_F(ObsTest, FlightRecorderKeepsMostRecentEvents) {
  EnableFlightRecorder(true);
  const int total = kFlightRingCapacity + 50;
  {
    ScopedTraceContext scope(uint64_t{99});
    for (int i = 0; i < total; ++i) {
      MCFS_RECORD("obs_test/ring", i, i * 2);
    }
  }
  EnableFlightRecorder(false);
  const std::vector<FlightEvent> events = CollectFlightEvents(0);
  ASSERT_EQ(events.size(), static_cast<size_t>(kFlightRingCapacity));
  // Oldest-first, the wrap dropped exactly the first 50.
  EXPECT_EQ(events.front().a, 50);
  EXPECT_EQ(events.back().a, total - 1);
  for (size_t i = 1; i < events.size(); ++i) {
    EXPECT_LE(events[i - 1].t_us, events[i].t_us);
    EXPECT_EQ(events[i].a, events[i - 1].a + 1);
  }
  for (const FlightEvent& event : events) {
    EXPECT_EQ(event.name, "obs_test/ring");
    EXPECT_EQ(event.trace_id, 99u);
    EXPECT_EQ(event.b, event.a * 2);
  }
}

TEST_F(ObsTest, FlightRecorderBoundsAndMergesAcrossThreads) {
  EnableFlightRecorder(true);
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([t] {
      for (int i = 0; i < 10; ++i) {
        MCFS_RECORD("obs_test/multi", t, i);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EnableFlightRecorder(false);
  EXPECT_EQ(CollectFlightEvents(0).size(), 40u);
  // max_events trims to the most recent N across all rings.
  EXPECT_EQ(CollectFlightEvents(12).size(), 12u);
}

TEST_F(ObsTest, FlightRecorderDumpWhileRecordingIsConsistent) {
  // Seqlock smoke (and the TSan job's race check): one writer loops
  // while readers dump; every event read out must be internally
  // consistent (b == 2 * a), torn slots skipped, never misread.
  EnableFlightRecorder(true);
  std::atomic<bool> stop{false};
  std::thread writer([&stop] {
    int64_t i = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      MCFS_RECORD("obs_test/race", i, i * 2);
      ++i;
    }
  });
  for (int round = 0; round < 50; ++round) {
    for (const FlightEvent& event : CollectFlightEvents(0)) {
      ASSERT_EQ(event.b, event.a * 2);
      ASSERT_EQ(event.name, "obs_test/race");
    }
  }
  stop.store(true, std::memory_order_relaxed);
  writer.join();
  EnableFlightRecorder(false);
}

TEST_F(ObsTest, FlightEventsJsonShape) {
  EnableFlightRecorder(true);
  {
    ScopedTraceContext scope(uint64_t{5});
    MCFS_RECORD("obs_test/json_event", 3, 4);
  }
  EnableFlightRecorder(false);
  const std::string json = FlightEventsJson(0);
  EXPECT_NE(json.find("\"name\": \"obs_test/json_event\""),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("\"trace_id\": 5"), std::string::npos) << json;
  EXPECT_NE(json.find("\"a\": 3"), std::string::npos) << json;
  EXPECT_NE(json.find("\"b\": 4"), std::string::npos) << json;
}

}  // namespace
}  // namespace obs
}  // namespace mcfs
