#ifndef MCFS_SERVE_SERVICE_COUNTS_H_
#define MCFS_SERVE_SERVICE_COUNTS_H_

#include <cstdint>
#include <deque>

#include "mcfs/obs/histogram.h"
#include "mcfs/obs/metrics.h"
#include "mcfs/serve/service_report.h"

namespace mcfs {

// SolverService's one source of counts (DESIGN.md §4.9). Each serving
// event is recorded once, at one call site, into metrics the service
// owns: always on, and per service, since the process registry is off by
// default and shared by every service in the process. Report() and
// DebugSnapshot() only read them. With process metrics enabled, each
// record is mirrored into the registry metric named in the same row of
// the name table (service_counts.cc), so with one service in the process
// every `serve/*` and `resolve/*` counter equals its report field.
class ServiceCounts {
 public:
  // Plain events, one ServiceReport field each.
  enum Count {
    kRequestsAdmitted, kRequestsRejected, kRequestsFailed, kRequestsShed,
    kCacheHits, kDeadlineTerminations, kPostmortems, kDegradedFallbacks,
    kCheckpointsSaved, kCheckpointsRestored, kCheckpointFailures,
    kFaultsInjected, kFastFallthroughs, kRefinesEnqueued, kRefineRuns,
    kRefineUpgrades, kRefineDiscards, kResolveUpdates, kNoopUpdates,
    kOpsApplied, kComponentsDirtied, kVerifyRejections,
    kWarmCustomersReused, kWarmCustomersRepaired, kNumCounts
  };
  // Sized or timed events (a Distribution each), then end-to-end request
  // latency (a Histogram each): every completion, and the OK responses
  // by served tier. The number of observations is the event count:
  // batches, epochs built, warm and cold resolves, completed requests,
  // fast and degraded responses.
  enum Observed {
    kBatchSize, kWarmBuildSeconds, kQueueSeconds, kPreprocessSeconds,
    kSolveSeconds, kResolveWarmSeconds, kResolveColdSeconds,
    kLatencyAll, kLatencyFast, kLatencyFull, kLatencyDegraded, kNumObserved
  };

  ServiceCounts();

  void Add(Count count, int64_t n = 1);
  // A latency's bucket exemplar is the calling thread's trace id.
  void Observe(Observed observed, double value);

  // Fills every ServiceReport field a count, distribution or latency
  // histogram describes.
  void FillReport(ServiceReport* report) const;

 private:
  // Deques: the metrics can be neither copied nor moved.
  std::deque<obs::Counter> counts_;
  std::deque<obs::Distribution> dists_;
  std::deque<obs::Histogram> latencies_;
};

}  // namespace mcfs

#endif  // MCFS_SERVE_SERVICE_COUNTS_H_
