#include "mcfs/serve/service_counts.h"

namespace mcfs {

namespace {

using C = ServiceCounts;
using R = ServiceReport;

// The name table. A count row names the registry counter the count
// mirrors to and the report field it fills.
struct CountRow {
  const char* name;
  int64_t R::*field;
};
const CountRow kCountRows[C::kNumCounts] = {
    {"serve/requests_admitted", &R::requests_admitted},
    {"serve/requests_rejected", &R::requests_rejected},
    {"serve/requests_failed", &R::requests_failed},
    {"serve/requests_shed", &R::requests_shed},
    {"serve/cache_hits", &R::cache_hits},
    {"serve/deadline_terminations", &R::deadline_terminations},
    {"serve/postmortems", &R::postmortems},
    {"serve/degraded_fallbacks", &R::degraded_fallbacks},
    {"serve/checkpoints_saved", &R::checkpoints_saved},
    {"serve/checkpoints_restored", &R::checkpoints_restored},
    {"serve/checkpoint_failures", &R::checkpoint_failures},
    {"serve/faults_injected", &R::faults_injected},
    {"serve/fast_fallthroughs", &R::fast_fallthroughs},
    {"serve/refines_enqueued", &R::refines_enqueued},
    {"serve/refine_runs", &R::refine_runs},
    {"serve/tier_upgrades", &R::refine_upgrades},
    {"serve/refine_discards", &R::refine_discards},
    {"resolve/updates", &R::resolve_updates},
    {"resolve/noop_updates", &R::resolve_noop_updates},
    {"resolve/deltas_classified", &R::resolve_ops_applied},
    {"resolve/components_dirtied", &R::resolve_components_dirtied},
    {"resolve/verify_rejections", &R::resolve_verify_rejections},
    {"resolve/warm_customers_reused", &R::warm_customers_reused},
    {"resolve/warm_customers_repaired", &R::warm_customers_repaired},
};

// An observed row mirrors to the registry distribution `name` and, when
// `count_name` is set, also counts the event under that registry
// counter. `count`, `sum` (distributions) and `latency` (histograms) are
// the report fields it fills; null = none.
struct ObservedRow {
  const char* name;
  const char* count_name = nullptr;
  int64_t R::*count = nullptr;
  double R::*sum = nullptr;
  LatencySummary R::*latency = nullptr;
};
const ObservedRow kObservedRows[C::kNumObserved] = {
    {"serve/batch_size", "serve/batches", &R::batches},
    {"serve/warm_build_seconds", "serve/epoch_rebuilds", &R::epochs_built,
     &R::warm_build_seconds},
    {"serve/queue_seconds", nullptr, nullptr, &R::queue_seconds_total},
    {"serve/preprocess_seconds", nullptr, nullptr,
     &R::preprocess_seconds_total},
    {"serve/solve_seconds", nullptr, nullptr, &R::solve_seconds_total},
    {"resolve/warm_seconds", "resolve/warm_repairs", &R::resolves_warm,
     &R::resolve_warm_seconds},
    {"resolve/cold_seconds", "resolve/cold_fallbacks", &R::resolves_cold,
     &R::resolve_cold_seconds},
    {"serve/latency_seconds", "serve/requests_completed",
     &R::requests_completed, nullptr, &R::latency},
    {"serve/latency_fast_seconds", "serve/tier_fast", &R::fast_responses,
     nullptr, &R::latency_fast},
    {"serve/latency_full_seconds", nullptr, nullptr, nullptr,
     &R::latency_full},
    {"serve/latency_degraded_seconds", "serve/degraded_responses",
     &R::degraded_responses, nullptr, &R::latency_degraded},
};

// The registry twins of every row, looked up the first time a record
// finds metrics enabled: a process that never enables them never
// registers these names.
struct Mirror {
  obs::Counter* counts[C::kNumCounts];
  obs::Distribution* observed[C::kNumObserved];
  obs::Counter* observed_counts[C::kNumObserved];  // null = no count_name

  Mirror() {
    obs::MetricsRegistry& registry = obs::MetricsRegistry::Get();
    for (int i = 0; i < C::kNumCounts; ++i) {
      counts[i] = registry.GetCounter(kCountRows[i].name);
    }
    for (int i = 0; i < C::kNumObserved; ++i) {
      const char* count_name = kObservedRows[i].count_name;
      observed[i] = registry.GetDistribution(kObservedRows[i].name);
      observed_counts[i] =
          count_name == nullptr ? nullptr : registry.GetCounter(count_name);
    }
  }
};

const Mirror& Registry() {
  static const Mirror mirror;
  return mirror;
}

}  // namespace

ServiceCounts::ServiceCounts() {
  for (const CountRow& row : kCountRows) counts_.emplace_back(row.name);
  for (int i = 0; i < kNumObserved; ++i) {
    if (i < kLatencyAll) {
      dists_.emplace_back(kObservedRows[i].name);
    } else {
      latencies_.emplace_back(kObservedRows[i].name);
    }
  }
}

void ServiceCounts::Add(Count count, int64_t n) {
  counts_[count].Add(n);
  if (obs::MetricsEnabled()) Registry().counts[count]->Add(n);
}

void ServiceCounts::Observe(Observed observed, double value) {
  if (observed < kLatencyAll) {
    dists_[observed].Observe(value);
  } else {
    latencies_[observed - kLatencyAll].Observe(value);
  }
  if (!obs::MetricsEnabled()) return;
  const Mirror& mirror = Registry();
  mirror.observed[observed]->Observe(value);
  if (mirror.observed_counts[observed] != nullptr) {
    mirror.observed_counts[observed]->Add(1);
  }
}

void ServiceCounts::FillReport(ServiceReport* report) const {
  for (int i = 0; i < kNumCounts; ++i) {
    report->*kCountRows[i].field = counts_[i].Value();
  }
  for (int i = 0; i < kNumObserved; ++i) {
    const ObservedRow& row = kObservedRows[i];
    int64_t count = 0;
    if (i < kLatencyAll) {
      const obs::DistSnapshot dist = dists_[i].Snapshot();
      count = dist.count;
      if (row.sum != nullptr) report->*row.sum = dist.sum;
      if (i == kBatchSize && count > 0) {
        report->max_batch_size = static_cast<int>(dist.max);
      }
    } else {
      const obs::HistogramSnapshot latency =
          latencies_[i - kLatencyAll].Snapshot();
      count = latency.count;
      report->*row.latency = SummarizeHistogram(latency);
    }
    if (row.count != nullptr) report->*row.count = count;
  }
}

}  // namespace mcfs
