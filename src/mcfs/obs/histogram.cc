#include "mcfs/obs/histogram.h"

#include <algorithm>
#include <cmath>

#include "mcfs/obs/metrics.h"
#include "mcfs/obs/trace.h"

namespace mcfs {
namespace obs {

namespace {

// CAS folds shared with Distribution (metrics.cc keeps its own copies
// in an anonymous namespace; duplicated here rather than exported to
// keep the metrics header surface minimal).
void AtomicAddDouble(std::atomic<double>& target, double delta) {
  double current = target.load(std::memory_order_relaxed);
  while (!target.compare_exchange_weak(current, current + delta,
                                       std::memory_order_relaxed)) {
  }
}

void AtomicMinDouble(std::atomic<double>& target, double value) {
  double current = target.load(std::memory_order_relaxed);
  while (value < current && !target.compare_exchange_weak(
                                current, value, std::memory_order_relaxed)) {
  }
}

void AtomicMaxDouble(std::atomic<double>& target, double value) {
  double current = target.load(std::memory_order_relaxed);
  while (value > current && !target.compare_exchange_weak(
                                current, value, std::memory_order_relaxed)) {
  }
}

struct BoundaryTable {
  double bounds[kHistogramBuckets];
  BoundaryTable() {
    double bound = kHistogramMinBound;
    for (int i = 0; i < kHistogramBuckets - 1; ++i) {
      bounds[i] = bound;
      bound *= kHistogramGrowth;
    }
    bounds[kHistogramBuckets - 1] = std::numeric_limits<double>::infinity();
  }
};

}  // namespace

const double* HistogramBoundaries() {
  static const BoundaryTable table;
  return table.bounds;
}

int HistogramBucketFor(double value) {
  const double* bounds = HistogramBoundaries();
  // Linear-free lookup: boundaries are sorted, so upper_bound finds the
  // first bucket whose (exclusive) upper bound exceeds `value`. The
  // last entry is +inf, so the result is always in range. Negative and
  // NaN-free zero values land in bucket 0.
  const double* it =
      std::upper_bound(bounds, bounds + kHistogramBuckets, value);
  int index = static_cast<int>(it - bounds);
  if (index >= kHistogramBuckets) index = kHistogramBuckets - 1;
  return index;
}

double HistogramSnapshot::Quantile(double q) const {
  if (count == 0) return 0.0;
  if (q < 0.0) q = 0.0;
  if (q > 1.0) q = 1.0;
  // Nearest-rank: the smallest value whose cumulative count reaches
  // rank = ceil(q * count), with rank at least 1.
  int64_t rank = static_cast<int64_t>(std::ceil(q * static_cast<double>(count)));
  if (rank < 1) rank = 1;
  const double* bounds = HistogramBoundaries();
  int64_t cumulative = 0;
  double estimate = max;
  for (int i = 0; i < kHistogramBuckets; ++i) {
    cumulative += buckets[i];
    if (cumulative >= rank) {
      // Upper bound of the bucket; the overflow bucket has no finite
      // bound, so it reports the exact max instead.
      estimate = (i == kHistogramBuckets - 1) ? max : bounds[i];
      break;
    }
  }
  // Clamp to the exact extremes so p99 <= max and quantiles of a
  // single-sample histogram equal that sample's recorded bounds.
  if (estimate > max) estimate = max;
  if (estimate < min) estimate = min;
  return estimate;
}

uint64_t HistogramSnapshot::TailExemplar(double q) const {
  if (count == 0) return 0;
  if (q < 0.0) q = 0.0;
  if (q > 1.0) q = 1.0;
  int64_t rank = static_cast<int64_t>(std::ceil(q * static_cast<double>(count)));
  if (rank < 1) rank = 1;
  int64_t cumulative = 0;
  int quantile_bucket = kHistogramBuckets - 1;
  for (int i = 0; i < kHistogramBuckets; ++i) {
    cumulative += buckets[i];
    if (cumulative >= rank) {
      quantile_bucket = i;
      break;
    }
  }
  // Prefer the highest attributed bucket at or above the quantile
  // bucket: the worst recent request is the most useful pointer.
  for (int i = kHistogramBuckets - 1; i >= quantile_bucket; --i) {
    if (buckets[i] > 0 && exemplars[i] != 0) return exemplars[i];
  }
  return 0;
}

void HistogramSnapshot::Merge(const HistogramSnapshot& other) {
  count += other.count;
  sum += other.sum;
  min = std::min(min, other.min);
  max = std::max(max, other.max);
  for (int i = 0; i < kHistogramBuckets; ++i) {
    buckets[i] += other.buckets[i];
    if (other.exemplars[i] != 0) exemplars[i] = other.exemplars[i];
  }
}

void Histogram::Observe(double value) {
  if (std::isnan(value)) return;
  const int bucket = HistogramBucketFor(value);
  Slot& slot = slots_[MetricShardIndex() % kHistogramShards];
  slot.count.fetch_add(1, std::memory_order_relaxed);
  AtomicAddDouble(slot.sum, value);
  AtomicMinDouble(slot.min, value);
  AtomicMaxDouble(slot.max, value);
  slot.buckets[bucket].fetch_add(1, std::memory_order_relaxed);
  const uint64_t trace_id = CurrentTraceId();
  if (trace_id != 0) {
    exemplars_[bucket].store(trace_id, std::memory_order_relaxed);
  }
}

HistogramSnapshot Histogram::Snapshot() const {
  HistogramSnapshot snapshot;
  for (const Slot& slot : slots_) {
    snapshot.count += slot.count.load(std::memory_order_relaxed);
    snapshot.sum += slot.sum.load(std::memory_order_relaxed);
    snapshot.min =
        std::min(snapshot.min, slot.min.load(std::memory_order_relaxed));
    snapshot.max =
        std::max(snapshot.max, slot.max.load(std::memory_order_relaxed));
    for (int i = 0; i < kHistogramBuckets; ++i) {
      snapshot.buckets[i] += slot.buckets[i].load(std::memory_order_relaxed);
    }
  }
  for (int i = 0; i < kHistogramBuckets; ++i) {
    snapshot.exemplars[i] = exemplars_[i].load(std::memory_order_relaxed);
  }
  return snapshot;
}

void Histogram::Reset() {
  for (Slot& slot : slots_) {
    slot.count.store(0, std::memory_order_relaxed);
    slot.sum.store(0.0, std::memory_order_relaxed);
    slot.min.store(std::numeric_limits<double>::infinity(),
                   std::memory_order_relaxed);
    slot.max.store(-std::numeric_limits<double>::infinity(),
                   std::memory_order_relaxed);
    for (int i = 0; i < kHistogramBuckets; ++i) {
      slot.buckets[i].store(0, std::memory_order_relaxed);
    }
  }
  for (int i = 0; i < kHistogramBuckets; ++i) {
    exemplars_[i].store(0, std::memory_order_relaxed);
  }
}

std::string HistogramJson(const HistogramSnapshot& snapshot) {
  const double* bounds = HistogramBoundaries();
  std::string json = "{";
  json += "\"count\": " + std::to_string(snapshot.count);
  if (snapshot.count == 0) {
    // Empty histograms have no data: every statistic is null, and the
    // bucket list is empty — never -inf/inf garbage (obs::JsonNumber
    // would render those as null too, but being explicit keeps the
    // schema stable for the CI validators).
    json +=
        ", \"sum\": null, \"min\": null, \"max\": null, \"mean\": null"
        ", \"p50\": null, \"p95\": null, \"p99\": null, \"buckets\": []}";
    return json;
  }
  json += ", \"sum\": " + JsonNumber(snapshot.sum);
  json += ", \"min\": " + JsonNumber(snapshot.min);
  json += ", \"max\": " + JsonNumber(snapshot.max);
  json += ", \"mean\": " + JsonNumber(snapshot.Mean());
  json += ", \"p50\": " + JsonNumber(snapshot.Quantile(0.50));
  json += ", \"p95\": " + JsonNumber(snapshot.Quantile(0.95));
  json += ", \"p99\": " + JsonNumber(snapshot.Quantile(0.99));
  json += ", \"buckets\": [";
  bool first = true;
  for (int i = 0; i < kHistogramBuckets; ++i) {
    if (snapshot.buckets[i] == 0) continue;
    if (!first) json += ", ";
    first = false;
    json += '[';
    json += JsonNumber(bounds[i]) + ", " +
            std::to_string(snapshot.buckets[i]) + ", " +
            std::to_string(snapshot.exemplars[i]) + "]";
  }
  json += "]}";
  return json;
}

}  // namespace obs
}  // namespace mcfs
