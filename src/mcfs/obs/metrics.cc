#include "mcfs/obs/metrics.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <vector>

namespace mcfs {
namespace obs {

std::atomic<bool> g_metrics_enabled{false};

namespace {

// Reads MCFS_METRICS once at program start (dynamic initialization).
// Code that runs earlier simply sees metrics disabled, which is safe.
const bool g_env_init = [] {
  const char* env = std::getenv("MCFS_METRICS");
  if (env != nullptr && env[0] != '\0' && env[0] != '0') {
    g_metrics_enabled.store(true, std::memory_order_relaxed);
  }
  return true;
}();

std::atomic<int> g_next_thread_index{0};

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

}  // namespace

void EnableMetrics(bool enabled) {
  (void)g_env_init;
  g_metrics_enabled.store(enabled, std::memory_order_relaxed);
}

int MetricShardIndex() {
  thread_local const int index =
      g_next_thread_index.fetch_add(1, std::memory_order_relaxed) %
      kMetricShards;
  return index;
}

int64_t Counter::Value() const {
  int64_t total = 0;
  for (const Slot& slot : slots_) {
    total += slot.value.load(std::memory_order_relaxed);
  }
  return total;
}

void Counter::Reset() {
  for (Slot& slot : slots_) slot.value.store(0, std::memory_order_relaxed);
}

void Distribution::Observe(double value) {
  Slot& slot = slots_[MetricShardIndex()];
  slot.count.fetch_add(1, std::memory_order_relaxed);
  AtomicAddDouble(slot.sum, value);
  AtomicMinDouble(slot.min, value);
  AtomicMaxDouble(slot.max, value);
}

DistSnapshot Distribution::Snapshot() const {
  DistSnapshot result;
  for (const Slot& slot : slots_) {
    const int64_t count = slot.count.load(std::memory_order_relaxed);
    if (count == 0) continue;
    result.count += count;
    result.sum += slot.sum.load(std::memory_order_relaxed);
    const double lo = slot.min.load(std::memory_order_relaxed);
    const double hi = slot.max.load(std::memory_order_relaxed);
    if (lo < result.min) result.min = lo;
    if (hi > result.max) result.max = hi;
  }
  return result;
}

void Distribution::Reset() {
  for (Slot& slot : slots_) {
    slot.count.store(0, std::memory_order_relaxed);
    slot.sum.store(0.0, std::memory_order_relaxed);
    slot.min.store(std::numeric_limits<double>::infinity(),
                   std::memory_order_relaxed);
    slot.max.store(-std::numeric_limits<double>::infinity(),
                   std::memory_order_relaxed);
  }
}

MetricsRegistry& MetricsRegistry::Get() {
  // Leaked on purpose: hot paths cache Counter*/Distribution* pointers
  // in function-local statics, which must stay valid during static
  // destruction of other objects.
  static MetricsRegistry* registry = new MetricsRegistry();
  return *registry;
}

Counter* MetricsRegistry::GetCounter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto& slot = counters_[name];
  if (slot == nullptr) slot = std::make_unique<Counter>(name);
  return slot.get();
}

Distribution* MetricsRegistry::GetDistribution(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto& slot = distributions_[name];
  if (slot == nullptr) slot = std::make_unique<Distribution>(name);
  return slot.get();
}

Histogram* MetricsRegistry::GetHistogram(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto& slot = histograms_[name];
  if (slot == nullptr) slot = std::make_unique<Histogram>(name);
  return slot.get();
}

MetricsSnapshot MetricsRegistry::Snapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  MetricsSnapshot snapshot;
  for (const auto& [name, counter] : counters_) {
    snapshot.counters[name] = counter->Value();
  }
  for (const auto& [name, dist] : distributions_) {
    snapshot.distributions[name] = dist->Snapshot();
  }
  for (const auto& [name, hist] : histograms_) {
    snapshot.histograms[name] = hist->Snapshot();
  }
  return snapshot;
}

void MetricsRegistry::Reset() {
  std::lock_guard<std::mutex> lock(mutex_);
  for (auto& [name, counter] : counters_) counter->Reset();
  for (auto& [name, dist] : distributions_) dist->Reset();
  for (auto& [name, hist] : histograms_) hist->Reset();
}

std::string JsonEscape(const std::string& text) {
  std::string out;
  out.reserve(text.size() + 2);
  for (const char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buffer[8];
          std::snprintf(buffer, sizeof(buffer), "\\u%04x", c);
          out += buffer;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string JsonNumber(double value) {
  if (!std::isfinite(value)) return "null";
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

std::string MetricsJson(const MetricsSnapshot& snapshot) {
  std::string json = "{\"counters\": {";
  bool first = true;
  for (const auto& [name, value] : snapshot.counters) {
    if (!first) json += ", ";
    first = false;
    json += '"';
    json += JsonEscape(name) + "\": " + std::to_string(value);
  }
  json += "}, \"distributions\": {";
  first = true;
  for (const auto& [name, dist] : snapshot.distributions) {
    if (!first) json += ", ";
    first = false;
    json += '"';
    json += JsonEscape(name) + "\": {\"count\": " +
            std::to_string(dist.count) + ", \"sum\": " + JsonNumber(dist.sum) +
            ", \"min\": " + JsonNumber(dist.min) +
            ", \"max\": " + JsonNumber(dist.max) + "}";
  }
  json += "}, \"histograms\": {";
  first = true;
  for (const auto& [name, hist] : snapshot.histograms) {
    if (!first) json += ", ";
    first = false;
    json += '"';
    json += JsonEscape(name) + "\": " + HistogramJson(hist);
  }
  json += "}}";
  return json;
}

}  // namespace obs
}  // namespace mcfs
