#include "mcfs/flow/matcher_backend.h"

#include <cstdlib>

#include "mcfs/common/check.h"

namespace mcfs {
namespace {

// Crossover thresholds of the `auto` model, fitted on the committed
// BENCH_matcher_backends.json sweep (see DESIGN.md §4.12): e-scaling
// overtakes SSPA only once the matching is *near-saturated* — with
// occupancy at ~1.0 every late customer rewires a long augmenting
// chain, so SSPA pays repeated label-correcting passes while the
// refine/discharge waves amortize that work across the whole batch.
// Below ~0.96 occupancy SSPA's first candidates mostly stick and its
// lazy per-customer searches touch a fraction of the arcs a global
// refine pass must scan (measured 4-8x faster on the sparse preset).
// The batch must also be wide enough (customers, facilities) that the
// scaling engine's fixed per-refine costs amortize; the sweep's
// "crossover" cells (m~560-620, l~35-40, occ 0.97-1.0) are the
// boundary, where cost scaling wins by only ~1.2-1.5x.
constexpr int64_t kAutoMinFacilities = 32;
constexpr int64_t kAutoMinCustomers = 512;
constexpr double kAutoMinOccupancy = 0.96;

}  // namespace

const char* MatcherBackendName(MatcherBackendKind kind) {
  switch (kind) {
    case MatcherBackendKind::kSspa:
      return "sspa";
    case MatcherBackendKind::kCostScaling:
      return "cost_scaling";
    case MatcherBackendKind::kAuto:
      return "auto";
  }
  return "unknown";
}

StatusOr<MatcherBackendKind> ParseMatcherBackend(const std::string& name) {
  std::string normalized = name;
  for (char& c : normalized) {
    if (c == '-') c = '_';
  }
  if (normalized == "sspa") return MatcherBackendKind::kSspa;
  if (normalized == "cost_scaling") return MatcherBackendKind::kCostScaling;
  if (normalized == "auto") return MatcherBackendKind::kAuto;
  return InvalidInputError("unknown matcher backend \"" + name +
                           "\" (expected sspa | cost_scaling | auto)");
}

MatcherBackendKind MatcherBackendFromEnv(MatcherBackendKind fallback) {
  const char* env = std::getenv("MCFS_MATCHER");
  if (env == nullptr || env[0] == '\0') return fallback;
  StatusOr<MatcherBackendKind> parsed = ParseMatcherBackend(env);
  MCFS_CHECK(parsed.ok()) << "MCFS_MATCHER: " << parsed.status().ToString();
  return *parsed;
}

MatcherBackendKind ResolveMatcherBackend(MatcherBackendKind requested,
                                         const MatchShape& shape) {
  if (requested != MatcherBackendKind::kAuto) return requested;
  // Warm shapes stay on SSPA regardless of size: cost scaling refuses
  // exported seeds, and a cold re-solve would forfeit more than the
  // refine passes recover.
  if (shape.warm) return MatcherBackendKind::kSspa;
  if (shape.facilities >= kAutoMinFacilities &&
      shape.customers >= kAutoMinCustomers &&
      shape.Occupancy() >= kAutoMinOccupancy) {
    return MatcherBackendKind::kCostScaling;
  }
  return MatcherBackendKind::kSspa;
}

}  // namespace mcfs
