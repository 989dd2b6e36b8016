#ifndef MCFS_FLOW_MATCHER_BACKEND_H_
#define MCFS_FLOW_MATCHER_BACKEND_H_

#include <cstdint>
#include <string>

#include "mcfs/common/status.h"

namespace mcfs {

// Which min-cost matching engine solves a batch assignment (DESIGN.md
// §4.12). This header is selection policy only; there is no engine
// interface. AssignOptimally (core/instance.h) resolves the kind and
// calls the engine directly: IncrementalMatcher through
// AssignWithMatcher for kSspa, CostScalingMatcher::MatchAll for
// kCostScaling. The SSPA matcher stays the only engine for the
// incremental one-unit-at-a-time workloads (WMA's demand-growth loop,
// warm-seed resume); selection applies to the *batch* assignments: the
// final matching after selection, the baselines' finishing step, and
// the exact solver's dense transportation bounds.
enum class MatcherBackendKind {
  kSspa = 0,         // successive shortest paths (flow/matcher.h)
  kCostScaling = 1,  // e-scaling refine/discharge (flow/cost_scaling.h)
  kAuto = 2,         // pick by instance shape (ResolveMatcherBackend)
};

// Stable lowercase name, also the accepted --matcher flag spelling:
// "sspa" | "cost_scaling" | "auto".
const char* MatcherBackendName(MatcherBackendKind kind);

// Parses a --matcher / MCFS_MATCHER spelling. kInvalidInput on anything
// but the three names above ('-' is accepted for '_').
StatusOr<MatcherBackendKind> ParseMatcherBackend(const std::string& name);

// The MCFS_MATCHER environment override, or `fallback` when the
// variable is unset/empty. An unparsable value CHECK-fails: a typo'd
// environment silently running the wrong backend would poison every
// bench number downstream.
MatcherBackendKind MatcherBackendFromEnv(MatcherBackendKind fallback);

// Shape of one batch matching problem, the input of the `auto` model.
struct MatchShape {
  int64_t customers = 0;       // m: units of demand to route
  int64_t facilities = 0;      // candidate facilities in the matching
  int64_t total_capacity = 0;  // sum of facility capacities
  // A warm seed / resumable matcher state is on offer. cost_scaling
  // cannot adopt one (it refuses with kUnsupported), so warm instances
  // resolve to SSPA and keep the incremental amortization.
  bool warm = false;

  // Mean demand per unit of capacity, the paper's occupancy knob. High
  // occupancy means heavy capacity contention: SSPA's augmenting paths
  // grow long chains of rewirings there, which is exactly where the
  // global e-scaling passes win.
  double Occupancy() const {
    if (total_capacity <= 0) return 0.0;
    return static_cast<double>(customers) / static_cast<double>(total_capacity);
  }
};

// Resolves kAuto against the measured crossover model (fitted from
// BENCH_matcher_backends.json, see DESIGN.md §4.12); returns concrete
// kinds unchanged except that warm shapes always resolve to SSPA.
MatcherBackendKind ResolveMatcherBackend(MatcherBackendKind requested,
                                         const MatchShape& shape);

}  // namespace mcfs

#endif  // MCFS_FLOW_MATCHER_BACKEND_H_
