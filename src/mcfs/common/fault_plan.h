#ifndef MCFS_COMMON_FAULT_PLAN_H_
#define MCFS_COMMON_FAULT_PLAN_H_

#include <atomic>
#include <cstdint>
#include <string>

#include "mcfs/common/status.h"

namespace mcfs {

// Deterministic fault-injection schedule (DESIGN.md §4.13).
//
// Production failure paths are worthless untested, and timing-based
// chaos is unreproducible. A FaultPlan is the serving layer's one
// fault-injection hook (Deadline::AfterPolls planted in WmaOptions
// remains the library-level one): each *site* that can fail — including
// every verifier verdict SolverService acts on, full solves and warm
// resolves alike — polls the plan, and whether the
// i-th poll of a given fault kind fires is a pure function of
// (seed, kind, i) — the same seed replays the same fault sequence, on
// any machine, at any thread count (per-kind poll order permitting).

enum class FaultKind {
  // Plant a deterministic mid-solve deadline expiry (the served solve
  // degrades to its anytime answer exactly as a real deadline would).
  kDeadlineCut = 0,
  // Treat an independent verifier verdict as a rejection, driving the
  // rejection machinery (postmortem, fallback) on a correct solution.
  kVerifyReject,
  // Treat the admission queue as full for one Submit (overload pulse).
  kQueuePulse,
  // Fail a checkpoint write with a typed kIoError before touching disk.
  kCheckpointIo,
};

inline constexpr int kNumFaultKinds = 4;

const char* FaultKindName(FaultKind kind);

struct FaultPlanSpec {
  uint64_t seed = 0;
  // Per-kind firing probability in [0, 1] over the kind's poll sequence.
  double rate[kNumFaultKinds] = {0.0, 0.0, 0.0, 0.0};
  // Per-kind cap on total fires; < 0 = unlimited. Once a kind's budget
  // is spent it never fires again — how the chaos harness models
  // "faults stop" so convergence-after-chaos can be asserted.
  int64_t max_fires[kNumFaultKinds] = {-1, -1, -1, -1};
};

class FaultPlan {
 public:
  explicit FaultPlan(const FaultPlanSpec& spec);

  // Parses a flag-friendly spec string:
  //   "seed=42,deadline_cut=0.1,verify_reject=0.05,queue_pulse=0.02,
  //    checkpoint_io=1,deadline_cut_max=20"
  // Keys are the snake_case kind names (rates), "<kind>_max" (fire
  // caps) and "seed". Unknown keys, malformed numbers, and rates
  // outside [0, 1] are rejected with kInvalidInput naming the token.
  // The empty string parses to an all-zero (never-firing) spec.
  static StatusOr<FaultPlanSpec> Parse(const std::string& text);

  // Polls the schedule at a failure-injection site. Thread-safe; the
  // decision for the i-th poll of `kind` is deterministic in
  // (seed, kind, i). A true return means the site must act out the
  // fault now (the poll is consumed either way).
  bool ShouldFire(FaultKind kind);

  int64_t polls(FaultKind kind) const;
  int64_t fires(FaultKind kind) const;
  int64_t total_fires() const;

  const FaultPlanSpec& spec() const { return spec_; }

  // {"seed":..,"kinds":[{"kind":"deadline_cut","rate":..,"polls":..,
  // "fires":..},..]} — for bench/CI artifacts.
  std::string Json() const;

 private:
  FaultPlanSpec spec_;
  std::atomic<int64_t> polls_[kNumFaultKinds];
  std::atomic<int64_t> fires_[kNumFaultKinds];
};

}  // namespace mcfs

#endif  // MCFS_COMMON_FAULT_PLAN_H_
