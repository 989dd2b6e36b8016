#ifndef MCFS_CORE_VALIDATE_H_
#define MCFS_CORE_VALIDATE_H_

#include <string>
#include <vector>

#include "mcfs/common/status.h"
#include "mcfs/core/instance.h"

namespace mcfs {

// Preflight validation for MCFS instances (DESIGN.md §4.8): catches
// malformed inputs (kInvalidInput) and provably unsolvable ones
// (kInfeasible) with a structured diagnosis *before* any solver runs,
// instead of an MCFS_CHECK abort or a silent infeasible grind deep
// inside WMA.

// Why one connected component cannot be served (Theorem 3 accounting).
struct ComponentDiagnosis {
  int component = 0;           // id in Graph::components()
  int64_t customers = 0;       // demand |S_g| inside the component
  int64_t capacity_sum = 0;    // total capacity of facilities inside it
  int num_facilities = 0;      // candidate facilities inside it
  // Minimum facilities (largest capacities first) whose capacity sum
  // reaches the demand; -1 when even all of them fall short.
  int min_facilities_needed = 0;

  std::string ToString() const;
};

// Full preflight report. `status` carries the verdict; the rest explains
// it: structural problems as human-readable strings, infeasible
// components with their capacity accounting, and the global budget math.
struct InstanceDiagnosis {
  Status status;                          // kOk / kInvalidInput / kInfeasible
  std::vector<std::string> problems;      // structural defects, if any
  std::vector<ComponentDiagnosis> infeasible_components;
  int64_t total_demand = 0;               // m
  int64_t total_capacity = 0;             // sum of all capacities
  // Sum over components of min_facilities_needed; compare against k.
  // Meaningful only when every component is individually coverable.
  int required_facilities = 0;

  bool ok() const { return status.ok(); }
  // Multi-line report for logs / CLI output.
  std::string ToString() const;
};

// Diagnoses an instance. Structural defects (null/empty graph, k < 0,
// out-of-range customer or facility nodes, duplicate facility nodes,
// negative capacities) yield kInvalidInput and fill `problems`;
// structurally sound but unsolvable instances yield kInfeasible with
// per-component deficits. Agrees with IsFeasible on the verdict for
// structurally valid instances.
InstanceDiagnosis DiagnoseInstance(const McfsInstance& instance);

// Convenience wrapper: just the Status of DiagnoseInstance.
Status ValidateInstance(const McfsInstance& instance);

}  // namespace mcfs

#endif  // MCFS_CORE_VALIDATE_H_
