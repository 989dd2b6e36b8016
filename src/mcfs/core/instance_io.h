#ifndef MCFS_CORE_INSTANCE_IO_H_
#define MCFS_CORE_INSTANCE_IO_H_

#include <string>

#include "mcfs/common/status.h"
#include "mcfs/core/instance.h"

namespace mcfs {

// Plain-text persistence for instances and solutions, so repeated /
// dynamic planning workflows (and the CLI example) can store and reload
// problems. The graph itself is saved separately via WriteGraph.
// Readers report line-numbered parse diagnostics with typed
// kIoError/kInvalidInput codes (DESIGN.md §4.8). Doubles are written
// with max_digits10 digits, so a write/read round trip is exact.
//
// Instance format:
//   "MCFS 1"
//   "<m> <l> <k>"
//   m lines: customer node id
//   l lines: "<facility node id> <capacity>"
Status WriteInstance(const McfsInstance& instance, const std::string& path);

// Loads an instance; `graph` must be the network it was built against
// (node ids are validated against it). kIoError when the file cannot
// be opened; kInvalidInput with the offending line number for bad
// magic/version, negative counts, counts larger than the file could
// hold, out-of-range node ids, and negative capacities.
StatusOr<McfsInstance> ReadInstance(const Graph* graph,
                                    const std::string& path);

// Solution format:
//   "MCFSSOL 1"
//   "<num_selected> <m> <objective> <feasible>"
//   selected facility indices (one line)
//   m lines: "<assignment> <distance>"
Status WriteSolution(const McfsSolution& solution, const std::string& path);

StatusOr<McfsSolution> ReadSolution(const std::string& path);

}  // namespace mcfs

#endif  // MCFS_CORE_INSTANCE_IO_H_
