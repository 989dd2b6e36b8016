#ifndef MCFS_GRAPH_GRAPH_IO_H_
#define MCFS_GRAPH_GRAPH_IO_H_

#include <string>

#include "mcfs/common/status.h"
#include "mcfs/graph/graph.h"

namespace mcfs {

// Plain-text graph format:
//   line 1: "<num_nodes> <num_undirected_edges> <has_coords:0|1>"
//   if has_coords: num_nodes lines "x y"
//   then num_edges lines "u v weight"
//
// ReadGraph reports line-numbered parse diagnostics with typed
// kIoError/kInvalidInput codes (DESIGN.md §4.8). Weights and
// coordinates are written with max_digits10 digits, so a write/read
// round trip is exact.

// Writes the graph; kIoError when the file cannot be opened or the
// write is cut short.
Status WriteGraph(const Graph& graph, const std::string& path);

// Loads a graph saved by WriteGraph. kIoError when the file cannot be
// opened; kInvalidInput (with the offending line number) for malformed
// headers, out-of-range node ids, non-positive / non-finite edge
// weights, truncated files, and node/edge counts larger than the file
// could possibly hold.
StatusOr<Graph> ReadGraph(const std::string& path);

}  // namespace mcfs

#endif  // MCFS_GRAPH_GRAPH_IO_H_
