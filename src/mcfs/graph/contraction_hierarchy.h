#ifndef MCFS_GRAPH_CONTRACTION_HIERARCHY_H_
#define MCFS_GRAPH_CONTRACTION_HIERARCHY_H_

#include <atomic>
#include <cstdint>
#include <vector>

#include "mcfs/graph/graph.h"

namespace mcfs {

// Contraction Hierarchies (Geisberger et al.) for undirected networks:
// nodes are contracted in importance order, inserting shortcuts that
// preserve shortest-path distances; queries run a bidirectional Dijkstra
// that only ever moves to higher-ranked nodes, meeting near the "top"
// of the hierarchy. On road networks this settles orders of magnitude
// fewer nodes than plain Dijkstra while staying exact (verified against
// Dijkstra in tests).
//
// The library's one point-to-point router (the city_planner route demo;
// bench_ch checks it against Dijkstra), and the source of the
// bucket-based many-to-many distance tables that accelerate
// dense-matrix construction (exact solver, greedy k-median) on large
// networks.
//
// Preprocessing notes: node priority = edge difference + contracted
// neighbors (lazy re-evaluation); witness searches are exact but capped
// — when the cap is hit the shortcut is inserted anyway, which can only
// add redundant (never incorrect) arcs.
class ContractionHierarchy {
 public:
  explicit ContractionHierarchy(const Graph* graph);

  // Exact shortest-path distance; kInfDistance when disconnected.
  double Distance(NodeId s, NodeId t) const;

  // Row-major |sources| x |targets| exact distance table via target
  // buckets: one upward search per target plus one per source. The
  // per-target bucket searches and the per-source row scans run on up
  // to `threads` threads (0 = MCFS_THREADS / hardware default); bucket
  // merging stays in target order and every source writes only its own
  // row, so the table is identical for any thread count.
  std::vector<double> DistanceTable(const std::vector<NodeId>& sources,
                                    const std::vector<NodeId>& targets,
                                    int threads = 0) const;

  // --- instrumentation ---
  int64_t num_shortcuts() const { return num_shortcuts_; }
  int64_t last_settled_count() const {
    return last_settled_.load(std::memory_order_relaxed);
  }
  int rank(NodeId v) const { return rank_[v]; }

 private:
  struct UpArc {
    NodeId to;
    double weight;
  };

  // Upward search from `source`: settles the reachable upward cone,
  // appending (node, dist) pairs to `settled`.
  void UpwardSearch(NodeId source,
                    std::vector<std::pair<NodeId, double>>* settled) const;

  const Graph* graph_;
  std::vector<int> rank_;                  // contraction order per node
  std::vector<std::vector<UpArc>> up_;     // arcs toward higher ranks
  int64_t num_shortcuts_ = 0;
  // Atomic: DistanceTable's upward searches run concurrently.
  mutable std::atomic<int64_t> last_settled_{0};
};

}  // namespace mcfs

#endif  // MCFS_GRAPH_CONTRACTION_HIERARCHY_H_
