#ifndef MCFS_GRAPH_DIJKSTRA_H_
#define MCFS_GRAPH_DIJKSTRA_H_

#include <limits>
#include <optional>
#include <utility>
#include <vector>

#include "mcfs/common/dary_heap.h"
#include "mcfs/common/flat_map.h"
#include "mcfs/graph/graph.h"

namespace mcfs {

constexpr double kInfDistance = std::numeric_limits<double>::infinity();

// Full single-source shortest paths; dist[v] == kInfDistance when v is
// unreachable from `source`.
std::vector<double> ShortestPathsFrom(const Graph& graph, NodeId source);

// Single-source shortest paths truncated at `radius`: settles only nodes
// with distance <= radius and returns them (with their distances) in
// non-decreasing distance order.
struct SettledNode {
  NodeId node;
  double distance;
};
std::vector<SettledNode> DijkstraWithinRadius(const Graph& graph,
                                              NodeId source, double radius);

// Multi-source shortest paths: for every node, the distance to the
// nearest source and that source's index in `sources`. Used for network
// Voronoi cells (BRNN NLRs, Yelp workload simulation).
struct MultiSourceResult {
  std::vector<double> distance;    // to nearest source
  std::vector<int> nearest_index;  // index into `sources`, -1 if unreachable
};
MultiSourceResult MultiSourceDijkstra(const Graph& graph,
                                      const std::vector<NodeId>& sources);

// Adds `source` to the source set behind `distance`, a labeling as
// MultiSourceDijkstra(...).distance returns it (all kInfDistance for the
// empty set). A pruned Dijkstra from `source` alone lowers the labels it
// improves and never expands a node whose label it does not lower, so
// the cost is the size of the new source's Voronoi cell, not of the
// graph. The result is bit-identical to MultiSourceDijkstra over the
// grown set: both labelings are float path sums that no edge improves,
// and with non-negative weights and monotone rounding there is only one
// such labeling (DESIGN.md §3, SelectGreedy).
void AddMultiSource(const Graph& graph, NodeId source,
                    std::vector<double>& distance);

// Resumable Dijkstra: settles nodes one at a time in non-decreasing
// distance order, preserving its state between calls. This implements
// the per-customer "incremental knowledge of network distances" of the
// paper (Sec. IV-D): each customer keeps one of these alive across
// FindPair calls so that candidate-facility edges can be materialized in
// sorted order on demand.
//
// Storage is sparse (flat open-addressing maps, see common/flat_map.h),
// so memory is proportional to the explored neighborhood, not to |V|:
// WMA keeps one instance per customer (the paper's "heaps for these
// executions per customer persist" note), and customers typically
// explore only a few facilities. The maps are used for point lookups
// and inserts only — the settle order is entirely heap-driven — so
// results are bit-identical to the former std::unordered_map storage.
class IncrementalDijkstra {
 public:
  // `expected_nodes` is a reserve hint for the label maps (e.g. the
  // neighborhood size a caller expects to explore); 0 starts minimal
  // and grows by doubling. Nothing is allocated until the first
  // NextSettled() or PeekNextDistance(): the hint is applied then, so a
  // search that is never advanced costs only the object itself.
  IncrementalDijkstra(const Graph* graph, NodeId source,
                      size_t expected_nodes = 0);

  // Settles and returns the next nearest node, or nullopt when the
  // source's component is exhausted.
  std::optional<SettledNode> NextSettled();

  // Distance of the next node to be settled without consuming it, or
  // kInfDistance when exhausted.
  double PeekNextDistance();

  NodeId source() const { return source_; }

  // Distance to a node that has already been settled; kInfDistance if it
  // has not been settled yet.
  double SettledDistance(NodeId v) const {
    const double* dist = settled_dist_.Find(v);
    return dist == nullptr ? kInfDistance : *dist;
  }

  size_t num_settled() const { return settled_dist_.size(); }

  // Edge relaxations attempted so far (one per neighbor of every
  // settled node). Cumulative like num_settled(); NearestFacilityStream
  // uses both to attribute stream work to consumed candidates.
  int64_t num_relaxed() const { return num_relaxed_; }

 private:
  struct QueueEntry {
    double dist;
    NodeId node;
  };
  struct QueueEntryLess {
    bool operator()(const QueueEntry& a, const QueueEntry& b) const {
      return a.dist < b.dist;
    }
  };

  // Applies the reserve hint and labels the source (first use).
  void Start();
  void AdvanceToUnsettled();

  double TentativeDistance(NodeId v) const {
    const double* dist = tentative_.Find(v);
    return dist == nullptr ? kInfDistance : *dist;
  }

  const Graph* graph_;
  NodeId source_;
  size_t expected_nodes_;
  bool started_ = false;
  int64_t num_relaxed_ = 0;
  FlatMap<NodeId, double> tentative_;
  FlatMap<NodeId, double> settled_dist_;
  DaryHeap<QueueEntry, 4, QueueEntryLess> queue_;
};

}  // namespace mcfs

#endif  // MCFS_GRAPH_DIJKSTRA_H_
