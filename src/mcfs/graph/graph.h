#ifndef MCFS_GRAPH_GRAPH_H_
#define MCFS_GRAPH_GRAPH_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "mcfs/common/check.h"

namespace mcfs {

// Node identifier within a Graph. Dense, 0-based.
using NodeId = int32_t;

constexpr NodeId kInvalidNode = -1;

// One directed adjacency entry: target node and edge weight (length).
struct AdjEntry {
  NodeId to = kInvalidNode;
  double weight = 0.0;
};

// 2-D coordinates attached to nodes; used by generators, the Hilbert
// baseline, and the workload simulators. Units are meters (real-style
// networks) or abstract plane units (synthetic 10^3 x 10^3 square).
struct Point {
  double x = 0.0;
  double y = 0.0;
};

// Each node's connected-component id in [0, num_components). The graph
// is treated as undirected (which our graphs are).
struct ComponentLabeling {
  std::vector<int> component_of;  // size NumNodes()
  int num_components = 0;
  std::vector<int> component_size;  // size num_components
};

// Immutable weighted network in CSR (compressed sparse row) layout.
// Models a road network: nodes are intersections / road vertices, edges
// are road segments with positive lengths. Built via GraphBuilder.
//
// The paper's networks are undirected; GraphBuilder::AddEdge inserts both
// arcs. Directed edges are supported via AddArc.
//
// Build() also labels the connected components once, so the Theorem-3
// feasibility accounting and the component repair never rescan the
// network. A default-constructed Graph has 0 nodes and 0 components.
class Graph {
 public:
  Graph() = default;

  int NumNodes() const { return static_cast<int>(offsets_.size()) - 1; }
  // Number of stored arcs (an undirected edge contributes two arcs).
  int64_t NumArcs() const { return static_cast<int64_t>(adj_.size()); }
  // Number of undirected edges, assuming the graph was built undirected.
  int64_t NumEdges() const { return NumArcs() / 2; }

  int Degree(NodeId v) const { return offsets_[v + 1] - offsets_[v]; }

  std::span<const AdjEntry> Neighbors(NodeId v) const {
    MCFS_DCHECK(v >= 0 && v < NumNodes());
    return {adj_.data() + offsets_[v],
            static_cast<size_t>(offsets_[v + 1] - offsets_[v])};
  }

  bool has_coordinates() const { return !coords_.empty(); }
  const Point& coordinate(NodeId v) const {
    MCFS_DCHECK(has_coordinates());
    return coords_[v];
  }
  const std::vector<Point>& coordinates() const { return coords_; }

  const ComponentLabeling& components() const { return components_; }

  // Structural statistics used by the dataset tables (Table III).
  double AverageDegree() const;
  int MaxDegree() const;
  double AverageEdgeLength() const;

 private:
  friend class GraphBuilder;

  std::vector<int64_t> offsets_ = {0};  // size NumNodes() + 1
  std::vector<AdjEntry> adj_;
  std::vector<Point> coords_;  // empty if no coordinates attached
  ComponentLabeling components_;
};

// Accumulates edges and produces a CSR Graph.
class GraphBuilder {
 public:
  explicit GraphBuilder(int num_nodes) : num_nodes_(num_nodes) {
    MCFS_CHECK_GE(num_nodes, 0);
  }

  // Adds an undirected edge (two arcs). Weight must be positive.
  void AddEdge(NodeId u, NodeId v, double weight) {
    AddArc(u, v, weight);
    AddArc(v, u, weight);
  }

  // Adds a single directed arc. The weight check is always on (not a
  // DCHECK): every Dijkstra variant assumes positive weights, and a
  // negative or NaN length would corrupt searches silently. File-based
  // inputs are rejected earlier with a typed kInvalidInput status
  // (ReadGraph); reaching this check is a programming error.
  void AddArc(NodeId u, NodeId v, double weight) {
    MCFS_DCHECK(u >= 0 && u < num_nodes_);
    MCFS_DCHECK(v >= 0 && v < num_nodes_);
    MCFS_CHECK(weight > 0.0)
        << "edge " << u << " -> " << v << " has non-positive weight "
        << weight;
    arcs_.push_back({u, v, weight});
  }

  void SetCoordinates(std::vector<Point> coords) {
    MCFS_CHECK_EQ(static_cast<int>(coords.size()), num_nodes_);
    coords_ = std::move(coords);
  }

  int num_nodes() const { return num_nodes_; }
  int64_t num_arcs() const { return static_cast<int64_t>(arcs_.size()); }

  // Finalizes into a CSR Graph. The builder may be reused afterwards.
  Graph Build() const;

 private:
  struct Arc {
    NodeId from;
    NodeId to;
    double weight;
  };

  int num_nodes_;
  std::vector<Arc> arcs_;
  std::vector<Point> coords_;
};

// Euclidean distance between two points.
double EuclideanDistance(const Point& a, const Point& b);

}  // namespace mcfs

#endif  // MCFS_GRAPH_GRAPH_H_
