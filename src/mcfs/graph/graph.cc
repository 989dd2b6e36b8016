#include "mcfs/graph/graph.h"

#include <algorithm>
#include <cmath>

namespace mcfs {

namespace {

ComponentLabeling ConnectedComponents(const Graph& graph) {
  ComponentLabeling result;
  const int n = graph.NumNodes();
  result.component_of.assign(n, -1);
  std::vector<NodeId> stack;
  for (NodeId start = 0; start < n; ++start) {
    if (result.component_of[start] != -1) continue;
    const int comp = result.num_components++;
    int size = 0;
    stack.push_back(start);
    result.component_of[start] = comp;
    while (!stack.empty()) {
      const NodeId v = stack.back();
      stack.pop_back();
      ++size;
      for (const AdjEntry& e : graph.Neighbors(v)) {
        if (result.component_of[e.to] == -1) {
          result.component_of[e.to] = comp;
          stack.push_back(e.to);
        }
      }
    }
    result.component_size.push_back(size);
  }
  return result;
}

}  // namespace

double Graph::AverageDegree() const {
  if (NumNodes() == 0) return 0.0;
  return static_cast<double>(NumArcs()) / NumNodes();
}

int Graph::MaxDegree() const {
  int max_degree = 0;
  for (NodeId v = 0; v < NumNodes(); ++v) {
    max_degree = std::max(max_degree, Degree(v));
  }
  return max_degree;
}

double Graph::AverageEdgeLength() const {
  if (adj_.empty()) return 0.0;
  double total = 0.0;
  for (const AdjEntry& e : adj_) total += e.weight;
  return total / static_cast<double>(adj_.size());
}

Graph GraphBuilder::Build() const {
  Graph graph;
  graph.offsets_.assign(num_nodes_ + 1, 0);
  for (const Arc& arc : arcs_) graph.offsets_[arc.from + 1]++;
  for (int v = 0; v < num_nodes_; ++v) {
    graph.offsets_[v + 1] += graph.offsets_[v];
  }
  graph.adj_.resize(arcs_.size());
  std::vector<int64_t> cursor(graph.offsets_.begin(),
                              graph.offsets_.end() - 1);
  for (const Arc& arc : arcs_) {
    graph.adj_[cursor[arc.from]++] = {arc.to, arc.weight};
  }
  graph.coords_ = coords_;
  graph.components_ = ConnectedComponents(graph);
  return graph;
}

double EuclideanDistance(const Point& a, const Point& b) {
  const double dx = a.x - b.x;
  const double dy = a.y - b.y;
  return std::sqrt(dx * dx + dy * dy);
}

}  // namespace mcfs
