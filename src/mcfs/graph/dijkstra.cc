#include "mcfs/graph/dijkstra.h"

#include "mcfs/common/dary_heap.h"
#include "mcfs/obs/metrics.h"

namespace mcfs {

namespace {

struct HeapEntry {
  double dist;
  NodeId node;
};

struct HeapEntryLess {
  bool operator()(const HeapEntry& a, const HeapEntry& b) const {
    return a.dist < b.dist;
  }
};

using MinHeap = DaryHeap<HeapEntry, 4, HeapEntryLess>;

}  // namespace

std::vector<double> ShortestPathsFrom(const Graph& graph, NodeId source) {
  std::vector<double> dist(graph.NumNodes(), kInfDistance);
  // Work counters accumulate in locals (free registers) and flush once
  // per call, so the disabled-metrics fast path is unchanged.
  int64_t settled = 0, relaxed = 0, heap_pushes = 1;
  MinHeap heap;
  dist[source] = 0.0;
  heap.push({0.0, source});
  while (!heap.empty()) {
    const HeapEntry top = heap.top();
    heap.pop();
    if (top.dist > dist[top.node]) continue;  // stale entry
    ++settled;
    for (const AdjEntry& e : graph.Neighbors(top.node)) {
      ++relaxed;
      const double candidate = top.dist + e.weight;
      if (candidate < dist[e.to]) {
        dist[e.to] = candidate;
        heap.push({candidate, e.to});
        ++heap_pushes;
      }
    }
  }
  MCFS_COUNT("dijkstra/full_runs", 1);
  MCFS_COUNT("dijkstra/nodes_settled", settled);
  MCFS_COUNT("dijkstra/edges_relaxed", relaxed);
  MCFS_COUNT("dijkstra/heap_pushes", heap_pushes);
  return dist;
}

std::vector<SettledNode> DijkstraWithinRadius(const Graph& graph,
                                              NodeId source, double radius) {
  std::vector<double> dist(graph.NumNodes(), kInfDistance);
  std::vector<SettledNode> settled;
  int64_t relaxed = 0;
  MinHeap heap;
  dist[source] = 0.0;
  heap.push({0.0, source});
  while (!heap.empty()) {
    const HeapEntry top = heap.top();
    heap.pop();
    if (top.dist > dist[top.node]) continue;
    if (top.dist > radius) break;
    settled.push_back({top.node, top.dist});
    for (const AdjEntry& e : graph.Neighbors(top.node)) {
      ++relaxed;
      const double candidate = top.dist + e.weight;
      if (candidate < dist[e.to]) {
        dist[e.to] = candidate;
        heap.push({candidate, e.to});
      }
    }
  }
  MCFS_COUNT("dijkstra/bounded_runs", 1);
  MCFS_COUNT("dijkstra/nodes_settled", static_cast<int64_t>(settled.size()));
  MCFS_COUNT("dijkstra/edges_relaxed", relaxed);
  return settled;
}

MultiSourceResult MultiSourceDijkstra(const Graph& graph,
                                      const std::vector<NodeId>& sources) {
  MultiSourceResult result;
  result.distance.assign(graph.NumNodes(), kInfDistance);
  result.nearest_index.assign(graph.NumNodes(), -1);
  MinHeap heap;
  for (size_t i = 0; i < sources.size(); ++i) {
    const NodeId s = sources[i];
    if (result.distance[s] > 0.0) {
      result.distance[s] = 0.0;
      result.nearest_index[s] = static_cast<int>(i);
      heap.push({0.0, s});
    }
  }
  int64_t settled = 0, relaxed = 0;
  while (!heap.empty()) {
    const HeapEntry top = heap.top();
    heap.pop();
    if (top.dist > result.distance[top.node]) continue;
    ++settled;
    for (const AdjEntry& e : graph.Neighbors(top.node)) {
      ++relaxed;
      const double candidate = top.dist + e.weight;
      if (candidate < result.distance[e.to]) {
        result.distance[e.to] = candidate;
        result.nearest_index[e.to] = result.nearest_index[top.node];
        heap.push({candidate, e.to});
      }
    }
  }
  MCFS_COUNT("dijkstra/multi_source_runs", 1);
  MCFS_COUNT("dijkstra/nodes_settled", settled);
  MCFS_COUNT("dijkstra/edges_relaxed", relaxed);
  return result;
}

void AddMultiSource(const Graph& graph, NodeId source,
                    std::vector<double>& distance) {
  if (distance[source] <= 0.0) return;  // already at a source
  distance[source] = 0.0;
  MinHeap heap;
  heap.push({0.0, source});
  int64_t settled = 0, relaxed = 0;
  while (!heap.empty()) {
    const HeapEntry top = heap.top();
    heap.pop();
    if (top.dist > distance[top.node]) continue;
    ++settled;
    for (const AdjEntry& e : graph.Neighbors(top.node)) {
      ++relaxed;
      const double candidate = top.dist + e.weight;
      if (candidate < distance[e.to]) {
        distance[e.to] = candidate;
        heap.push({candidate, e.to});
      }
    }
  }
  MCFS_COUNT("dijkstra/nodes_settled", settled);
  MCFS_COUNT("dijkstra/edges_relaxed", relaxed);
}

IncrementalDijkstra::IncrementalDijkstra(const Graph* graph, NodeId source,
                                         size_t expected_nodes)
    : graph_(graph), source_(source), expected_nodes_(expected_nodes) {}

void IncrementalDijkstra::Start() {
  started_ = true;
  if (expected_nodes_ > 0) {
    tentative_.Reserve(expected_nodes_);
    settled_dist_.Reserve(expected_nodes_);
  }
  tentative_[source_] = 0.0;
  queue_.push({0.0, source_});
}

void IncrementalDijkstra::AdvanceToUnsettled() {
  if (!started_) Start();
  while (!queue_.empty()) {
    const QueueEntry top = queue_.top();
    if (settled_dist_.Contains(top.node) ||
        top.dist > TentativeDistance(top.node)) {
      queue_.pop();  // stale or already settled
      continue;
    }
    return;
  }
}

double IncrementalDijkstra::PeekNextDistance() {
  AdvanceToUnsettled();
  return queue_.empty() ? kInfDistance : queue_.top().dist;
}

std::optional<SettledNode> IncrementalDijkstra::NextSettled() {
  AdvanceToUnsettled();
  if (queue_.empty()) return std::nullopt;
  const QueueEntry top = queue_.top();
  queue_.pop();
  settled_dist_[top.node] = top.dist;
  for (const AdjEntry& e : graph_->Neighbors(top.node)) {
    ++num_relaxed_;
    if (settled_dist_.Contains(e.to)) continue;
    const double candidate = top.dist + e.weight;
    // Single probe: an existing label is updated in place, a missing
    // one is inserted (absent == kInfDistance, so always an improvement).
    double* label = tentative_.Find(e.to);
    if (label == nullptr) {
      tentative_[e.to] = candidate;
      queue_.push({candidate, e.to});
    } else if (candidate < *label) {
      *label = candidate;
      queue_.push({candidate, e.to});
    }
  }
  return SettledNode{top.node, top.dist};
}

}  // namespace mcfs
