// Microbenchmarks (google-benchmark) for the performance-critical
// primitives: network Dijkstra, the incremental nearest-facility
// stream, optimal bipartite matching, the set-cover heuristic, the
// SelectGreedy top-up, and the dense transportation oracle.

#include <benchmark/benchmark.h>

#include <numeric>
#include <queue>
#include <unordered_map>
#include <utility>
#include <vector>

#include "mcfs/common/dary_heap.h"
#include "mcfs/common/flat_map.h"
#include "mcfs/common/random.h"
#include "mcfs/core/instance.h"
#include "mcfs/core/repair.h"
#include "mcfs/core/set_cover.h"
#include "mcfs/flow/matcher.h"
#include "mcfs/flow/transport.h"
#include "mcfs/graph/facility_stream.h"
#include "mcfs/graph/generators.h"
#include "mcfs/graph/road_network.h"
#include "mcfs/hilbert/hilbert.h"
#include "mcfs/obs/metrics.h"
#include "mcfs/workload/workload.h"

namespace mcfs {
namespace {

const Graph& CityGraph() {
  static const Graph* graph =
      new Graph(GenerateCity(AalborgPreset(0.05, 42)));
  return *graph;
}

void BM_DijkstraFull(benchmark::State& state) {
  const Graph& graph = CityGraph();
  Rng rng(1);
  for (auto _ : state) {
    const NodeId source =
        static_cast<NodeId>(rng.UniformInt(0, graph.NumNodes() - 1));
    benchmark::DoNotOptimize(ShortestPathsFrom(graph, source));
  }
  state.SetItemsProcessed(state.iterations() * graph.NumNodes());
}
BENCHMARK(BM_DijkstraFull);

void BM_NearestFacilityStream(benchmark::State& state) {
  const Graph& graph = CityGraph();
  const int facilities = static_cast<int>(state.range(0));
  Rng rng(2);
  std::vector<int> facility_index_of_node(graph.NumNodes(), -1);
  const std::vector<NodeId> nodes =
      SampleDistinctNodes(graph, facilities, rng);
  for (int j = 0; j < facilities; ++j) facility_index_of_node[nodes[j]] = j;
  for (auto _ : state) {
    NearestFacilityStream stream(
        &graph, static_cast<NodeId>(rng.UniformInt(0, graph.NumNodes() - 1)),
        &facility_index_of_node);
    for (int pops = 0; pops < 10; ++pops) {
      benchmark::DoNotOptimize(stream.Pop());
    }
  }
}
BENCHMARK(BM_NearestFacilityStream)->Arg(64)->Arg(512);

void BM_IncrementalMatcher(benchmark::State& state) {
  const Graph& graph = CityGraph();
  const int m = static_cast<int>(state.range(0));
  Rng rng(3);
  const std::vector<NodeId> customers = SampleDistinctNodes(graph, m, rng);
  const std::vector<NodeId> facilities =
      SampleDistinctNodes(graph, m / 2, rng);
  const std::vector<int> capacities = UniformCapacities(m / 2, 4);
  for (auto _ : state) {
    IncrementalMatcher matcher(&graph, customers, facilities, capacities);
    benchmark::DoNotOptimize(matcher.MatchAllOnce());
  }
  state.SetItemsProcessed(state.iterations() * m);
}
BENCHMARK(BM_IncrementalMatcher)->Arg(64)->Arg(256);

// Batch assignment where capacities bind: AssignOptimally over every
// facility at occupancy 1.0 on the scale-0.05 Aalborg city, so late
// customers force edge materializations and rewire earlier matches.
// Arg 0 is dense_saturated (640 customers, 40 facilities of capacity
// 16), arg 1 dense_large_k (1,200 x 60, capacity 20); both keep the
// instance seeds of the cells recorded in DESIGN.md §4.12. Reports the
// objective and the G_b arcs one assignment relaxes.
void BM_AssignSaturated(benchmark::State& state) {
  struct Cell {
    int customers;
    int facilities;
    int capacity;
    uint64_t seed;
  };
  constexpr Cell kCells[] = {{640, 40, 16, 48}, {1200, 60, 20, 51}};
  const Cell& cell = kCells[state.range(0)];
  McfsInstance instance;
  instance.graph = &CityGraph();
  Rng rng(cell.seed);
  instance.customers =
      SampleDistinctNodes(*instance.graph, cell.customers, rng);
  instance.facility_nodes =
      SampleDistinctNodes(*instance.graph, cell.facilities, rng);
  instance.capacities = UniformCapacities(cell.facilities, cell.capacity);
  instance.k = cell.facilities;
  std::vector<int> selected(cell.facilities);
  std::iota(selected.begin(), selected.end(), 0);

  // The work counter comes from one untimed, instrumented run.
  obs::EnableMetrics(true);
  obs::ResetMetrics();
  double objective = AssignOptimally(instance, selected).objective;
  const obs::MetricsSnapshot snapshot = obs::SnapshotMetrics();
  obs::EnableMetrics(false);
  const auto relaxed = snapshot.counters.find("matcher/gb_edges_relaxed");
  for (auto _ : state) {
    objective = AssignOptimally(instance, selected).objective;
  }
  state.counters["objective"] = objective;
  state.counters["gb_edges_relaxed"] = static_cast<double>(
      relaxed == snapshot.counters.end() ? 0 : relaxed->second);
  state.SetItemsProcessed(state.iterations() * cell.customers);
}
BENCHMARK(BM_AssignSaturated)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

// Serial vs batched-prefetch matching on a clustered 50k-node network
// with sparse candidates: arg = thread count for PrefetchCandidates
// (1 = serial baseline where FindPair pays for every Dijkstra advance
// inline). Run with
//   --benchmark_filter=BM_MatcherPrefetch
//   --benchmark_out=BENCH_prefetch.json --benchmark_out_format=json
// to record the speedup; results are bit-identical across thread
// counts, only the wall-clock changes.
const Graph& ClusteredGraph50k() {
  static const Graph* graph = [] {
    SyntheticNetworkOptions options;
    options.num_nodes = 50000;
    options.alpha = 2.0;
    options.num_clusters = 25;
    options.seed = 42;
    return new Graph(GenerateSyntheticNetwork(options));
  }();
  return *graph;
}

void BM_MatcherPrefetch(benchmark::State& state) {
  const Graph& graph = ClusteredGraph50k();
  const int threads = static_cast<int>(state.range(0));
  constexpr int kCustomers = 1000;
  constexpr int kFacilities = 500;
  Rng rng(8);
  const std::vector<NodeId> customers =
      SampleDistinctNodes(graph, kCustomers, rng);
  const std::vector<NodeId> facilities =
      SampleDistinctNodes(graph, kFacilities, rng);
  const std::vector<int> capacities = UniformCapacities(kFacilities, 4);
  double objective = 0.0;
  for (auto _ : state) {
    IncrementalMatcher matcher(&graph, customers, facilities, capacities);
    // Matching needs ~1 candidate per customer plus the Theorem-1 peek;
    // with threads > 1 the streams advance in parallel before the
    // strictly serial SSPA augmentations consume them.
    matcher.PrefetchCandidates(std::vector<int>(kCustomers, 2), threads);
    benchmark::DoNotOptimize(matcher.MatchAllOnce());
    objective = matcher.TotalCost();
  }
  state.counters["objective"] = objective;
  state.SetItemsProcessed(state.iterations() * kCustomers);
}
BENCHMARK(BM_MatcherPrefetch)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond)->MeasureProcessCPUTime()
    ->UseRealTime();

// Replays the WMA demand-growth pattern: one CoverIndex across a
// sequence of CheckCover calls, the first over a fresh sigma and each
// later one after a few facilities gained a matched customer. Items are
// CheckCover calls.
void BM_CheckCover(benchmark::State& state) {
  const int l = static_cast<int>(state.range(0));
  const int m = l * 4;
  constexpr int kSteps = 64;
  constexpr int kChangesPerStep = 9;
  Rng rng(4);
  std::vector<std::vector<int>> initial_sigma(l);
  for (int j = 0; j < l; ++j) {
    for (int t = 0; t < 8; ++t) {
      initial_sigma[j].push_back(static_cast<int>(rng.UniformInt(0, m - 1)));
    }
  }
  // (facility, customer) matches added before each later step.
  std::vector<std::pair<int, int>> growth;
  for (int c = 0; c < (kSteps - 1) * kChangesPerStep; ++c) {
    growth.emplace_back(static_cast<int>(rng.UniformInt(0, l - 1)),
                        static_cast<int>(rng.UniformInt(0, m - 1)));
  }
  const std::vector<int> demand(m, 1);
  std::vector<std::vector<int>> sigma;
  int64_t selections = 0;
  for (auto _ : state) {
    state.PauseTiming();
    sigma = initial_sigma;
    state.ResumeTiming();
    CoverIndex index(l);
    CoverInput input;
    input.num_customers = m;
    input.k = l / 10 + 1;
    input.customers_of_facility = &sigma;
    input.demand = &demand;
    input.demand_cap = l;
    for (int step = 0; step < kSteps; ++step) {
      if (step > 0) {
        for (int c = 0; c < kChangesPerStep; ++c) {
          const auto [j, customer] =
              growth[(step - 1) * kChangesPerStep + c];
          sigma[j].push_back(customer);
          index.MarkChanged(j);
        }
      }
      const CoverResult result = CheckCover(input, index, step);
      benchmark::DoNotOptimize(result.selected.data());
      selections += static_cast<int64_t>(result.selected.size());
    }
  }
  state.counters["selections_per_call"] = benchmark::Counter(
      static_cast<double>(selections) /
      static_cast<double>(state.iterations() * kSteps));
  state.SetItemsProcessed(state.iterations() * kSteps);
}
BENCHMARK(BM_CheckCover)->Arg(256)->Arg(2048);

// SelectGreedy (Alg. 4) in the serving shape: an Aalborg network of
// about 2,400 nodes, l = 300 candidates, k = 75, topped up from a k/5
// selection. Items are added facilities.
void BM_SelectGreedy(benchmark::State& state) {
  static const Graph* graph =
      new Graph(GenerateCity(AalborgPreset(0.04, 42)));
  constexpr int kCustomers = 120;
  constexpr int kFacilities = 300;
  constexpr int kBudget = 75;
  Rng rng(12);
  McfsInstance instance;
  instance.graph = graph;
  instance.customers = SampleNodesWithReplacement(*graph, kCustomers, rng);
  instance.facility_nodes = SampleDistinctNodes(*graph, kFacilities, rng);
  instance.capacities = UniformCapacities(kFacilities, 10);
  instance.k = kBudget;
  const std::vector<int> start =
      rng.SampleWithoutReplacement(kFacilities, kBudget / 5);
  std::vector<int> selected;
  for (auto _ : state) {
    selected = start;
    SelectGreedy(instance, selected);
    benchmark::DoNotOptimize(selected.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(kBudget - start.size()));
}
BENCHMARK(BM_SelectGreedy)->Unit(benchmark::kMillisecond);

void BM_DenseTransport(benchmark::State& state) {
  const int m = static_cast<int>(state.range(0));
  const int l = m / 2;
  Rng rng(5);
  std::vector<double> cost(static_cast<size_t>(m) * l);
  for (double& c : cost) c = rng.Uniform(1.0, 100.0);
  const std::vector<int> capacities(l, 4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(SolveDenseTransport(m, l, cost, capacities));
  }
}
BENCHMARK(BM_DenseTransport)->Arg(64)->Arg(256);

template <typename Heap>
void HeapWorkload(Heap& heap, Rng& rng, int ops) {
  for (int op = 0; op < ops; ++op) {
    heap.push({rng.NextDouble(), op});
    if (op % 3 == 2) heap.pop();
  }
  while (!heap.empty()) heap.pop();
}

struct HeapItem {
  double key;
  int payload;
  bool operator>(const HeapItem& other) const { return key > other.key; }
};
struct HeapItemLess {
  bool operator()(const HeapItem& a, const HeapItem& b) const {
    return a.key < b.key;
  }
};

void BM_StdPriorityQueue(benchmark::State& state) {
  Rng rng(7);
  for (auto _ : state) {
    std::priority_queue<HeapItem, std::vector<HeapItem>,
                        std::greater<HeapItem>>
        heap;
    HeapWorkload(heap, rng, static_cast<int>(state.range(0)));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_StdPriorityQueue)->Arg(10000)->Arg(100000);

void BM_DaryHeap4(benchmark::State& state) {
  Rng rng(7);
  for (auto _ : state) {
    DaryHeap<HeapItem, 4, HeapItemLess> heap;
    HeapWorkload(heap, rng, static_cast<int>(state.range(0)));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_DaryHeap4)->Arg(10000)->Arg(100000);

// --- Sparse-search kernel benches (committed as BENCH_kernels.json) ---
//
// Run with
//   --benchmark_filter='BM_FlatMap|BM_StampedMap|BM_StdUnorderedMap|BM_IncrementalDijkstra|BM_StreamAdvance'
//   --benchmark_out=BENCH_kernels.json --benchmark_out_format=json
// to record the kernel numbers (see DESIGN.md "Sparse-search kernels").

// Uniform synthetic network in the Fig.-6 workload shape (alpha = 2.0,
// no clusters) — the instance family whose WMA cost the stream/matcher
// counters attribute to these kernels.
const Graph& UniformGraph20k() {
  static const Graph* graph = [] {
    SyntheticNetworkOptions options;
    options.num_nodes = 20000;
    options.alpha = 2.0;
    options.num_clusters = 0;
    options.seed = 42;
    return new Graph(GenerateSyntheticNetwork(options));
  }();
  return *graph;
}

// Dijkstra-label workload shared by the map benches: a stream of mixed
// lookup/insert/update operations over `key_universe` int keys, the
// access pattern a relaxation loop produces (lookup the neighbor's
// label, write it back when improved).
std::vector<std::pair<int32_t, double>> LabelOps(int key_universe, int ops) {
  Rng rng(11);
  std::vector<std::pair<int32_t, double>> sequence;
  sequence.reserve(ops);
  for (int i = 0; i < ops; ++i) {
    sequence.push_back({static_cast<int32_t>(rng.UniformInt(0, key_universe - 1)),
                        rng.Uniform(0.0, 1000.0)});
  }
  return sequence;
}

template <typename Map>
double RunLabelOps(Map& map,
                   const std::vector<std::pair<int32_t, double>>& ops) {
  double sink = 0.0;
  for (const auto& [key, dist] : ops) {
    double& label = map[key];
    if (label == 0.0 || dist < label) label = dist;
    sink += label;
  }
  return sink;
}

void BM_FlatMap(benchmark::State& state) {
  const auto ops = LabelOps(static_cast<int>(state.range(0)),
                            4 * static_cast<int>(state.range(0)));
  for (auto _ : state) {
    FlatMap<int32_t, double> map;
    benchmark::DoNotOptimize(RunLabelOps(map, ops));
  }
  state.SetItemsProcessed(state.iterations() * ops.size());
}
BENCHMARK(BM_FlatMap)->Arg(1024)->Arg(65536);

void BM_StampedMap(benchmark::State& state) {
  const auto ops = LabelOps(static_cast<int>(state.range(0)),
                            4 * static_cast<int>(state.range(0)));
  StampedMap<int32_t, double> map;  // reused across iterations: O(1) Clear
  for (auto _ : state) {
    map.Clear();
    benchmark::DoNotOptimize(RunLabelOps(map, ops));
  }
  state.SetItemsProcessed(state.iterations() * ops.size());
}
BENCHMARK(BM_StampedMap)->Arg(1024)->Arg(65536);

void BM_StdUnorderedMap(benchmark::State& state) {
  const auto ops = LabelOps(static_cast<int>(state.range(0)),
                            4 * static_cast<int>(state.range(0)));
  for (auto _ : state) {
    std::unordered_map<int32_t, double> map;
    benchmark::DoNotOptimize(RunLabelOps(map, ops));
  }
  state.SetItemsProcessed(state.iterations() * ops.size());
}
BENCHMARK(BM_StdUnorderedMap)->Arg(1024)->Arg(65536);

// The per-customer resumable Dijkstra: settle `range(0)` nodes from a
// random source. items/s counts edge relaxations, so the reported rate
// is relaxations per second (the ns/relaxation of the WMA hot loop).
void BM_IncrementalDijkstra(benchmark::State& state) {
  const Graph& graph = UniformGraph20k();
  const int settles = static_cast<int>(state.range(0));
  Rng rng(12);
  int64_t relaxed = 0;
  for (auto _ : state) {
    IncrementalDijkstra dijkstra(
        &graph, static_cast<NodeId>(rng.UniformInt(0, graph.NumNodes() - 1)));
    for (int i = 0; i < settles; ++i) {
      if (!dijkstra.NextSettled().has_value()) break;
    }
    relaxed += dijkstra.num_relaxed();
  }
  state.SetItemsProcessed(relaxed);
}
BENCHMARK(BM_IncrementalDijkstra)->Arg(1000)->Arg(10000);

// Prefetch burst + consume on the nearest-facility stream (the matcher
// front end): 32 candidates buffered ahead, then popped.
void BM_StreamAdvance(benchmark::State& state) {
  const Graph& graph = UniformGraph20k();
  const int facilities = static_cast<int>(state.range(0));
  Rng rng(13);
  std::vector<int> facility_index_of_node(graph.NumNodes(), -1);
  const std::vector<NodeId> nodes =
      SampleDistinctNodes(graph, facilities, rng);
  for (int j = 0; j < facilities; ++j) facility_index_of_node[nodes[j]] = j;
  int64_t popped = 0;
  for (auto _ : state) {
    NearestFacilityStream stream(
        &graph, static_cast<NodeId>(rng.UniformInt(0, graph.NumNodes() - 1)),
        &facility_index_of_node);
    stream.Prefetch(32);
    for (int pops = 0; pops < 32; ++pops) {
      if (!stream.Pop().has_value()) break;
      ++popped;
    }
  }
  state.SetItemsProcessed(popped);
}
BENCHMARK(BM_StreamAdvance)->Arg(256);

void BM_HilbertIndex(benchmark::State& state) {
  Rng rng(6);
  uint64_t sink = 0;
  for (auto _ : state) {
    const uint32_t x = static_cast<uint32_t>(rng.UniformInt(0, (1 << 16) - 1));
    const uint32_t y = static_cast<uint32_t>(rng.UniformInt(0, (1 << 16) - 1));
    sink ^= HilbertIndex(16, x, y);
  }
  benchmark::DoNotOptimize(sink);
}
BENCHMARK(BM_HilbertIndex);

}  // namespace
}  // namespace mcfs

BENCHMARK_MAIN();
