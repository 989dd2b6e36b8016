#ifndef MCFS_GRAPH_FACILITY_STREAM_H_
#define MCFS_GRAPH_FACILITY_STREAM_H_

#include <optional>
#include <vector>

#include "mcfs/graph/dijkstra.h"
#include "mcfs/graph/graph.h"

namespace mcfs {

// A candidate facility encountered by a NearestFacilityStream: the
// facility's index in the instance's candidate list and its network
// distance from the stream's customer.
struct FacilityAtDistance {
  int facility = -1;
  double distance = kInfDistance;
};

// Warm-start state for a NearestFacilityStream. Because the discovery
// sequence is a pure function of (graph, source, facility membership),
// a prior run's discoveries can be handed back to a fresh stream and
// served without re-running the Dijkstra; the Dijkstra only starts when
// the consumer advances past everything the seed covered, at which
// point it fast-forwards through the already-accounted discoveries.
struct StreamSeed {
  // Pre-discovered candidates, served in order before any Dijkstra work.
  std::vector<FacilityAtDistance> buffered;
  // Discoveries already consumed by the previous run (the caller kept
  // them elsewhere, e.g. as materialized bipartite edges). Skipped —
  // together with `buffered` — when the Dijkstra eventually runs.
  int skip_discoveries = 0;
  // The previous run proved there is nothing beyond the seeded entries.
  bool exhausted = false;
  // Distance of the first discovery after `buffered`, when the previous
  // run knew it (e.g. from its own still-pending seed). Lets
  // PeekDistance() answer past the buffer without touching the Dijkstra.
  bool has_next = false;
  double next_distance = kInfDistance;
};

// Streams the candidate facilities reachable from one customer in
// non-decreasing network-distance order, lazily expanding an
// IncrementalDijkstra. This is the "next NN of x in G" primitive of
// Algorithm 2 (FindPair): the matcher pops one facility at a time to
// materialize one new bipartite edge, and peeks the next distance to
// evaluate the Theorem-1 pruning threshold.
//
// The stream separates *advancing* (running the Dijkstra to discover
// more facilities, buffered internally) from *consuming* (Pop). The
// discovered sequence is a pure function of the graph and the source
// node, so Prefetch() never changes what later Pop()s return — it only
// moves the Dijkstra work earlier. This is what makes WMA's batched
// parallel prefetch deterministic: worker threads each advance disjoint
// streams ahead of time, and the serial matcher then consumes cached
// entries in the exact order it always would have.
//
// Instrumentation (see DESIGN.md "Observability"): the underlying
// Dijkstra work is attributed to two counter families. The logical
// family (`stream/candidates_popped`, `stream/nodes_settled`,
// `stream/edges_relaxed`) charges, at Pop() time, exactly the settles
// and relaxations needed to discover the popped candidate — a pure
// function of (graph, source, pop index), hence bit-identical for any
// thread count. The physical family (`exec/stream/*`) counts the work
// when it actually happens (including speculative prefetch lookahead
// and buffer hits/misses) and legitimately varies with the thread
// count.
class NearestFacilityStream {
 public:
  // `facility_index_of_node` has one entry per graph node: the candidate
  // facility index located at that node, or -1. Owned by the caller and
  // must outlive the stream. `expected_nodes` is a reserve hint for the
  // underlying Dijkstra's label maps (how many nodes the caller expects
  // this customer to settle, e.g. derived from the facility density);
  // 0 starts minimal.
  NearestFacilityStream(const Graph* graph, NodeId customer,
                        const std::vector<int>* facility_index_of_node,
                        size_t expected_nodes = 0);

  // Warm construction: serves `seed.buffered` first and defers the
  // Dijkstra until the consumer advances past the seeded prefix. The
  // caller is responsible for the seed matching the *current* facility
  // membership map (entries for facilities no longer in the map must be
  // filtered out, and skip_discoveries counted under the current map);
  // under that contract the Pop() sequence is identical to a cold
  // stream's, only cheaper.
  NearestFacilityStream(const Graph* graph, NodeId customer,
                        const std::vector<int>* facility_index_of_node,
                        StreamSeed seed, size_t expected_nodes = 0);

  // Exact network distance of the next not-yet-popped candidate
  // facility, or kInfDistance when the customer's component has no more
  // candidate facilities.
  double PeekDistance();

  // Consumes and returns the next nearest candidate facility.
  std::optional<FacilityAtDistance> Pop();

  // Narrows the stream to a sub-membership without restarting its
  // Dijkstra. `facility_index_of_node` replaces the current map: it must
  // list a subset of the current facilities (re-indexed freely) and
  // outlive the stream. `prefix` is the whole sequence served so far
  // under the current map, in order: what the consumer popped (and, for
  // a stream seeded with skip_discoveries, the skipped entries before
  // that), then BufferedEntries(). Each entry carries its index under
  // the new map, or -1 when the facility is not in it. The stream then
  // serves the surviving entries first; their Dijkstra work was paid
  // before, so popping them charges nothing to the logical stream/*
  // counters. Because the settle order from a source does not depend on
  // which nodes are facilities, the Pop() and PeekDistance() sequence
  // equals that of a fresh stream over the new map (DESIGN.md §3, final
  // assignment).
  void Narrow(const std::vector<int>* facility_index_of_node,
              const std::vector<FacilityAtDistance>& prefix);

  // Advance-only: ensures at least `count` not-yet-popped candidates are
  // buffered (stopping early when the component runs out of candidates).
  // Safe to call from a worker thread as long as no other thread touches
  // this stream concurrently; does not change the Pop() sequence.
  void Prefetch(int count);

  // Candidates discovered but not yet popped.
  int BufferedCount() const {
    return static_cast<int>(buffer_.size() - buffer_head_);
  }

  bool Exhausted() { return PeekDistance() == kInfDistance; }

  NodeId customer() const { return dijkstra_.source(); }
  int num_popped() const { return num_popped_; }

  // --- Warm-seed export accessors (read-only; see StreamSeed). ---

  // Discovered-but-unpopped candidates in pop order.
  std::vector<FacilityAtDistance> BufferedEntries() const {
    std::vector<FacilityAtDistance> out;
    out.reserve(buffer_.size() - buffer_head_);
    for (size_t i = buffer_head_; i < buffer_.size(); ++i) {
      out.push_back(buffer_[i].candidate);
    }
    return out;
  }

  // True when the component is known to hold no candidates beyond the
  // buffered ones. Unlike Exhausted(), never advances the Dijkstra.
  bool DijkstraExhausted() const { return exhausted_; }

  // Distance of the first discovery beyond the buffer, when known
  // without Dijkstra work (still-pending seed); nullopt otherwise.
  std::optional<double> KnownNextDistance() const { return seeded_next_; }

 private:
  // A discovered candidate plus the cumulative Dijkstra work at its
  // discovery (for consumed-work attribution at Pop time).
  struct BufferedCandidate {
    FacilityAtDistance candidate;
    int64_t settled_at = 0;
    int64_t relaxed_at = 0;
  };

  // Appends the next candidate facility to the buffer; false when the
  // component has no more candidates.
  bool AdvanceOne();

  IncrementalDijkstra dijkstra_;
  const std::vector<int>* facility_index_of_node_;
  // Head-index ring: prefetch bursts append to the vector (one
  // amortized reallocation instead of a deque block allocation per
  // chunk) and Pop advances buffer_head_. Draining resets both so the
  // capacity is reused; a long-lived consumed prefix is compacted away
  // (exec/alloc/stream_ring_compactions).
  std::vector<BufferedCandidate> buffer_;
  size_t buffer_head_ = 0;
  bool exhausted_ = false;
  int num_popped_ = 0;
  // Discovery index below which candidates were buffered by Prefetch()
  // (drives the exec/stream/prefetch_hit|miss split at Pop time).
  int64_t prefetched_watermark_ = 0;
  // Seeded discoveries the lazily-started Dijkstra must skip before it
  // produces anything new (previously consumed + handed-in buffer).
  int64_t fast_forward_remaining_ = 0;
  // Seed-known distance of the first post-buffer discovery; cleared the
  // moment the Dijkstra actually reaches new ground.
  std::optional<double> seeded_next_;
  // Cumulative Dijkstra work already charged to popped candidates.
  int64_t attributed_settled_ = 0;
  int64_t attributed_relaxed_ = 0;
};

}  // namespace mcfs

#endif  // MCFS_GRAPH_FACILITY_STREAM_H_
