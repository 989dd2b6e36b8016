#include "mcfs/graph/facility_stream.h"

#include <algorithm>

#include "mcfs/common/check.h"
#include "mcfs/obs/metrics.h"

namespace mcfs {

NearestFacilityStream::NearestFacilityStream(
    const Graph* graph, NodeId customer,
    const std::vector<int>* facility_index_of_node, size_t expected_nodes)
    : dijkstra_(graph, customer, expected_nodes),
      facility_index_of_node_(facility_index_of_node) {}

NearestFacilityStream::NearestFacilityStream(
    const Graph* graph, NodeId customer,
    const std::vector<int>* facility_index_of_node, StreamSeed seed,
    size_t expected_nodes)
    : dijkstra_(graph, customer, expected_nodes),
      facility_index_of_node_(facility_index_of_node),
      exhausted_(seed.exhausted) {
  buffer_.reserve(seed.buffered.size());
  for (const FacilityAtDistance& entry : seed.buffered) {
    // Seeded entries were paid for by a previous run: zero attribution,
    // so the logical stream/* counters charge only genuinely new work.
    buffer_.push_back(BufferedCandidate{entry, 0, 0});
  }
  fast_forward_remaining_ =
      seed.skip_discoveries + static_cast<int64_t>(seed.buffered.size());
  prefetched_watermark_ = static_cast<int64_t>(seed.buffered.size());
  if (!exhausted_ && seed.has_next) seeded_next_ = seed.next_distance;
  MCFS_COUNT("exec/stream/seeded_entries",
             static_cast<int64_t>(seed.buffered.size()));
}

void NearestFacilityStream::Narrow(
    const std::vector<int>* facility_index_of_node,
    const std::vector<FacilityAtDistance>& prefix) {
  MCFS_CHECK_GE(prefix.size(), static_cast<size_t>(BufferedCount()));
  MCFS_CHECK_GE(static_cast<int64_t>(prefix.size()), fast_forward_remaining_);
  facility_index_of_node_ = facility_index_of_node;
  // A pending fast-forward still has to pass the last
  // fast_forward_remaining_ entries of the old sequence; under the new
  // map it meets only the survivors among them.
  const size_t window = prefix.size() - fast_forward_remaining_;
  const int64_t settled = static_cast<int64_t>(dijkstra_.num_settled());
  const int64_t relaxed = dijkstra_.num_relaxed();
  buffer_.clear();
  buffer_head_ = 0;
  fast_forward_remaining_ = 0;
  for (size_t p = 0; p < prefix.size(); ++p) {
    if (prefix[p].facility < 0) continue;
    buffer_.push_back(BufferedCandidate{prefix[p], settled, relaxed});
    if (p >= window) ++fast_forward_remaining_;
  }
  attributed_settled_ = settled;
  attributed_relaxed_ = relaxed;
  num_popped_ = 0;
  prefetched_watermark_ = static_cast<int64_t>(buffer_.size());
  // The seed's known next distance described the old sequence.
  seeded_next_.reset();
}

bool NearestFacilityStream::AdvanceOne() {
  if (exhausted_) return false;
  while (true) {
    std::optional<SettledNode> settled = dijkstra_.NextSettled();
    if (!settled.has_value()) {
      exhausted_ = true;
      seeded_next_.reset();
      return false;
    }
    reached_distance_ = std::max(reached_distance_, settled->distance);
    const int facility = (*facility_index_of_node_)[settled->node];
    if (facility >= 0) {
      if (fast_forward_remaining_ > 0) {
        // Re-discovery of a seeded (or previously consumed) candidate:
        // already served from the buffer or accounted by the caller.
        --fast_forward_remaining_;
        MCFS_COUNT("exec/stream/fast_forward_skips", 1);
        continue;
      }
      seeded_next_.reset();
      buffer_.push_back(
          BufferedCandidate{FacilityAtDistance{facility, settled->distance},
                            static_cast<int64_t>(dijkstra_.num_settled()),
                            dijkstra_.num_relaxed()});
      // Physical discovery work, counted when it happens (possibly on a
      // prefetch worker thread) — thread-count dependent by design.
      MCFS_COUNT("exec/stream/candidates_discovered", 1);
      return true;
    }
  }
}

void NearestFacilityStream::Prefetch(int count) {
  const int64_t before = dijkstra_.num_settled();
  while (BufferedCount() < count) {
    if (!AdvanceOne()) break;
  }
  MCFS_COUNT("exec/stream/prefetch_settles",
             static_cast<int64_t>(dijkstra_.num_settled()) - before);
  prefetched_watermark_ =
      std::max(prefetched_watermark_,
               num_popped_ + static_cast<int64_t>(BufferedCount()));
}

double NearestFacilityStream::PeekDistance() {
  if (BufferedCount() == 0) {
    // A still-pending seed knows the next distance: answer without
    // starting the Dijkstra (this keeps warm Theorem-1 threshold scans
    // free until the consumer genuinely advances past the seed).
    if (seeded_next_.has_value()) return *seeded_next_;
    if (!AdvanceOne()) return kInfDistance;
  }
  return buffer_[buffer_head_].candidate.distance;
}

std::optional<FacilityAtDistance> NearestFacilityStream::Pop() {
  const bool was_buffered = BufferedCount() > 0;
  if (!was_buffered && !AdvanceOne()) return std::nullopt;
  const BufferedCandidate entry = buffer_[buffer_head_];
  reached_distance_ = std::max(reached_distance_, entry.candidate.distance);
  ++buffer_head_;
  if (buffer_head_ == buffer_.size()) {
    // Drained: rewind so the retained capacity is reused in place.
    buffer_.clear();
    buffer_head_ = 0;
  } else if (buffer_head_ >= 64 && buffer_head_ * 2 >= buffer_.size()) {
    // The consumed prefix dominates the buffer: compact it away so a
    // never-fully-drained stream cannot grow without bound.
    buffer_.erase(buffer_.begin(),
                  buffer_.begin() + static_cast<int64_t>(buffer_head_));
    buffer_head_ = 0;
    MCFS_COUNT("exec/alloc/stream_ring_compactions", 1);
  }

  // Logical consumed-work attribution: the Dijkstra effort needed to
  // discover this candidate is a pure function of (graph, source, pop
  // index), so these counters are bit-identical for any thread count
  // even though prefetching may have done the work earlier (or further
  // ahead) on another thread.
  MCFS_COUNT("stream/candidates_popped", 1);
  MCFS_COUNT("stream/nodes_settled", entry.settled_at - attributed_settled_);
  MCFS_COUNT("stream/edges_relaxed", entry.relaxed_at - attributed_relaxed_);
  attributed_settled_ = entry.settled_at;
  attributed_relaxed_ = entry.relaxed_at;

  // Physical buffer behaviour: did an earlier Prefetch() pay for this
  // candidate, or did the consumer stall on an inline advance? Both
  // counters fire (one with 0) so the hit rate is always derivable.
  const bool prefetch_hit =
      num_popped_ < prefetched_watermark_ && was_buffered;
  MCFS_COUNT("exec/stream/prefetch_hits", prefetch_hit ? 1 : 0);
  MCFS_COUNT("exec/stream/prefetch_misses", prefetch_hit ? 0 : 1);
  ++num_popped_;
  return entry.candidate;
}

}  // namespace mcfs
