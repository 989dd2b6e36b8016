#ifndef MCFS_CORE_SET_COVER_H_
#define MCFS_CORE_SET_COVER_H_

#include <cstdint>
#include <vector>

#include "mcfs/common/deadline.h"

namespace mcfs {

// Input to the CheckCover routine (Algorithm 3): for every candidate
// facility j, the set sigma_j of customers currently assigned to it in
// G_b, plus the demand state used to compute the exploration vector.
struct CoverInput {
  int num_customers = 0;
  int k = 0;
  // sigma_j per facility; customers listed by index.
  const std::vector<std::vector<int>>* customers_of_facility = nullptr;
  const std::vector<int>* demand = nullptr;     // d_i per customer
  int demand_cap = 0;                           // l in the paper
  const std::vector<uint8_t>* saturated = nullptr;  // no augmenting path
  // Optional: total matched distance per facility. When set, equal
  // marginal gains are first broken toward the facility whose matched
  // customers are nearer (cost-aware tie-break; see WmaOptions), then
  // by recency.
  const std::vector<double>* matched_cost = nullptr;
  // Optional cooperative deadline, polled every 64 candidate scans.
  // On expiry the scan stops early: the partial selection so far is
  // returned with deadline_expired set (still a valid greedy prefix).
  const Deadline* deadline = nullptr;
};

struct CoverResult {
  std::vector<int> selected;          // chosen facilities, size <= k
  std::vector<uint8_t> covered;       // per customer
  std::vector<uint8_t> delta_demand;  // exploration vector (0/1)
  bool all_delta_zero = false;        // WMA main-loop termination signal
  bool fully_covered = false;         // every customer truly covered
  bool deadline_expired = false;      // scan cut short by input.deadline
};

// CheckCover's candidate order, kept across calls so that an iteration
// of the WMA demand-growth loop pays for what changed instead of a heap
// built over all l facilities. It holds every facility with a non-empty
// sigma_j sorted by the lazy greedy's key (gain = |sigma_j|, matched
// cost, last_selected, id), which is a total order because ids are
// distinct. A call re-keys only the facilities reported through
// MarkChanged and the ones the previous call selected (their
// last_selected moved). Those whose key did move leave the order and are
// merged back in at their new keys; the rest of the order is copied in
// blocks, one pass of ints. The scan walks the order with a cursor and
// keeps the entries it refreshed in a small side heap, so a scanned
// candidate costs O(log refreshed), not a heap operation over all l.
//
// The caller reports every facility whose sigma_j or matched cost it
// changed since the previous CheckCover on this index; a fresh index
// keys every facility on its first call. Every call on one index passes
// matched_cost, or none does.
class CoverIndex {
 public:
  // `last_selected[j]` is the iteration at which facility j was last
  // part of a selection, -1 = never.
  explicit CoverIndex(std::vector<int64_t> last_selected);
  explicit CoverIndex(int num_facilities)
      : CoverIndex(std::vector<int64_t>(num_facilities, -1)) {}

  // Reports that sigma_j or matched_cost[j] of `facility` changed since
  // the previous CheckCover on this index.
  void MarkChanged(int facility) {
    if (changed_flag_[facility]) return;
    changed_flag_[facility] = 1;
    changed_.push_back(facility);
  }

  const std::vector<int64_t>& last_selected() const { return last_selected_; }

 private:
  friend CoverResult CheckCover(const CoverInput& input, CoverIndex& index,
                                int64_t iteration);

  // One candidate under the lazy greedy's key (fields ordered for a
  // padding-free 24 bytes).
  struct Entry {
    double cost;  // 0 when the cost-aware tie-break is off
    int64_t last_selected;
    int gain;
    int facility;
  };
  // Whether a pops before b: larger gain, then the cheaper matched cost,
  // then the least recently selected, then the smaller id.
  static bool PopsBefore(const Entry& a, const Entry& b) {
    if (a.gain != b.gain) return a.gain > b.gain;
    if (a.cost != b.cost) return a.cost < b.cost;
    if (a.last_selected != b.last_selected) {
      return a.last_selected < b.last_selected;
    }
    return a.facility < b.facility;
  }
  static bool SameKey(const Entry& a, const Entry& b) {
    return a.gain == b.gain && a.cost == b.cost &&
           a.last_selected == b.last_selected && a.facility == b.facility;
  }
  bool FacilityPopsBefore(int a, int b) const {
    return PopsBefore(key_[a], key_[b]);
  }

  int num_facilities() const { return static_cast<int>(key_.size()); }
  // Facility j's key under the input and last_selected_.
  Entry KeyFromInput(const CoverInput& input, int j) const;
  // Brings the order up to date with the input before a scan.
  void Sync(const CoverInput& input);
  // The order holds exactly the non-empty facilities, sorted under keys
  // equal to the input's (debug check).
  bool OrderMatches(const CoverInput& input) const;

  std::vector<int64_t> last_selected_;
  // The key each facility is sorted under; a facility is in order_ iff
  // its key's gain is positive.
  std::vector<Entry> key_;
  std::vector<int> order_;  // pop order
  bool built_ = false;
  bool with_cost_ = false;
  std::vector<int> changed_;  // to re-key at the next call
  std::vector<uint8_t> changed_flag_;
  // Scratch reused across calls: re-keyed entries, the merged order, and
  // the scan's side heap of refreshed entries.
  std::vector<Entry> fresh_;
  std::vector<int> merged_;
  std::vector<Entry> refreshed_;
};

// Greedy max-coverage selection of up to k facilities with lazy marginal
// gain re-evaluation; ties between equal gains are broken in favor of
// the facility selected least recently (the paper's diversification
// strategy, Sec. IV-A), then by facility id. The index's last_selected
// is updated for the facilities selected now. The pops are exactly those
// of a max-heap built over every non-empty facility at the call: the
// order's unscanned tail plus the side heap hold, at every step, the
// entries that heap would hold, under the same total order.
//
// delta_demand[i] = 1 iff customer i is uncovered by the selection and
// can still explore (d_i < demand_cap and not saturated).
CoverResult CheckCover(const CoverInput& input, CoverIndex& index,
                       int64_t iteration);

}  // namespace mcfs

#endif  // MCFS_CORE_SET_COVER_H_
