#include "mcfs/core/set_cover.h"

#include <algorithm>
#include <utility>

#include "mcfs/common/check.h"
#include "mcfs/obs/flight_recorder.h"
#include "mcfs/obs/metrics.h"

namespace mcfs {

CoverIndex::CoverIndex(std::vector<int64_t> last_selected)
    : last_selected_(std::move(last_selected)),
      key_(last_selected_.size(), Entry{0.0, -1, 0, -1}),
      changed_flag_(last_selected_.size(), 0) {}

CoverIndex::Entry CoverIndex::KeyFromInput(const CoverInput& input,
                                           int j) const {
  return Entry{with_cost_ ? (*input.matched_cost)[j] : 0.0, last_selected_[j],
               static_cast<int>((*input.customers_of_facility)[j].size()), j};
}

void CoverIndex::Sync(const CoverInput& input) {
  auto pops_before = [this](int a, int b) { return FacilityPopsBefore(a, b); };
  const bool with_cost = input.matched_cost != nullptr;
  MCFS_CHECK(!built_ || with_cost == with_cost_)
      << "a CoverIndex serves one cost tie-break setting";
  if (!built_) {
    built_ = true;
    with_cost_ = with_cost;
    for (int j = 0; j < num_facilities(); ++j) {
      key_[j] = KeyFromInput(input, j);
      if (key_[j].gain > 0) order_.push_back(j);
    }
    std::sort(order_.begin(), order_.end(), pops_before);
  } else {
    // A reported facility whose key did not move keeps its place (WMA
    // Naive reports every facility it refills). The others leave the
    // order — the rest keep their keys, so it stays sorted — and the
    // non-empty ones are merged back in, each found by a galloping
    // search from the previous one's place, with block copies of the
    // runs between them.
    fresh_.clear();
    size_t moved = 0;
    for (const int j : changed_) {
      const Entry key = KeyFromInput(input, j);
      if (SameKey(key, key_[j])) {
        changed_flag_[j] = 0;
        continue;
      }
      ++moved;
      key_[j] = key;
      if (key.gain > 0) fresh_.push_back(key);
    }
    if (moved > 0) {
      size_t kept = 0;
      for (const int j : order_) {
        if (!changed_flag_[j]) order_[kept++] = j;
      }
      order_.resize(kept);
      std::sort(fresh_.begin(), fresh_.end(), PopsBefore);
      auto before = [this](int j, const Entry& e) {
        return PopsBefore(key_[j], e);
      };
      merged_.clear();
      size_t run = 0;
      for (const Entry& e : fresh_) {
        size_t bound = 1;
        while (run + bound <= order_.size() &&
               before(order_[run + bound - 1], e)) {
          bound *= 2;
        }
        const auto at = std::lower_bound(
            order_.begin() + run + bound / 2,
            order_.begin() + std::min(run + bound, order_.size()), e, before);
        merged_.insert(merged_.end(), order_.begin() + run, at);
        merged_.push_back(e.facility);
        run = at - order_.begin();
      }
      merged_.insert(merged_.end(), order_.begin() + run, order_.end());
      order_.swap(merged_);
    }
  }
  for (const int j : changed_) changed_flag_[j] = 0;
  changed_.clear();
  MCFS_DCHECK(OrderMatches(input));
}

bool CoverIndex::OrderMatches(const CoverInput& input) const {
  size_t non_empty = 0;
  for (int j = 0; j < num_facilities(); ++j) {
    const Entry key = KeyFromInput(input, j);
    if (!SameKey(key, key_[j])) return false;
    if (key.gain > 0) ++non_empty;
  }
  for (size_t p = 0; p < order_.size(); ++p) {
    if (key_[order_[p]].gain == 0) return false;
    if (p > 0 && !FacilityPopsBefore(order_[p - 1], order_[p])) return false;
  }
  return order_.size() == non_empty;
}

CoverResult CheckCover(const CoverInput& input, CoverIndex& index,
                       int64_t iteration) {
  MCFS_CHECK(input.customers_of_facility != nullptr);
  MCFS_CHECK(input.demand != nullptr);
  const auto& sigma = *input.customers_of_facility;
  MCFS_CHECK_EQ(static_cast<size_t>(index.num_facilities()), sigma.size());
  index.Sync(input);

  CoverResult result;
  result.covered.assign(input.num_customers, 0);

  // The candidates left to pop: the order from `cursor` on (persistent
  // keys) and the side heap of refreshed entries (a max-heap under
  // heap_less); pop_best() takes the better of the two heads.
  using Entry = CoverIndex::Entry;
  const std::vector<int>& order = index.order_;
  std::vector<Entry>& refreshed = index.refreshed_;
  refreshed.clear();
  size_t cursor = 0;
  auto heap_less = [](const Entry& a, const Entry& b) {
    return CoverIndex::PopsBefore(b, a);
  };
  auto best_is_refreshed = [&] {
    if (refreshed.empty()) return false;
    return cursor == order.size() ||
           CoverIndex::PopsBefore(refreshed.front(),
                                  index.key_[order[cursor]]);
  };
  auto empty = [&] { return cursor == order.size() && refreshed.empty(); };
  auto pop_best = [&] {
    if (!best_is_refreshed()) return index.key_[order[cursor++]];
    std::pop_heap(refreshed.begin(), refreshed.end(), heap_less);
    const Entry best = refreshed.back();
    refreshed.pop_back();
    return best;
  };

  int64_t candidates_scanned = 0;
  int64_t stale_reinserts = 0;
  int64_t recency_tiebreaks = 0;
  while (static_cast<int>(result.selected.size()) < input.k && !empty()) {
    if (input.deadline != nullptr && (candidates_scanned & 63) == 0 &&
        input.deadline->Expired()) {
      result.deadline_expired = true;
      break;
    }
    const Entry top = pop_best();
    ++candidates_scanned;
    int gain = 0;
    for (const int customer : sigma[top.facility]) {
      if (!result.covered[customer]) ++gain;
    }
    if (gain != top.gain) {
      // Stale entry: re-insert with the refreshed marginal gain
      // (Algorithm 3, lines 10-12). Gains only shrink, so lazy
      // re-evaluation is sound.
      if (gain > 0) {
        refreshed.push_back({top.cost, top.last_selected, gain, top.facility});
        std::push_heap(refreshed.begin(), refreshed.end(), heap_less);
        ++stale_reinserts;
      }
      continue;
    }
    if (gain == 0) break;  // nothing more to cover
    // Did the recency rule (least-recently-selected wins) decide this
    // pick? True when the next-best entry matches on both gain and the
    // cost tie-break — the diversification the paper leans on to rotate
    // the selection between iterations.
    if (!empty()) {
      const Entry next =
          best_is_refreshed() ? refreshed.front() : index.key_[order[cursor]];
      if (next.gain == top.gain && next.cost == top.cost) ++recency_tiebreaks;
    }
    result.selected.push_back(top.facility);
    for (const int customer : sigma[top.facility]) {
      result.covered[customer] = 1;
    }
  }
  MCFS_COUNT("cover/candidates_scanned", candidates_scanned);
  MCFS_COUNT("cover/stale_reinserts", stale_reinserts);
  MCFS_COUNT("cover/recency_tiebreaks", recency_tiebreaks);
  MCFS_COUNT("cover/selections",
             static_cast<int64_t>(result.selected.size()));
  MCFS_RECORD("cover/check_cover",
              static_cast<int64_t>(result.selected.size()),
              candidates_scanned);

  // The order was only read; the selected facilities' last_selected
  // moved, so the next call re-keys them.
  for (const int j : result.selected) {
    index.last_selected_[j] = iteration;
    index.MarkChanged(j);
  }

  // Exploration vector (Sec. IV-F): grow demand only for customers the
  // selection left uncovered and that can still explore new facilities.
  result.delta_demand.assign(input.num_customers, 0);
  result.all_delta_zero = true;
  result.fully_covered = true;
  for (int i = 0; i < input.num_customers; ++i) {
    if (result.covered[i]) continue;
    result.fully_covered = false;
    const bool can_explore =
        (*input.demand)[i] < input.demand_cap &&
        (input.saturated == nullptr || !(*input.saturated)[i]);
    if (can_explore) {
      result.delta_demand[i] = 1;
      result.all_delta_zero = false;
    }
  }
  return result;
}

}  // namespace mcfs
