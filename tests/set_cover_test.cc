#include "mcfs/core/set_cover.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <queue>
#include <string>

#include "mcfs/common/random.h"
#include "mcfs/obs/metrics.h"

namespace mcfs {
namespace {

CoverInput MakeInput(int num_customers, int k,
                     const std::vector<std::vector<int>>* sigma,
                     const std::vector<int>* demand, int demand_cap) {
  CoverInput input;
  input.num_customers = num_customers;
  input.k = k;
  input.customers_of_facility = sigma;
  input.demand = demand;
  input.demand_cap = demand_cap;
  return input;
}

TEST(CheckCoverTest, SelectsGreedyMaxCoverage) {
  // f0 covers {0,1,2}; f1 covers {2,3}; f2 covers {3}. k=2 should take
  // f0 then f1 and cover everyone.
  const std::vector<std::vector<int>> sigma = {{0, 1, 2}, {2, 3}, {3}};
  const std::vector<int> demand(4, 1);
  CoverIndex index(3);
  const CoverResult result =
      CheckCover(MakeInput(4, 2, &sigma, &demand, 3), index, 0);
  EXPECT_EQ(result.selected, (std::vector<int>{0, 1}));
  EXPECT_TRUE(result.fully_covered);
  EXPECT_TRUE(result.all_delta_zero);
}

TEST(CheckCoverTest, LazyGainRefreshAvoidsDoubleCounting) {
  // f1's raw count (3) exceeds f2's (2), but after f0 is taken f1's
  // marginal gain drops to 1 while f2 still gains 2.
  const std::vector<std::vector<int>> sigma = {
      {0, 1, 2, 3}, {1, 2, 3}, {4, 5}};
  const std::vector<int> demand(6, 1);
  CoverIndex index(3);
  const CoverResult result =
      CheckCover(MakeInput(6, 2, &sigma, &demand, 3), index, 0);
  EXPECT_EQ(result.selected, (std::vector<int>{0, 2}));
  EXPECT_TRUE(result.fully_covered);
}

TEST(CheckCoverTest, UncoveredCustomersGetDemandIncrease) {
  const std::vector<std::vector<int>> sigma = {{0}, {1}};
  const std::vector<int> demand = {1, 1, 1};
  CoverIndex index(2);
  const CoverResult result =
      CheckCover(MakeInput(3, 2, &sigma, &demand, 2), index, 0);
  EXPECT_FALSE(result.fully_covered);
  EXPECT_FALSE(result.all_delta_zero);
  EXPECT_EQ(result.delta_demand[0], 0);  // covered
  EXPECT_EQ(result.delta_demand[1], 0);  // covered
  EXPECT_EQ(result.delta_demand[2], 1);  // uncovered, can explore
}

TEST(CheckCoverTest, DemandCapStopsExploration) {
  const std::vector<std::vector<int>> sigma = {{0}};
  const std::vector<int> demand = {1, 1};  // customer 1 at cap (cap=1)
  CoverIndex index(1);
  const CoverResult result =
      CheckCover(MakeInput(2, 1, &sigma, &demand, 1), index, 0);
  EXPECT_FALSE(result.fully_covered);
  EXPECT_TRUE(result.all_delta_zero);  // cap reached: loop must stop
}

TEST(CheckCoverTest, SaturatedCustomersDoNotExplore) {
  const std::vector<std::vector<int>> sigma = {{0}};
  const std::vector<int> demand = {1, 1};
  const std::vector<uint8_t> saturated = {0, 1};
  CoverInput input = MakeInput(2, 1, &sigma, &demand, 5);
  input.saturated = &saturated;
  CoverIndex index(1);
  const CoverResult result = CheckCover(input, index, 0);
  EXPECT_TRUE(result.all_delta_zero);
  EXPECT_FALSE(result.fully_covered);
}

TEST(CheckCoverTest, RecencyBreaksTies) {
  // Both facilities cover one distinct customer each; k=1. The one
  // selected least recently must win the tie.
  const std::vector<std::vector<int>> sigma = {{0}, {1}};
  const std::vector<int> demand = {1, 1};
  // f1 chosen longer ago.
  CoverIndex index(std::vector<int64_t>{5, 2});
  const CoverResult result =
      CheckCover(MakeInput(2, 1, &sigma, &demand, 2), index, 7);
  EXPECT_EQ(result.selected, (std::vector<int>{1}));
  // Updated to the current iteration.
  EXPECT_EQ(index.last_selected()[1], 7);
  EXPECT_EQ(index.last_selected()[0], 5);
}

TEST(CheckCoverTest, StopsAtZeroGain) {
  // Only one facility has any customers; k=3 must not select empties.
  const std::vector<std::vector<int>> sigma = {{0, 1}, {}, {}};
  const std::vector<int> demand = {1, 1};
  CoverIndex index(3);
  const CoverResult result =
      CheckCover(MakeInput(2, 3, &sigma, &demand, 3), index, 0);
  EXPECT_EQ(result.selected, (std::vector<int>{0}));
  EXPECT_TRUE(result.fully_covered);
}

TEST(CheckCoverDeathTest, CostTieBreakIsFixedPerIndex) {
  const std::vector<std::vector<int>> sigma = {{0}, {1}};
  const std::vector<double> matched_cost = {1.0, 2.0};
  const std::vector<int> demand = {1, 1};
  CoverInput input = MakeInput(2, 1, &sigma, &demand, 2);
  input.matched_cost = &matched_cost;
  CoverIndex index(2);
  CheckCover(input, index, 0);
  input.matched_cost = nullptr;
  EXPECT_DEATH(CheckCover(input, index, 1), "one cost tie-break");
}

// Reference for the equivalence test below: the lazy greedy over one
// max-heap built afresh, at every call, from every non-empty facility.
struct ReferenceCover {
  CoverResult result;
  int64_t candidates_scanned = 0;
  int64_t stale_reinserts = 0;
  int64_t recency_tiebreaks = 0;
};

ReferenceCover HeapPerCallCover(const CoverInput& input,
                                std::vector<int64_t>& last_selected,
                                int64_t iteration) {
  struct Entry {
    int gain;
    double cost;
    int64_t last_selected;
    int facility;
  };
  struct Less {
    bool operator()(const Entry& a, const Entry& b) const {
      if (a.gain != b.gain) return a.gain < b.gain;
      if (a.cost != b.cost) return a.cost > b.cost;
      if (a.last_selected != b.last_selected) {
        return a.last_selected > b.last_selected;
      }
      return a.facility > b.facility;
    }
  };
  const auto& sigma = *input.customers_of_facility;
  ReferenceCover out;
  CoverResult& result = out.result;
  result.covered.assign(input.num_customers, 0);
  std::priority_queue<Entry, std::vector<Entry>, Less> heap;
  for (int j = 0; j < static_cast<int>(sigma.size()); ++j) {
    if (sigma[j].empty()) continue;
    const double cost =
        input.matched_cost == nullptr ? 0.0 : (*input.matched_cost)[j];
    heap.push({static_cast<int>(sigma[j].size()), cost, last_selected[j], j});
  }
  while (static_cast<int>(result.selected.size()) < input.k &&
         !heap.empty()) {
    if (input.deadline != nullptr && (out.candidates_scanned & 63) == 0 &&
        input.deadline->Expired()) {
      result.deadline_expired = true;
      break;
    }
    const Entry top = heap.top();
    heap.pop();
    ++out.candidates_scanned;
    int gain = 0;
    for (const int customer : sigma[top.facility]) {
      if (!result.covered[customer]) ++gain;
    }
    if (gain != top.gain) {
      if (gain > 0) {
        heap.push({gain, top.cost, top.last_selected, top.facility});
        ++out.stale_reinserts;
      }
      continue;
    }
    if (gain == 0) break;
    if (!heap.empty() && heap.top().gain == top.gain &&
        heap.top().cost == top.cost) {
      ++out.recency_tiebreaks;
    }
    result.selected.push_back(top.facility);
    for (const int customer : sigma[top.facility]) {
      result.covered[customer] = 1;
    }
  }
  for (const int j : result.selected) last_selected[j] = iteration;
  result.delta_demand.assign(input.num_customers, 0);
  result.all_delta_zero = true;
  result.fully_covered = true;
  for (int i = 0; i < input.num_customers; ++i) {
    if (result.covered[i]) continue;
    result.fully_covered = false;
    if ((*input.demand)[i] < input.demand_cap &&
        (input.saturated == nullptr || !(*input.saturated)[i])) {
      result.delta_demand[i] = 1;
      result.all_delta_zero = false;
    }
  }
  return out;
}

int64_t CounterOrZero(const obs::MetricsSnapshot& snapshot,
                      const std::string& name) {
  const auto it = snapshot.counters.find(name);
  return it == snapshot.counters.end() ? 0 : it->second;
}

// One persistent CoverIndex driven through a demand-growth-like sequence
// — each step a few facilities' sigma grow, shrink or empty, with gains
// and costs drawn from tiny ranges so ties on both are the rule — must
// pop exactly what a heap built afresh at every call pops.
class CoverIndexEquivalenceTest : public ::testing::TestWithParam<int> {};

TEST_P(CoverIndexEquivalenceTest, MatchesHeapPerCallLazyGreedy) {
  Rng rng(900 + GetParam());
  const int l = GetParam() % 2 == 0 ? 24 : 150;
  const int m = GetParam() % 2 == 0 ? 12 : 60;
  // With and without the cost tie-break (every gain tie then falls
  // through to recency).
  const bool with_cost = GetParam() % 3 != 2;
  std::vector<std::vector<int>> sigma(l);
  std::vector<double> matched_cost(l, 0.0);
  std::vector<int> demand(m, 1);
  std::vector<uint8_t> saturated(m, 0);
  std::vector<int64_t> reference_last_selected(l, -1);
  CoverIndex index(l);

  auto random_customer = [&] {
    return static_cast<int>(rng.UniformInt(0, m - 1));
  };
  auto change = [&](int j) {
    const int64_t move = rng.UniformInt(0, 9);
    if (move < 6) {
      const int customer = random_customer();
      if (std::find(sigma[j].begin(), sigma[j].end(), customer) ==
          sigma[j].end()) {
        sigma[j].push_back(customer);
      }
    } else if (move < 9 && !sigma[j].empty()) {
      sigma[j].erase(sigma[j].begin() +
                     rng.UniformInt(0, sigma[j].size() - 1));
    } else {
      sigma[j].clear();
    }
    // Three cost levels: equal costs between equal gains are common.
    matched_cost[j] = static_cast<double>(rng.UniformInt(0, 2));
    index.MarkChanged(j);
  };
  for (int j = 0; j < l; ++j) {
    if (rng.UniformInt(0, 3) != 0) change(j);
  }

  obs::EnableMetrics(true);
  obs::ResetMetrics();
  for (int64_t iteration = 0; iteration < 300; ++iteration) {
    if (iteration > 0) {
      const int changes = static_cast<int>(rng.UniformInt(1, 4));
      for (int c = 0; c < changes; ++c) {
        change(static_cast<int>(rng.UniformInt(0, l - 1)));
      }
    }
    for (int i = 0; i < m; ++i) {
      demand[i] = static_cast<int>(rng.UniformInt(1, 3));
      saturated[i] = rng.UniformInt(0, 9) == 0;
    }
    int non_empty = 0;
    for (const auto& customers : sigma) non_empty += !customers.empty();
    CoverInput input;
    input.num_customers = m;
    const int64_t k_draw = rng.UniformInt(0, 3);
    input.k = k_draw == 0   ? 1
              : k_draw == 1 ? 3
              : k_draw == 2 ? non_empty
                            : non_empty + 5;
    input.customers_of_facility = &sigma;
    input.demand = &demand;
    input.demand_cap = 3;
    input.saturated = &saturated;
    if (with_cost) input.matched_cost = &matched_cost;
    // Poll-mode deadlines (stateful), one per side: 0 polls = already
    // expired; 2 polls = expires at the 64th scan.
    const int64_t deadline_draw = rng.UniformInt(0, 9);
    const int64_t polls = deadline_draw == 0 ? 0 : 2;
    Deadline reference_deadline = Deadline::AfterPolls(polls);
    Deadline index_deadline = Deadline::AfterPolls(polls);

    if (deadline_draw <= 1) input.deadline = &reference_deadline;
    const ReferenceCover expected =
        HeapPerCallCover(input, reference_last_selected, iteration);
    if (deadline_draw <= 1) input.deadline = &index_deadline;
    const obs::MetricsSnapshot before = obs::SnapshotMetrics();
    const CoverResult actual = CheckCover(input, index, iteration);
    const obs::MetricsSnapshot after = obs::SnapshotMetrics();
    auto delta = [&](const std::string& name) {
      return CounterOrZero(after, name) - CounterOrZero(before, name);
    };

    SCOPED_TRACE("iteration " + std::to_string(iteration));
    ASSERT_EQ(actual.selected, expected.result.selected);
    ASSERT_EQ(actual.covered, expected.result.covered);
    ASSERT_EQ(actual.delta_demand, expected.result.delta_demand);
    ASSERT_EQ(actual.all_delta_zero, expected.result.all_delta_zero);
    ASSERT_EQ(actual.fully_covered, expected.result.fully_covered);
    ASSERT_EQ(actual.deadline_expired, expected.result.deadline_expired);
    ASSERT_EQ(index.last_selected(), reference_last_selected);
    EXPECT_EQ(delta("cover/candidates_scanned"), expected.candidates_scanned);
    EXPECT_EQ(delta("cover/stale_reinserts"), expected.stale_reinserts);
    EXPECT_EQ(delta("cover/recency_tiebreaks"), expected.recency_tiebreaks);
    EXPECT_EQ(delta("cover/selections"),
              static_cast<int64_t>(expected.result.selected.size()));
  }
  obs::EnableMetrics(false);
  obs::ResetMetrics();
}

INSTANTIATE_TEST_SUITE_P(RandomSequences, CoverIndexEquivalenceTest,
                         ::testing::Range(0, 6));

}  // namespace
}  // namespace mcfs
