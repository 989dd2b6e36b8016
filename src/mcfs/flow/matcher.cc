#include "mcfs/flow/matcher.h"

#include <algorithm>

#include "mcfs/common/check.h"
#include "mcfs/common/thread_pool.h"
#include "mcfs/graph/dijkstra.h"
#include "mcfs/obs/flight_recorder.h"
#include "mcfs/obs/metrics.h"

namespace mcfs {

namespace {
constexpr double kEps = 1e-9;
}  // namespace

IncrementalMatcher::IncrementalMatcher(const Graph* graph,
                                       std::vector<NodeId> customer_nodes,
                                       std::vector<NodeId> facility_nodes,
                                       std::vector<int> capacities)
    : graph_(graph),
      m_(static_cast<int>(customer_nodes.size())),
      l_(static_cast<int>(facility_nodes.size())),
      customer_nodes_(std::move(customer_nodes)),
      facility_nodes_(std::move(facility_nodes)),
      capacities_(std::move(capacities)) {
  MCFS_CHECK_EQ(capacities_.size(), facility_nodes_.size());
  assigned_count_.assign(l_, 0);
  customer_match_count_.assign(m_, 0);
  edges_.resize(m_);
  facility_matches_.resize(l_);
  facility_changed_.assign(l_, 0);
  potential_.assign(m_ + l_, 0.0);
  facility_index_of_node_.assign(graph_->NumNodes(), -1);
  for (int j = 0; j < l_; ++j) {
    NodeId node = facility_nodes_[j];
    MCFS_CHECK(node >= 0 && node < graph_->NumNodes());
    MCFS_CHECK_EQ(facility_index_of_node_[node], -1)
        << "two candidate facilities on node " << node;
    facility_index_of_node_[node] = j;
    MCFS_CHECK_GE(capacities_[j], 0);
  }
  streams_.resize(m_);
  dist_.assign(m_ + l_, kInfDistance);
  parent_.assign(m_ + l_, -1);
  settled_.assign(m_ + l_, 0);
}

size_t IncrementalMatcher::StreamReserveHint() const {
  // Reserve hint from the instance shape: with l_ candidates spread
  // over the network a customer settles ~NumNodes/l_ nodes per
  // discovered facility, and FindPair rarely needs more than a few
  // candidates per customer.
  return std::min<size_t>(
      static_cast<size_t>(graph_->NumNodes()),
      8 + 4 * static_cast<size_t>(graph_->NumNodes()) /
              static_cast<size_t>(std::max(1, l_)));
}

NearestFacilityStream& IncrementalMatcher::StreamFor(int customer) {
  if (streams_[customer] == nullptr) {
    MCFS_DCHECK(!streams_given_away_);
    streams_[customer] = std::make_unique<NearestFacilityStream>(
        graph_, customer_nodes_[customer], &facility_index_of_node_,
        StreamReserveHint());
  }
  return *streams_[customer];
}

void IncrementalMatcher::SeedStreamPrefix(
    int customer, const WarmSeedCustomer& seed_customer) {
  MCFS_CHECK(customer >= 0 && customer < m_);
  MCFS_CHECK(streams_[customer] == nullptr)
      << "SeedStreamPrefix after the stream was already created";
  MCFS_CHECK_EQ(seed_customer.node, customer_nodes_[customer]);
  StreamSeed seed;
  seed.buffered.reserve(seed_customer.edges.size() +
                        seed_customer.buffered.size());
  bool filtered = false;
  auto map_in = [&](const WarmSeedEdge& entry) {
    const int j = MapFacilityNode(entry.facility_node);
    if (j < 0) {
      filtered = true;
      return;
    }
    seed.buffered.push_back(FacilityAtDistance{j, entry.weight});
  };
  for (const WarmSeedEdge& entry : seed_customer.edges) map_in(entry);
  for (const WarmSeedEdge& entry : seed_customer.buffered) map_in(entry);
  seed.exhausted = seed_customer.stream_exhausted;
  // The seed's known next-distance describes the sequence it was
  // exported under; once entries were filtered out, "what comes after
  // the prefix" may differ, so only propagate it for intact prefixes.
  seed.has_next = seed_customer.has_next && !filtered;
  seed.next_distance = seed_customer.next_distance;
  MCFS_COUNT("matcher/warm_stream_prefix_entries",
             static_cast<int64_t>(seed.buffered.size()));
  streams_[customer] = std::make_unique<NearestFacilityStream>(
      graph_, customer_nodes_[customer], &facility_index_of_node_,
      std::move(seed), StreamReserveHint());
}

void IncrementalMatcher::InheritStreams(IncrementalMatcher& superset) {
  MCFS_CHECK_EQ(num_edges_materialized_, 0)
      << "InheritStreams requires a freshly constructed matcher";
  MCFS_CHECK(superset.customer_nodes_ == customer_nodes_);
  MCFS_CHECK(!superset.streams_given_away_);
  std::vector<int> reindex(superset.l_);
  for (int j = 0; j < superset.l_; ++j) {
    reindex[j] = MapFacilityNode(superset.facility_nodes_[j]);
  }
  std::vector<FacilityAtDistance> prefix;
  for (int i = 0; i < m_; ++i) {
    std::unique_ptr<NearestFacilityStream>& stream = superset.streams_[i];
    if (stream == nullptr) continue;  // never explored: starts fresh here
    // The superset's materialized edges are its stream's consumed
    // prefix in pop order, and its buffer continues that sequence.
    prefix.clear();
    for (const MatchEdge& edge : superset.edges_[i]) {
      prefix.push_back(FacilityAtDistance{reindex[edge.facility],
                                          edge.weight});
    }
    for (const FacilityAtDistance& entry : stream->BufferedEntries()) {
      prefix.push_back(
          FacilityAtDistance{reindex[entry.facility], entry.distance});
    }
    stream->Narrow(&facility_index_of_node_, prefix);
    streams_[i] = std::move(stream);
  }
  superset.streams_given_away_ = true;
}

bool IncrementalMatcher::MaterializeNextEdge(int customer) {
  std::optional<FacilityAtDistance> next = StreamFor(customer).Pop();
  if (!next.has_value()) return false;
  edges_[customer].push_back({next->facility, next->distance, false});
  ++num_edges_materialized_;
  MCFS_COUNT("matcher/edges_materialized", 1);
  const MatchEdge& edge = edges_[customer].back();
  if (ReducedCost(customer, edge) < -kEps) {
    negative_arcs_.emplace_back(
        customer, static_cast<int>(edges_[customer].size()) - 1);
  }
  return true;
}

IncrementalMatcher::SearchResult IncrementalMatcher::Search(
    int source_customer) {
  ++num_dijkstra_runs_;
  const bool exact = negative_arcs_.empty();
  if (!exact) ++num_label_correcting_runs_;

  // Reset scratch for the nodes touched by the previous search.
  for (const int v : touched_) {
    dist_[v] = kInfDistance;
    parent_[v] = -1;
    settled_[v] = 0;
  }
  touched_.clear();

  // Reuse the member heap's backing storage across searches (the
  // allocation-free hot loop; see DESIGN.md "Sparse-search kernels").
  if (search_heap_.capacity() > 0) {
    MCFS_COUNT("exec/alloc/matcher_heap_reuses", 1);
  }
  search_heap_.clear();
  dist_[source_customer] = 0.0;
  touched_.push_back(source_customer);
  search_heap_.push({0.0, source_customer});

  SearchResult result;
  result.sink_facility = -1;
  result.sink_distance = kInfDistance;

  // Counted in locals and flushed once per search: this loop is the G_b
  // hot path and runs on the (serial) matcher thread.
  int64_t gb_settled = 0;
  int64_t gb_relaxed = 0;
  int64_t gb_heap_pushes = 0;

  auto relax = [&](int from, int to, double reduced_weight) {
    ++gb_relaxed;
    const double candidate = dist_[from] + reduced_weight;
    if (candidate < dist_[to] - kEps) {
      if (dist_[to] == kInfDistance) touched_.push_back(to);
      dist_[to] = candidate;
      parent_[to] = from;
      settled_[to] = 0;  // label-correcting: allow re-settling
      search_heap_.push({candidate, to});
      ++gb_heap_pushes;
    }
  };

  while (!search_heap_.empty()) {
    const GbHeapEntry top = search_heap_.top();
    search_heap_.pop();
    if (settled_[top.node] || top.dist > dist_[top.node] + kEps) continue;
    settled_[top.node] = 1;
    ++gb_settled;
    if (top.node >= m_) {
      // Facility node.
      const int j = top.node - m_;
      if (exact && assigned_count_[j] < capacities_[j]) {
        result.sink_facility = j;
        result.sink_distance = top.dist;
        break;  // early stop: first settled usable facility is nearest
      }
      for (const FacilityMatch& match : facility_matches_[j]) {
        relax(top.node, match.customer,
              -match.weight - potential_[top.node] +
                  potential_[match.customer]);
      }
    } else {
      // Customer node.
      const int i = top.node;
      for (const MatchEdge& edge : edges_[i]) {
        if (edge.matched) continue;
        relax(top.node, GbFacilityNode(edge.facility),
              ReducedCost(i, edge));
      }
    }
  }

  // In label-correcting mode (or when no usable facility was settled in
  // exact mode), pick the best reached facility with residual capacity.
  if (result.sink_facility == -1) {
    for (const int v : touched_) {
      if (v < m_) continue;
      const int j = v - m_;
      if (assigned_count_[j] < capacities_[j] &&
          dist_[v] < result.sink_distance) {
        result.sink_facility = j;
        result.sink_distance = dist_[v];
      }
    }
  }

  // Theorem-1 threshold: min over reached customers v of
  //   v.dist + nnDist(v) - v.p,
  // where unsettled (frontier) customers use the sink distance as a
  // valid lower bound for v.dist.
  result.threshold = kInfDistance;
  result.threshold_customer = -1;
  // The naive (SIA-style) bound replaces the per-customer potential with
  // a single global one, so it is never tighter than Theorem 1:
  //   naive = min_v (v.dist + nnDist(v)) - max_v potential[v].
  double naive_min_reach = kInfDistance;
  double naive_max_potential = 0.0;
  for (const int v : touched_) {
    if (v >= m_) continue;
    naive_max_potential = std::max(naive_max_potential, potential_[v]);
    const double nn_dist = StreamFor(v).PeekDistance();
    if (nn_dist == kInfDistance) continue;
    double v_dist = dist_[v];
    if (!settled_[v] && result.sink_facility != -1) {
      v_dist = std::min(v_dist, result.sink_distance);
    }
    naive_min_reach = std::min(naive_min_reach, v_dist + nn_dist);
    const double value = v_dist + nn_dist - potential_[v];
    if (value < result.threshold) {
      result.threshold = value;
      result.threshold_customer = v;
    }
  }
  result.naive_threshold = naive_min_reach == kInfDistance
                               ? kInfDistance
                               : naive_min_reach - naive_max_potential;

  MCFS_COUNT("matcher/searches", 1);
  if (!exact) MCFS_COUNT("matcher/label_correcting_searches", 1);
  MCFS_COUNT("matcher/gb_nodes_settled", gb_settled);
  MCFS_COUNT("matcher/gb_edges_relaxed", gb_relaxed);
  MCFS_COUNT("matcher/gb_heap_pushes", gb_heap_pushes);
  return result;
}

void IncrementalMatcher::Augment(int source_customer,
                                 const SearchResult& found) {
  int64_t path_edges = 0;
  int64_t rewirings = 0;
  int current = GbFacilityNode(found.sink_facility);
  while (current != source_customer) {
    const int prev = parent_[current];
    MCFS_CHECK_GE(prev, 0);
    ++path_edges;
    if (current >= m_) {
      // prev is a customer: match edge (prev -> current).
      const int facility = current - m_;
      bool flipped = false;
      for (MatchEdge& edge : edges_[prev]) {
        if (edge.facility == facility && !edge.matched) {
          edge.matched = true;
          facility_matches_[facility].push_back({prev, edge.weight});
          MarkChanged(facility);
          flipped = true;
          break;
        }
      }
      MCFS_CHECK(flipped);
    } else {
      // prev is a facility: unmatch edge (current -> prev).
      const int facility = prev - m_;
      ++rewirings;
      bool flipped = false;
      for (MatchEdge& edge : edges_[current]) {
        if (edge.facility == facility && edge.matched) {
          edge.matched = false;
          flipped = true;
          break;
        }
      }
      MCFS_CHECK(flipped);
      MarkChanged(facility);
      auto& matches = facility_matches_[facility];
      for (size_t i = 0; i < matches.size(); ++i) {
        if (matches[i].customer == current) {
          matches[i] = matches.back();
          matches.pop_back();
          break;
        }
      }
    }
    current = prev;
  }
  assigned_count_[found.sink_facility]++;
  customer_match_count_[source_customer]++;
  num_rewirings_ += rewirings;
  MCFS_COUNT("matcher/augmentations", 1);
  MCFS_COUNT("matcher/rewirings", rewirings);
  MCFS_OBSERVE("matcher/augmenting_path_edges",
               static_cast<double>(path_edges));
}

void IncrementalMatcher::UpdatePotentials(double sink_distance) {
  for (const int v : touched_) {
    if (dist_[v] <= sink_distance) {
      potential_[v] += sink_distance - dist_[v];
    }
  }
}

void IncrementalMatcher::RecheckNegativeArcs() {
  size_t kept = 0;
  for (const auto& [customer, edge_index] : negative_arcs_) {
    const MatchEdge& edge = edges_[customer][edge_index];
    if (!edge.matched && ReducedCost(customer, edge) < -kEps) {
      negative_arcs_[kept++] = {customer, edge_index};
    }
  }
  negative_arcs_.resize(kept);
}

bool IncrementalMatcher::FindPair(int customer) {
  MCFS_CHECK(customer >= 0 && customer < m_);
  while (true) {
    const SearchResult found = Search(customer);
    const bool have_sink = found.sink_facility != -1;
    if (have_sink && found.sink_distance <= found.threshold + kEps) {
      if (found.threshold != kInfDistance) {
        // The streams still held undiscovered facilities, yet Theorem 1
        // proved none of them can shorten this path: one prune.
        ++num_theorem1_prunes_;
        MCFS_COUNT("matcher/theorem1_prunes", 1);
        if (found.sink_distance > found.naive_threshold + kEps) {
          // The looser SIA-style bound would have kept materializing.
          MCFS_COUNT("matcher/theorem1_savings_vs_naive", 1);
        }
      }
      Augment(customer, found);
      UpdatePotentials(found.sink_distance);
      RecheckNegativeArcs();
      return true;
    }
    if (found.threshold == kInfDistance) {
      // No more edges can be materialized anywhere reachable.
      if (have_sink) {
        Augment(customer, found);
        UpdatePotentials(found.sink_distance);
        RecheckNegativeArcs();
        return true;
      }
      return false;  // customer is saturated
    }
    ++num_forced_materializations_;
    MCFS_COUNT("matcher/forced_materializations", 1);
    const bool added = MaterializeNextEdge(found.threshold_customer);
    MCFS_CHECK(added);  // threshold was finite, so the stream had a peek
  }
}

bool IncrementalMatcher::MatchAllOnce() {
  bool all_ok = true;
  for (int i = 0; i < m_; ++i) {
    if (!FindPair(i)) all_ok = false;
  }
  return all_ok;
}

void IncrementalMatcher::PrefetchCandidates(const std::vector<int>& counts,
                                            int threads) {
  MCFS_CHECK_EQ(counts.size(), static_cast<size_t>(m_));
  if (ResolveThreadCount(threads) <= 1) return;  // FindPair pays inline
  // Each index touches only customer i's stream (creation included), so
  // side effects are disjoint and the result is thread-count invariant.
  ParallelFor(
      0, m_, /*grain=*/1,
      [&](int64_t i) {
        const int customer = static_cast<int>(i);
        if (counts[customer] <= 0) return;
        StreamFor(customer).Prefetch(counts[customer]);
      },
      threads);
}

std::vector<int> IncrementalMatcher::CustomersOf(int facility) const {
  std::vector<int> customers;
  customers.reserve(facility_matches_[facility].size());
  for (const FacilityMatch& match : facility_matches_[facility]) {
    customers.push_back(match.customer);
  }
  return customers;
}

void IncrementalMatcher::SyncChangedFacilities(
    std::vector<std::vector<int>>* sigma, std::vector<double>* cost,
    std::vector<int>* changed) {
  MCFS_CHECK_EQ(sigma->size(), static_cast<size_t>(l_));
  MCFS_CHECK_EQ(cost->size(), static_cast<size_t>(l_));
  changed->clear();
  changed->swap(changed_facilities_);
  for (const int j : *changed) {
    facility_changed_[j] = 0;
    // A customer holds at most one edge per facility (its stream yields
    // each facility once), so sorting by customer alone is the edge walk
    // order of MatchedPairs().
    sync_scratch_.assign(facility_matches_[j].begin(),
                         facility_matches_[j].end());
    std::sort(sync_scratch_.begin(), sync_scratch_.end(),
              [](const FacilityMatch& a, const FacilityMatch& b) {
                return a.customer < b.customer;
              });
    std::vector<int>& customers = (*sigma)[j];
    customers.clear();
    double sum = 0.0;
    for (const FacilityMatch& match : sync_scratch_) {
      customers.push_back(match.customer);
      sum += match.weight;
    }
    (*cost)[j] = sum;
  }
}

std::vector<MatchedPair> IncrementalMatcher::MatchedPairs() const {
  std::vector<MatchedPair> pairs;
  for (int i = 0; i < m_; ++i) {
    for (const MatchEdge& edge : edges_[i]) {
      if (edge.matched) pairs.push_back({i, edge.facility, edge.weight});
    }
  }
  return pairs;
}

WarmSeed IncrementalMatcher::ExportWarmSeed() const {
  MCFS_CHECK(!streams_given_away_);
  WarmSeed seed;
  seed.facility_nodes = facility_nodes_;
  seed.facility_potentials.resize(l_);
  for (int j = 0; j < l_; ++j) {
    seed.facility_potentials[j] = potential_[m_ + j];
  }
  seed.customers.resize(m_);
  for (int i = 0; i < m_; ++i) {
    WarmSeedCustomer& sc = seed.customers[i];
    sc.node = customer_nodes_[i];
    sc.potential = potential_[i];
    sc.edges.reserve(edges_[i].size());
    for (const MatchEdge& edge : edges_[i]) {
      sc.edges.push_back(
          WarmSeedEdge{facility_nodes_[edge.facility], edge.weight,
                       edge.matched});
    }
    const NearestFacilityStream* stream = streams_[i].get();
    if (stream == nullptr) continue;  // never explored: empty prefix
    for (const FacilityAtDistance& entry : stream->BufferedEntries()) {
      sc.buffered.push_back(
          WarmSeedEdge{facility_nodes_[entry.facility], entry.distance,
                       false});
    }
    sc.stream_exhausted = stream->DijkstraExhausted();
    // Unpopped entries are a suffix of what the stream was seeded with,
    // so a still-pending known-next applies after them unchanged.
    if (std::optional<double> next = stream->KnownNextDistance()) {
      sc.has_next = true;
      sc.next_distance = *next;
    }
  }
  return seed;
}

IncrementalMatcher::ResumeStats IncrementalMatcher::ResumeFrom(
    const WarmSeed& seed, const std::vector<int>& seed_of,
    const std::vector<uint8_t>& adopt_match) {
  MCFS_CHECK_EQ(seed_of.size(), static_cast<size_t>(m_));
  MCFS_CHECK_EQ(adopt_match.size(), static_cast<size_t>(m_));
  MCFS_CHECK_EQ(num_edges_materialized_, 0)
      << "ResumeFrom requires a freshly constructed matcher";
  MCFS_CHECK_EQ(seed.facility_potentials.size(), seed.facility_nodes.size());
  ResumeStats stats;

  // Facility potentials first: edge re-validation below reads them.
  // Facilities absent from the seed (fresh candidates) keep potential 0,
  // which is always dual-feasible for edges not yet materialized.
  for (size_t sj = 0; sj < seed.facility_nodes.size(); ++sj) {
    const int j = MapFacilityNode(seed.facility_nodes[sj]);
    if (j >= 0) potential_[GbFacilityNode(j)] = seed.facility_potentials[sj];
  }

  for (int i = 0; i < m_; ++i) {
    const int s = seed_of[i];
    if (s < 0) continue;
    MCFS_CHECK(s < static_cast<int>(seed.customers.size()));
    const WarmSeedCustomer& sc = seed.customers[s];
    MCFS_CHECK_EQ(sc.node, customer_nodes_[i])
        << "seed customer mapped across graph nodes";
    ++stats.customers_seeded;
    potential_[i] = sc.potential;

    bool filtered = false;
    edges_[i].reserve(sc.edges.size());
    for (const WarmSeedEdge& entry : sc.edges) {
      const int j = MapFacilityNode(entry.facility_node);
      if (j < 0) {
        filtered = true;
        if (entry.matched) ++stats.matches_dropped;
        continue;
      }
      edges_[i].push_back(MatchEdge{j, entry.weight, false});
      ++stats.edges_adopted;
      if (!entry.matched) continue;
      MatchEdge& edge = edges_[i].back();
      // Re-adopt the matched pair only while the residual (backward)
      // arc stays non-negative — forward reduced cost <= eps — and the
      // facility still has capacity under the current limits. A
      // capacity decrease thus sheds deterministic overflow here.
      if (adopt_match[i] != 0 && ReducedCost(i, edge) <= kEps &&
          assigned_count_[j] < capacities_[j]) {
        edge.matched = true;
        facility_matches_[j].push_back(FacilityMatch{i, entry.weight});
        MarkChanged(j);
        ++assigned_count_[j];
        ++customer_match_count_[i];
        ++stats.matches_adopted;
      } else {
        ++stats.matches_dropped;
      }
    }

    StreamSeed stream_seed;
    stream_seed.buffered.reserve(sc.buffered.size());
    for (const WarmSeedEdge& entry : sc.buffered) {
      const int j = MapFacilityNode(entry.facility_node);
      if (j < 0) {
        filtered = true;
        continue;
      }
      stream_seed.buffered.push_back(FacilityAtDistance{j, entry.weight});
    }
    // The adopted edges were the stream's consumed prefix; skip their
    // re-discovery if the Dijkstra ever has to run.
    stream_seed.skip_discoveries = static_cast<int>(edges_[i].size());
    stream_seed.exhausted = sc.stream_exhausted;
    stream_seed.has_next = sc.has_next && !filtered;
    stream_seed.next_distance = sc.next_distance;
    MCFS_CHECK(streams_[i] == nullptr);
    streams_[i] = std::make_unique<NearestFacilityStream>(
        graph_, customer_nodes_[i], &facility_index_of_node_,
        std::move(stream_seed), StreamReserveHint());
  }

  // Re-establish the two invariants every search relies on:
  //   * a facility with residual capacity has potential exactly 0 (the
  //     sink selection compares reduced distances across free slots,
  //     which is only meaningful when their potentials agree) — adopted
  //     potentials violate this wherever a previously saturated
  //     facility gained capacity or lost its matches;
  //   * a customer owning an unmatched arc with negative reduced cost
  //     holds no matches (it could otherwise close a negative cycle) —
  //     such customers shed every adoption and reset their potential to
  //     0, which makes all their arcs non-negative again (weights and
  //     facility potentials are both >= 0), so the matcher never leaves
  //     ResumeFrom in label-correcting mode.
  // Clamping a facility can surface new negative arcs and dropping a
  // match can free a saturated facility, so iterate to the fixpoint —
  // both moves are monotone (potentials only fall to 0, matches only
  // drop), so it terminates.
  bool changed = true;
  while (changed) {
    changed = false;
    for (int j = 0; j < l_; ++j) {
      if (assigned_count_[j] < capacities_[j] &&
          potential_[GbFacilityNode(j)] != 0.0) {
        potential_[GbFacilityNode(j)] = 0.0;
        changed = true;
      }
    }
    for (int i = 0; i < m_; ++i) {
      if (seed_of[i] < 0) continue;
      bool has_negative = false;
      for (const MatchEdge& edge : edges_[i]) {
        if (!edge.matched && ReducedCost(i, edge) < -kEps) {
          has_negative = true;
          break;
        }
      }
      if (!has_negative) continue;
      for (MatchEdge& edge : edges_[i]) {
        if (!edge.matched) continue;
        edge.matched = false;
        --assigned_count_[edge.facility];
        --customer_match_count_[i];
        --stats.matches_adopted;
        ++stats.matches_dropped;
        MarkChanged(edge.facility);
        auto& matches = facility_matches_[edge.facility];
        for (size_t idx = 0; idx < matches.size(); ++idx) {
          if (matches[idx].customer == i) {
            matches[idx] = matches.back();
            matches.pop_back();
            break;
          }
        }
      }
      potential_[i] = 0.0;
      changed = true;
    }
  }

  num_edges_materialized_ += stats.edges_adopted;
  MCFS_COUNT("matcher/warm_customers_seeded", stats.customers_seeded);
  MCFS_COUNT("matcher/warm_edges_adopted", stats.edges_adopted);
  MCFS_COUNT("matcher/warm_matches_adopted", stats.matches_adopted);
  MCFS_COUNT("matcher/warm_matches_dropped", stats.matches_dropped);
  // Warm-seed repair decision: how much of the previous epoch survived
  // re-validation (a = adopted matches, b = shed matches). The shape of
  // these pairs in a postmortem tells an operator whether a slow warm
  // solve degenerated into a near-cold one.
  MCFS_RECORD("matcher/warm_resume", stats.matches_adopted,
              stats.matches_dropped);
  return stats;
}

bool IncrementalMatcher::VerifyDualFeasibility() const {
  // Freshly materialized arcs may legitimately be negative until the
  // next augmentation repairs the potentials.
  std::vector<std::vector<uint8_t>> excused(m_);
  for (const auto& [customer, edge_index] : negative_arcs_) {
    if (excused[customer].empty()) {
      excused[customer].assign(edges_[customer].size(), 0);
    }
    excused[customer][edge_index] = 1;
  }
  for (int i = 0; i < m_; ++i) {
    for (size_t e = 0; e < edges_[i].size(); ++e) {
      const MatchEdge& edge = edges_[i][e];
      if (!excused[i].empty() && excused[i][e]) continue;
      if (edge.matched) {
        // Residual direction facility -> customer.
        const double reduced = -edge.weight -
                               potential_[GbFacilityNode(edge.facility)] +
                               potential_[i];
        if (reduced < -1e-6) return false;
      } else {
        if (ReducedCost(i, edge) < -1e-6) return false;
      }
    }
  }
  return true;
}

double IncrementalMatcher::TotalCost() const {
  double total = 0.0;
  for (int i = 0; i < m_; ++i) {
    for (const MatchEdge& edge : edges_[i]) {
      if (edge.matched) total += edge.weight;
    }
  }
  return total;
}

}  // namespace mcfs
