#ifndef MCFS_FLOW_MATCHER_H_
#define MCFS_FLOW_MATCHER_H_

#include <memory>
#include <vector>

#include "mcfs/common/dary_heap.h"
#include "mcfs/graph/facility_stream.h"
#include "mcfs/graph/graph.h"

namespace mcfs {

// One matched (customer, facility) pair with its network distance.
struct MatchedPair {
  int customer = -1;
  int facility = -1;
  double distance = 0.0;
};

// --- Warm-seed snapshot types (see DESIGN.md §4.10) ---
//
// A completed matcher's state, keyed by *graph nodes* rather than
// catalog indices so it survives candidate-set edits across serving
// epochs: the next epoch maps nodes back to its own indices, drops
// whatever no longer exists, and re-validates the rest.

// One G_b edge of a warm seed.
struct WarmSeedEdge {
  NodeId facility_node = -1;
  double weight = 0.0;  // network distance customer -> facility
  bool matched = false;
};

// Per-customer warm state: materialized edges in stream pop order, the
// stream's discovered-but-unpopped lookahead, and the dual potential.
struct WarmSeedCustomer {
  NodeId node = -1;
  double potential = 0.0;
  std::vector<WarmSeedEdge> edges;     // pop order; `matched` meaningful
  std::vector<WarmSeedEdge> buffered;  // discovered, not yet popped
  // The stream proved there is nothing beyond edges + buffered.
  bool stream_exhausted = false;
  // Distance of the first discovery after `buffered`, when known
  // without further Dijkstra work.
  bool has_next = false;
  double next_distance = kInfDistance;
};

// Complete exportable matcher state (customers, facility potentials).
struct WarmSeed {
  std::vector<WarmSeedCustomer> customers;
  std::vector<NodeId> facility_nodes;
  std::vector<double> facility_potentials;  // aligned with facility_nodes

  bool empty() const { return customers.empty() && facility_nodes.empty(); }
};

// Exact (bitwise on doubles) equality — the contract a serialized seed
// round trip is held to (serve/checkpoint): a restored seed must replay
// warm answers byte-identical to the process that exported it.
inline bool operator==(const WarmSeedEdge& a, const WarmSeedEdge& b) {
  return a.facility_node == b.facility_node && a.weight == b.weight &&
         a.matched == b.matched;
}
inline bool operator==(const WarmSeedCustomer& a, const WarmSeedCustomer& b) {
  return a.node == b.node && a.potential == b.potential && a.edges == b.edges &&
         a.buffered == b.buffered && a.stream_exhausted == b.stream_exhausted &&
         a.has_next == b.has_next && a.next_distance == b.next_distance;
}
inline bool operator==(const WarmSeed& a, const WarmSeed& b) {
  return a.customers == b.customers && a.facility_nodes == b.facility_nodes &&
         a.facility_potentials == b.facility_potentials;
}

// Incremental optimal bipartite matcher between customers and candidate
// facilities anchored in a network — the FindPair routine of the paper
// (Algorithm 2), i.e., a Successive Shortest Path Algorithm over the
// bipartite graph G_b with:
//   * lazy edge materialization: per-customer resumable Dijkstras on the
//     road network stream candidate facilities in distance order, and an
//     edge enters G_b only when the Theorem-1 threshold proves it might
//     shorten the current augmenting path;
//   * node potentials kept so reduced edge weights stay non-negative
//     (freshly materialized edges may briefly violate this; such arcs
//     are tracked and the search falls back to a label-correcting
//     variant until their reduced costs are restored — see DESIGN.md);
//   * rewiring: augmenting along a shortest path reassigns earlier
//     customer-facility matches when beneficial;
//   * resumed searches: a forced materialization keeps the G_b labels
//     and heap of the exact pass before it and relaxes only the new arc
//     (the potentials do not move until the augmentation, so the labels
//     stay exact); a negative new arc restarts the label-correcting
//     search instead.
//
// Every successful FindPair(c) adds exactly one unit of assignment for
// customer c while keeping the overall matching minimum-cost for the
// current demand vector (verified against a dense oracle in tests).
class IncrementalMatcher {
 public:
  // `facility_nodes` must hold distinct graph nodes; `capacities[j]` is
  // the maximum number of customers facility j can serve. Customer nodes
  // may repeat (several customers on one network node).
  IncrementalMatcher(const Graph* graph, std::vector<NodeId> customer_nodes,
                     std::vector<NodeId> facility_nodes,
                     std::vector<int> capacities);

  // Adds one assignment for `customer` (0-based index). Returns false
  // when no augmenting path exists: every facility still reachable from
  // the customer is saturated and no rewiring can free capacity.
  bool FindPair(int customer);

  // Runs FindPair once for every customer (demand vector of all ones).
  // Returns false if some customer could not be assigned.
  bool MatchAllOnce();

  // Batched parallel prefetch: for every customer i with counts[i] > 0,
  // ensures its nearest-facility stream has at least counts[i]
  // candidates buffered, advancing the resumable per-customer Dijkstras
  // across up to `threads` threads (0 = the MCFS_THREADS / hardware
  // default). The serial FindPair/SSPA then consumes cached entries
  // instead of paying Dijkstra latency inline.
  // Deterministic: each stream's candidate sequence is a pure function
  // of the graph, so prefetching only moves work earlier — FindPair
  // materializes the exact same edges in the exact same order. No solve
  // calls it (a FindPair usually needs one entry per customer, which
  // the burst cannot beat); BM_MatcherPrefetch measures it.
  void PrefetchCandidates(const std::vector<int>& counts, int threads = 0);

  int num_customers() const { return m_; }
  int num_facilities() const { return l_; }

  int AssignedCount(int facility) const { return assigned_count_[facility]; }
  int Capacity(int facility) const { return capacities_[facility]; }
  // Number of facilities the customer currently holds (its satisfied
  // demand).
  int CustomerMatchCount(int customer) const {
    return customer_match_count_[customer];
  }

  // Customers currently assigned to `facility` (the paper's sigma_j).
  std::vector<int> CustomersOf(int facility) const;

  // Brings per-facility views of the matching up to date. For every
  // facility j whose match set changed since the previous call (a match
  // gained or lost in FindPair, adopted or dropped in ResumeFrom),
  // rewrites (*sigma)[j] to its matched customers in ascending order and
  // (*cost)[j] to their distances summed in that order from 0.0 — the
  // order MatchedPairs() walks, so both are bit-equal to a rebuild from
  // it — and lists j, once, in *changed (previous contents discarded).
  // Both views must hold num_facilities() entries.
  void SyncChangedFacilities(std::vector<std::vector<int>>* sigma,
                             std::vector<double>* cost,
                             std::vector<int>* changed);

  // All matched pairs with distances.
  std::vector<MatchedPair> MatchedPairs() const;

  // --- Warm-seed lifecycle (DESIGN.md §4.10) ---

  // What ResumeFrom managed to salvage from a seed.
  struct ResumeStats {
    int64_t customers_seeded = 0;  // customers that adopted seed state
    int64_t edges_adopted = 0;     // G_b edges rebuilt from the seed
    int64_t matches_adopted = 0;   // matched pairs still dual-feasible
    int64_t matches_dropped = 0;   // filtered / infeasible / over-capacity
  };

  // Node-keyed snapshot of the full matcher state (G_b adjacency with
  // matched flags, stream lookahead, customer and facility potentials).
  WarmSeed ExportWarmSeed() const;

  // Warm-start resume; must be called on a freshly constructed matcher,
  // before any FindPair. `seed_of[i]` is the index into seed.customers
  // whose state customer i adopts (-1 = cold customer; seed customers
  // must sit on the same graph node). `adopt_match[i] == 0` keeps the
  // customer's edges and stream but drops its matched pairs — the
  // repair mode for deltas that invalidate matching optimality without
  // touching distances (e.g. a capacity increase in the component).
  //
  // Per edge: facilities gone from this matcher's catalog are filtered
  // out; matched edges are re-adopted only while dual-feasible (forward
  // reduced cost <= eps, i.e. the residual arc stays non-negative) and
  // capacity remains. A customer left holding a negative unmatched arc
  // has all its adopted matches dropped and the arcs registered for the
  // label-correcting search — an unmatched customer has no incoming
  // residual arc, so no negative cycle survives. After ResumeFrom the
  // caller re-runs FindPair only for customers with unsatisfied demand.
  ResumeStats ResumeFrom(const WarmSeed& seed, const std::vector<int>& seed_of,
                         const std::vector<uint8_t>& adopt_match);

  // Trajectory-replay seeding: hands customer i a seed customer's full
  // discovery prefix (edges + buffered) as a stream seed. Because the
  // discovery sequence is a pure function of (graph, source, candidate
  // membership), the customer's Pops replay bit-identically to a cold
  // run, minus the Dijkstra cost. Facilities absent from this matcher's
  // catalog are filtered out. Must be called before the customer's
  // stream is first touched; adopts no matcher state (edges, matches,
  // potentials stay cold).
  void SeedStreamPrefix(int customer, const WarmSeedCustomer& seed_customer);

  // Stream inheritance: takes over `superset`'s nearest-facility
  // streams, one per customer index, narrowed to this matcher's
  // facilities (NearestFacilityStream::Narrow). Each stream keeps its
  // live Dijkstra and re-serves what `superset` already discovered,
  // filtered and re-indexed, so this matcher's Pops are those of fresh
  // streams over its own facilities, minus the Dijkstra work. Both
  // matchers must list the same customer nodes, and this matcher's
  // facilities must be a subset of `superset`'s. Must be called on a
  // freshly constructed matcher, before any FindPair; `superset` is left
  // without streams and must not run FindPair or ExportWarmSeed again.
  void InheritStreams(IncrementalMatcher& superset);

  // Sum of matched distances (the running objective of G_b).
  double TotalCost() const;

  // Debug invariant: every materialized edge must have non-negative
  // reduced cost under the current potentials (dual feasibility), except
  // the freshly added arcs tracked in the negative list. Returns true
  // when the invariant holds; O(total edges). Used by property tests.
  bool VerifyDualFeasibility() const;

  // --- instrumentation ---
  // (Mirrored into the obs MetricsRegistry under matcher/*; these
  // accessors keep the counts reachable without enabling metrics.)
  int64_t num_dijkstra_runs() const { return num_dijkstra_runs_; }
  int64_t num_edges_materialized() const { return num_edges_materialized_; }
  int64_t num_label_correcting_runs() const {
    return num_label_correcting_runs_;
  }
  // Augmentations accepted by the Theorem-1 threshold test while the
  // candidate streams still had undiscovered facilities — each one cut
  // the lazy edge materialization short (the paper's pruning claim).
  int64_t num_theorem1_prunes() const { return num_theorem1_prunes_; }
  // Edge materializations forced because the threshold test failed.
  int64_t num_forced_materializations() const {
    return num_forced_materializations_;
  }
  // Matched edges unmatched again while augmenting (the rewiring that
  // distinguishes the exact matcher from WMA Naive).
  int64_t num_rewirings() const { return num_rewirings_; }

 private:
  struct MatchEdge {
    int facility;
    double weight;
    bool matched;
  };
  struct FacilityMatch {
    int customer;
    double weight;
  };
  // Result of one shortest-path search over the materialized G_b.
  struct SearchResult {
    int sink_facility = -1;       // facility index, -1 if none reachable
    double sink_distance = 0.0;   // reduced path length to the sink
    // Theorem-1 bound, kInfDistance if none. When the sink meets a
    // lower bound of it taken from the streams' PeekLowerBound(), that
    // bound instead (FindPair augments either way) and no
    // threshold_customer.
    double threshold = 0.0;
    int threshold_customer = -1;  // argmin customer for materialization
  };

  int GbFacilityNode(int facility) const { return m_ + facility; }

  // Catalog index of the facility on `node`, or -1 (also for
  // out-of-range nodes from a stale seed).
  int MapFacilityNode(NodeId node) const {
    if (node < 0 ||
        node >= static_cast<NodeId>(facility_index_of_node_.size())) {
      return -1;
    }
    return facility_index_of_node_[node];
  }
  size_t StreamReserveHint() const;

  NearestFacilityStream& StreamFor(int customer);
  // Materializes customer's next nearest facility edge; returns false if
  // the stream is exhausted.
  bool MaterializeNextEdge(int customer);
  // G_b search counters, flushed to matcher/* once per pass.
  struct SearchCounts {
    int64_t settled = 0;
    int64_t relaxed = 0;
    int64_t heap_pushes = 0;
  };
  // Fresh search from `source_customer`: label-correcting while a
  // negative arc is registered, else Dijkstra with an early stop at the
  // first usable facility.
  SearchResult Search(int source_customer);
  // Continues the exact pass that produced `previous` after
  // MaterializeNextEdge(customer) added a non-negative arc: keeps the
  // labels, relaxes the new arc, pops on while the heap top is below the
  // held sink and recomputes the threshold. Counted in matcher/searches
  // and matcher/resumed_searches.
  SearchResult ResumeSearch(int customer, const SearchResult& previous);
  // The pop loop, sink fallback and Theorem-1 threshold shared by both.
  SearchResult RunSearch(bool exact, SearchResult result,
                         SearchCounts counts);
  void Relax(int from, int to, double reduced_weight, SearchCounts* counts);
  void Augment(int source_customer, const SearchResult& found);
  void UpdatePotentials(double sink_distance);
  void RecheckNegativeArcs();
  void MarkChanged(int facility) {
    if (facility_changed_[facility]) return;
    facility_changed_[facility] = 1;
    changed_facilities_.push_back(facility);
  }
  double ReducedCost(int customer, const MatchEdge& edge) const {
    return edge.weight - potential_[customer] +
           potential_[GbFacilityNode(edge.facility)];
  }

  const Graph* graph_;
  int m_;
  int l_;
  std::vector<NodeId> customer_nodes_;
  std::vector<NodeId> facility_nodes_;
  std::vector<int> capacities_;
  std::vector<int> assigned_count_;
  std::vector<int> customer_match_count_;
  std::vector<std::vector<MatchEdge>> edges_;  // per customer
  std::vector<std::vector<FacilityMatch>> facility_matches_;  // per facility
  std::vector<double> potential_;  // size m_ + l_
  std::vector<int> facility_index_of_node_;  // size graph nodes
  std::vector<std::unique_ptr<NearestFacilityStream>> streams_;
  // Set once InheritStreams handed streams_ to another matcher.
  bool streams_given_away_ = false;
  std::vector<std::pair<int, int>> negative_arcs_;  // (customer, edge idx)
  // Facilities whose match set changed since SyncChangedFacilities.
  std::vector<int> changed_facilities_;
  std::vector<uint8_t> facility_changed_;  // size l_, membership flag
  std::vector<FacilityMatch> sync_scratch_;

  struct GbHeapEntry {
    double dist;
    int node;
  };
  struct GbHeapEntryLess {
    bool operator()(const GbHeapEntry& a, const GbHeapEntry& b) const {
      return a.dist < b.dist;
    }
  };

  // Search scratch (size m_ + l_), reset via touched_ by every fresh
  // Search; ResumeSearch keeps it, with the heap, across a
  // materialization within one FindPair.
  std::vector<double> dist_;
  std::vector<int> parent_;  // predecessor encoding, see Search()
  std::vector<uint8_t> settled_;
  std::vector<int> touched_;
  // (touched_ position, threshold term at the stream's lower bound) of
  // the customers whose bound was inexact in the last threshold scan.
  std::vector<std::pair<int, double>> unresolved_;
  // Hoisted G_b search heap: cleared (capacity kept) at the start of
  // every Search, so FindPair pays no heap allocation per call.
  DaryHeap<GbHeapEntry, 4, GbHeapEntryLess> search_heap_;

  int64_t num_dijkstra_runs_ = 0;
  int64_t num_edges_materialized_ = 0;
  int64_t num_label_correcting_runs_ = 0;
  int64_t num_theorem1_prunes_ = 0;
  int64_t num_forced_materializations_ = 0;
  int64_t num_rewirings_ = 0;
};

}  // namespace mcfs

#endif  // MCFS_FLOW_MATCHER_H_
