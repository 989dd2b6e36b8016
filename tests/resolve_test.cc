// Warm-started incremental re-solve (DESIGN.md §4.10): the matcher's
// ExportWarmSeed/ResumeFrom round-trip, the typed delta API's
// validation and classification, the no-op/epoch/cache semantics, and
// the headline equivalence contract — a warm ResolveTracked is
// verifier-clean and bit-equal in objective to a cold solve of the same
// tracked instance, and bit-identical in solution bytes after an empty
// delta.
//
// Instances here build customers on DISTINCT graph nodes: with
// continuous random edge weights the optimal assignment is then unique
// (ties are measure-zero), which is what makes bit-equality of the
// objective a meaningful assertion. Co-located customers admit
// equal-cost optima whose objectives can differ in the last ulp purely
// from summation order — the churn bench covers that regime with a
// relative gate instead.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "mcfs/common/random.h"
#include "mcfs/common/status.h"
#include "mcfs/core/instance.h"
#include "mcfs/core/verifier.h"
#include "mcfs/core/wma.h"
#include "mcfs/flow/matcher.h"
#include "mcfs/graph/graph.h"
#include "mcfs/serve/solver_service.h"
#include "tests/test_util.h"

namespace mcfs {
namespace {

// Random instance whose customers sit on distinct nodes (see the file
// comment). Facilities are drawn from the remaining nodes.
struct DistinctInstance {
  Graph graph;
  std::vector<NodeId> customers;
  std::vector<NodeId> facility_nodes;
  std::vector<int> capacities;
  // Nodes used by neither customers nor facilities — the arrival pool
  // for churn tests.
  std::vector<NodeId> free_nodes;
};

DistinctInstance MakeDistinct(int n, int m, int l, int max_capacity,
                              Rng& rng) {
  DistinctInstance out;
  // Dense in chords: tree-like graphs route many node pairs through
  // shared hubs, which manufactures exact assignment-cost ties (the
  // degenerate optima the file comment is about). Chords break hubs.
  out.graph = testing_util::RandomGraph(n, 3 * n, rng);
  std::vector<int> sampled = rng.SampleWithoutReplacement(n, m + l);
  for (int i = 0; i < m; ++i) out.customers.push_back(sampled[i]);
  for (int j = 0; j < l; ++j) {
    out.facility_nodes.push_back(sampled[m + j]);
    out.capacities.push_back(static_cast<int>(rng.UniformInt(1, max_capacity)));
  }
  std::vector<uint8_t> used(n, 0);
  for (const int node : sampled) used[node] = 1;
  for (int v = 0; v < n; ++v) {
    if (!used[v]) out.free_nodes.push_back(v);
  }
  return out;
}

// --- Matcher warm-seed lifecycle ---

TEST(ResolveMatcher, ExportResumeRoundTripIsBitIdentical) {
  Rng rng(7);
  DistinctInstance di = MakeDistinct(120, 30, 12, 6, rng);

  IncrementalMatcher cold(&di.graph, di.customers, di.facility_nodes,
                          di.capacities);
  ASSERT_TRUE(cold.MatchAllOnce());
  const WarmSeed seed = cold.ExportWarmSeed();
  ASSERT_EQ(seed.customers.size(), di.customers.size());
  ASSERT_EQ(seed.facility_nodes.size(), di.facility_nodes.size());

  IncrementalMatcher warm(&di.graph, di.customers, di.facility_nodes,
                          di.capacities);
  std::vector<int> seed_of(di.customers.size());
  for (size_t i = 0; i < seed_of.size(); ++i) seed_of[i] = static_cast<int>(i);
  std::vector<uint8_t> adopt_match(di.customers.size(), 1);
  const IncrementalMatcher::ResumeStats stats =
      warm.ResumeFrom(seed, seed_of, adopt_match);

  EXPECT_EQ(stats.customers_seeded, static_cast<int64_t>(di.customers.size()));
  EXPECT_EQ(stats.matches_adopted, static_cast<int64_t>(di.customers.size()));
  EXPECT_EQ(stats.matches_dropped, 0);
  EXPECT_TRUE(warm.VerifyDualFeasibility());
  // The matching itself came back byte-for-byte.
  EXPECT_EQ(warm.TotalCost(), cold.TotalCost());
  auto pairs_of = [](const IncrementalMatcher& matcher) {
    std::vector<std::pair<int, int>> pairs;
    for (const MatchedPair& p : matcher.MatchedPairs()) {
      pairs.push_back({p.customer, p.facility});
    }
    std::sort(pairs.begin(), pairs.end());
    return pairs;
  };
  EXPECT_EQ(pairs_of(warm), pairs_of(cold));
  for (size_t i = 0; i < di.customers.size(); ++i) {
    EXPECT_EQ(warm.CustomerMatchCount(static_cast<int>(i)), 1);
  }
}

TEST(ResolveMatcher, DroppedMatchesRepairToTheSameOptimum) {
  Rng rng(11);
  DistinctInstance di = MakeDistinct(120, 30, 12, 6, rng);

  IncrementalMatcher cold(&di.graph, di.customers, di.facility_nodes,
                          di.capacities);
  ASSERT_TRUE(cold.MatchAllOnce());
  const WarmSeed seed = cold.ExportWarmSeed();

  // adopt_match = 0 is the capacity-increase repair mode: streams and
  // edges are kept, matches are dropped and re-derived.
  IncrementalMatcher warm(&di.graph, di.customers, di.facility_nodes,
                          di.capacities);
  std::vector<int> seed_of(di.customers.size());
  for (size_t i = 0; i < seed_of.size(); ++i) seed_of[i] = static_cast<int>(i);
  std::vector<uint8_t> adopt_match(di.customers.size(), 0);
  const IncrementalMatcher::ResumeStats stats =
      warm.ResumeFrom(seed, seed_of, adopt_match);
  EXPECT_EQ(stats.matches_adopted, 0);
  EXPECT_TRUE(warm.VerifyDualFeasibility());

  for (int i = 0; i < warm.num_customers(); ++i) {
    if (warm.CustomerMatchCount(i) < 1) {
      ASSERT_TRUE(warm.FindPair(i));
    }
  }
  EXPECT_TRUE(warm.VerifyDualFeasibility());
  EXPECT_EQ(warm.TotalCost(), cold.TotalCost());
}

TEST(ResolveMatcher, RemovedFacilityIsFilteredAndRepaired) {
  Rng rng(13);
  // Generous capacities so the reduced catalog still covers everyone.
  DistinctInstance di = MakeDistinct(120, 24, 10, 8, rng);
  for (int& cap : di.capacities) cap += 4;

  IncrementalMatcher full(&di.graph, di.customers, di.facility_nodes,
                          di.capacities);
  ASSERT_TRUE(full.MatchAllOnce());
  const WarmSeed seed = full.ExportWarmSeed();

  // Next epoch: the last facility left the catalog.
  std::vector<NodeId> reduced_nodes(di.facility_nodes.begin(),
                                    di.facility_nodes.end() - 1);
  std::vector<int> reduced_caps(di.capacities.begin(),
                                di.capacities.end() - 1);
  IncrementalMatcher warm(&di.graph, di.customers, reduced_nodes,
                          reduced_caps);
  std::vector<int> seed_of(di.customers.size());
  for (size_t i = 0; i < seed_of.size(); ++i) seed_of[i] = static_cast<int>(i);
  std::vector<uint8_t> adopt_match(di.customers.size(), 1);
  warm.ResumeFrom(seed, seed_of, adopt_match);
  EXPECT_TRUE(warm.VerifyDualFeasibility());
  for (int i = 0; i < warm.num_customers(); ++i) {
    if (warm.CustomerMatchCount(i) < 1) {
      ASSERT_TRUE(warm.FindPair(i));
    }
  }

  IncrementalMatcher cold(&di.graph, di.customers, reduced_nodes,
                          reduced_caps);
  ASSERT_TRUE(cold.MatchAllOnce());
  EXPECT_EQ(warm.TotalCost(), cold.TotalCost());
}

// --- Typed delta API: validation, atomicity, classification ---

struct ResolveFixture {
  DistinctInstance di;
  explicit ResolveFixture(uint64_t seed, int n = 160, int m = 40, int l = 14,
                          int max_capacity = 6) {
    Rng rng(seed);
    di = MakeDistinct(n, m, l, max_capacity, rng);
    // Headroom so departures/removals keep every instance feasible.
    for (int& cap : di.capacities) cap += 4;
  }

  std::unique_ptr<SolverService> MakeService(ServiceOptions options = {}) {
    return std::make_unique<SolverService>(&di.graph, di.facility_nodes,
                                           di.capacities, options);
  }

  UpdateRequest ArriveAll() const {
    UpdateRequest request;
    for (const NodeId node : di.customers) {
      request.ops.push_back({UpdateKind::kCustomerArrive, node, 0});
    }
    return request;
  }
};

TEST(ResolveUpdates, InvalidOpsAreTypedAtomicAndNameTheNode) {
  ResolveFixture fx(17);
  auto service = fx.MakeService();
  const uint64_t epoch0 = service->epoch();
  const NodeId facility = fx.di.facility_nodes[0];
  const NodeId plain = fx.di.free_nodes[0];

  struct Case {
    UpdateOp op;
    std::string want;
  };
  const std::vector<Case> cases = {
      {{UpdateKind::kCapacityDelta, -5, 1}, "out of range"},
      {{UpdateKind::kCapacityDelta, plain, 1},
       "which holds no candidate facility"},
      {{UpdateKind::kCapacityDelta, facility, -1000}, "would drop to"},
      {{UpdateKind::kCapacityDelta, facility, std::numeric_limits<int>::max()},
       "would overflow to"},
      {{UpdateKind::kCandidateAdd, facility, 3},
       "duplicate facility node " + std::to_string(facility)},
      {{UpdateKind::kCandidateAdd, plain, -1}, "negative capacity"},
      {{UpdateKind::kCandidateRemove, plain, 0},
       "no candidate facility at node"},
      // A node distinct from the arrive op's below, so the depart really
      // has nobody to remove.
      {{UpdateKind::kCustomerDepart, fx.di.free_nodes[1], 0},
       "no tracked customer at node"},
  };
  for (const Case& c : cases) {
    // A valid op ahead of the bad one must not leak through (atomicity).
    UpdateRequest request;
    request.ops.push_back({UpdateKind::kCustomerArrive, plain, 0});
    request.ops.push_back(c.op);
    StatusOr<UpdateResult> result = service->ApplyUpdate(request);
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), StatusCode::kInvalidInput);
    EXPECT_NE(result.status().message().find("update op 1"), std::string::npos)
        << result.status().message();
    EXPECT_NE(result.status().message().find(c.want), std::string::npos)
        << result.status().message();
    EXPECT_EQ(service->tracked_customer_count(), 0u);
    EXPECT_EQ(service->epoch(), epoch0);
  }
}

TEST(ResolveUpdates, ClassifiesEpochBumpsAndNoops) {
  ResolveFixture fx(19);
  auto service = fx.MakeService();
  const uint64_t epoch0 = service->epoch();

  // Customer-only deltas never bump the epoch.
  StatusOr<UpdateResult> arrive = service->ApplyUpdate(fx.ArriveAll());
  ASSERT_TRUE(arrive.ok());
  EXPECT_FALSE(arrive.value().epoch_bumped);
  EXPECT_FALSE(arrive.value().noop);
  EXPECT_EQ(arrive.value().epoch, epoch0);
  EXPECT_EQ(service->tracked_customer_count(), fx.di.customers.size());

  // Catalog deltas do, and a capacity increase dirties its component.
  UpdateRequest grow;
  grow.ops.push_back({UpdateKind::kCapacityDelta, fx.di.facility_nodes[0], 1});
  StatusOr<UpdateResult> grown = service->ApplyUpdate(grow);
  ASSERT_TRUE(grown.ok());
  EXPECT_TRUE(grown.value().epoch_bumped);
  EXPECT_EQ(grown.value().epoch, epoch0 + 1);
  EXPECT_GE(grown.value().components_dirtied, 1);

  // A delta that cancels itself out is a detected no-op: epoch kept.
  UpdateRequest wash;
  wash.ops.push_back({UpdateKind::kCapacityDelta, fx.di.facility_nodes[1], 2});
  wash.ops.push_back({UpdateKind::kCapacityDelta, fx.di.facility_nodes[1], -2});
  wash.ops.push_back({UpdateKind::kCustomerArrive, fx.di.free_nodes[0], 0});
  wash.ops.push_back({UpdateKind::kCustomerDepart, fx.di.free_nodes[0], 0});
  StatusOr<UpdateResult> washed = service->ApplyUpdate(wash);
  ASSERT_TRUE(washed.ok());
  EXPECT_TRUE(washed.value().noop);
  EXPECT_FALSE(washed.value().epoch_bumped);
  EXPECT_EQ(washed.value().ops_applied, 4);
  EXPECT_EQ(service->epoch(), epoch0 + 1);

  // Add + remove round-trips the catalog contents (order may differ —
  // swap-remove), and tracked state is unaffected.
  UpdateRequest add;
  add.ops.push_back({UpdateKind::kCandidateAdd, fx.di.free_nodes[1], 3});
  StatusOr<UpdateResult> added = service->ApplyUpdate(add);
  ASSERT_TRUE(added.ok());
  EXPECT_TRUE(added.value().epoch_bumped);
  UpdateRequest remove;
  remove.ops.push_back({UpdateKind::kCandidateRemove, fx.di.free_nodes[1], 0});
  StatusOr<UpdateResult> removed = service->ApplyUpdate(remove);
  ASSERT_TRUE(removed.ok());
  EXPECT_TRUE(removed.value().epoch_bumped);
  McfsInstance tracked = service->TrackedInstance(3);
  EXPECT_EQ(tracked.facility_nodes.size(), fx.di.facility_nodes.size());
}

// Satellite regression: an update that changes nothing must keep the
// epoch AND the response cache (it used to bump both unconditionally).
TEST(ResolveUpdates, EmptyDeltaKeepsEpochAndCache) {
  ResolveFixture fx(23);
  auto service = fx.MakeService();
  const uint64_t epoch0 = service->epoch();

  SolveRequest request{fx.di.customers, 6, {}, 0, nullptr};
  const SolveResponse first = service->SolveSync(request);
  ASSERT_TRUE(first.status.ok());
  EXPECT_FALSE(first.cache_hit);

  ASSERT_TRUE(service->UpdateCapacities(fx.di.capacities).ok());
  UpdateRequest wash;
  wash.ops.push_back({UpdateKind::kCapacityDelta, fx.di.facility_nodes[0], 1});
  wash.ops.push_back({UpdateKind::kCapacityDelta, fx.di.facility_nodes[0], -1});
  ASSERT_TRUE(service->ApplyUpdate(wash).ok());
  ASSERT_TRUE(service->ApplyUpdate(UpdateRequest{}).ok());
  EXPECT_EQ(service->epoch(), epoch0);

  const SolveResponse second = service->SolveSync(request);
  ASSERT_TRUE(second.status.ok());
  EXPECT_TRUE(second.cache_hit);

  // A real change still invalidates.
  std::vector<int> bigger = fx.di.capacities;
  bigger[0] += 1;
  ASSERT_TRUE(service->UpdateCapacities(bigger).ok());
  EXPECT_EQ(service->epoch(), epoch0 + 1);
  const SolveResponse third = service->SolveSync(request);
  ASSERT_TRUE(third.status.ok());
  EXPECT_FALSE(third.cache_hit);

  const ServiceReport report = service->Report();
  EXPECT_EQ(report.resolve_noop_updates, 3);
  EXPECT_NE(report.Json().find("\"resolve\""), std::string::npos);
}

// Satellite regression: duplicate facility nodes used to trip an
// MCFS_CHECK crash inside the warm-state build; they must come back as
// a typed kInvalidInput naming the duplicated node, leaving the service
// serving.
TEST(ResolveUpdates, DuplicateCandidateRejectedWithTypedError) {
  ResolveFixture fx(29);
  auto service = fx.MakeService();
  const uint64_t epoch0 = service->epoch();

  UpdateRequest duplicate;
  duplicate.ops.push_back(
      {UpdateKind::kCandidateAdd, fx.di.facility_nodes[2], 1});
  const Status status = service->ApplyUpdate(duplicate).status();
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInvalidInput);
  EXPECT_NE(status.message().find("duplicate facility node " +
                                  std::to_string(fx.di.facility_nodes[2])),
            std::string::npos)
      << status.message();
  EXPECT_EQ(service->epoch(), epoch0);

  // The service still serves after the rejection.
  const SolveResponse response =
      service->SolveSync({fx.di.customers, 6, {}, 0, nullptr});
  EXPECT_TRUE(response.status.ok());
}

// UpdateCapacities is shorthand for one kCapacityDelta per changed
// facility in catalog order: twin services, one per spelling, must end
// in the same state and re-solve to the same objective.
TEST(ResolveUpdates, UpdateCapacitiesEqualsMatchingCapacityDeltas) {
  ResolveFixture fx(41);
  auto by_vector = fx.MakeService();
  auto by_deltas = fx.MakeService();
  const int k = 6;
  for (SolverService* service : {by_vector.get(), by_deltas.get()}) {
    ASSERT_TRUE(service->ApplyUpdate(fx.ArriveAll()).ok());
    ASSERT_TRUE(service->ResolveTracked(k).status.ok());  // exports a seed
  }

  // Grow some facilities, shrink others, leave the rest alone.
  std::vector<int> capacities = fx.di.capacities;
  UpdateRequest deltas;
  for (size_t j = 0; j < capacities.size(); ++j) {
    const int delta = j % 3 == 0 ? 2 : (j % 3 == 1 ? -1 : 0);
    capacities[j] += delta;
    if (delta != 0) {
      deltas.ops.push_back(
          {UpdateKind::kCapacityDelta, fx.di.facility_nodes[j], delta});
    }
  }
  ASSERT_TRUE(by_vector->UpdateCapacities(capacities).ok());
  ASSERT_TRUE(by_deltas->ApplyUpdate(deltas).ok());

  EXPECT_EQ(by_vector->epoch(), by_deltas->epoch());
  const McfsInstance a = by_vector->TrackedInstance(k);
  const McfsInstance b = by_deltas->TrackedInstance(k);
  EXPECT_EQ(a.customers, b.customers);
  EXPECT_EQ(a.facility_nodes, b.facility_nodes);
  EXPECT_EQ(a.capacities, b.capacities);
  EXPECT_EQ(a.capacities, capacities);
  const ServiceReport report_a = by_vector->Report();
  const ServiceReport report_b = by_deltas->Report();
  EXPECT_GT(report_a.resolve_components_dirtied, 0);
  EXPECT_EQ(report_a.resolve_components_dirtied,
            report_b.resolve_components_dirtied);
  EXPECT_EQ(report_a.resolve_ops_applied, report_b.resolve_ops_applied);

  const SolveResponse resolved_a = by_vector->ResolveTracked(k);
  const SolveResponse resolved_b = by_deltas->ResolveTracked(k);
  ASSERT_TRUE(resolved_a.status.ok()) << resolved_a.status.message();
  ASSERT_TRUE(resolved_b.status.ok()) << resolved_b.status.message();
  EXPECT_EQ(std::bit_cast<uint64_t>(resolved_a.solution.objective),
            std::bit_cast<uint64_t>(resolved_b.solution.objective));
  EXPECT_EQ(resolved_a.solution.selected, resolved_b.solution.selected);
}

TEST(ResolveUpdates, UpdateCapacitiesRejectsWithoutChangingAnything) {
  ResolveFixture fx(43);
  auto service = fx.MakeService();
  const uint64_t epoch0 = service->epoch();
  const auto expect_unchanged = [&] {
    EXPECT_EQ(service->epoch(), epoch0);
    const McfsInstance instance = service->TrackedInstance(1);
    EXPECT_EQ(instance.facility_nodes, fx.di.facility_nodes);
    EXPECT_EQ(instance.capacities, fx.di.capacities);
  };

  std::vector<int> short_vector = fx.di.capacities;
  short_vector.pop_back();
  const Status wrong_size = service->UpdateCapacities(short_vector);
  EXPECT_EQ(wrong_size.code(), StatusCode::kInvalidInput);
  EXPECT_NE(wrong_size.message().find("capacity vector has"),
            std::string::npos)
      << wrong_size.message();
  expect_unchanged();

  // Facility 0 changes (op 0) ahead of the negative facility 2 (op 1):
  // the valid op must not leak through.
  std::vector<int> negative = fx.di.capacities;
  negative[0] += 1;
  negative[2] = -3;
  const Status rejected = service->UpdateCapacities(negative);
  EXPECT_EQ(rejected.code(), StatusCode::kInvalidInput);
  EXPECT_NE(rejected.message().find(
                "update op 1: capacity of the facility at node " +
                std::to_string(fx.di.facility_nodes[2]) + " would drop to -3"),
            std::string::npos)
      << rejected.message();
  expect_unchanged();

  // The most negative entry must not overflow the delta arithmetic.
  negative[2] = std::numeric_limits<int>::min();
  EXPECT_EQ(service->UpdateCapacities(negative).code(),
            StatusCode::kInvalidInput);
  expect_unchanged();
  EXPECT_EQ(service->Report().resolve_ops_applied, 0);
}

// --- Warm-vs-cold equivalence ---

TEST(ResolveEquivalence, EmptyDeltaResolveIsBitIdenticalInSolutionBytes) {
  ResolveFixture fx(31);
  ServiceOptions options;
  options.verify = true;
  auto service = fx.MakeService(options);
  ASSERT_TRUE(service->ApplyUpdate(fx.ArriveAll()).ok());

  const int k = 6;
  const SolveResponse first = service->ResolveTracked(k);
  ASSERT_TRUE(first.status.ok()) << first.status.message();

  StatusOr<UpdateResult> noop = service->ApplyUpdate(UpdateRequest{});
  ASSERT_TRUE(noop.ok());
  EXPECT_TRUE(noop.value().noop);

  const SolveResponse second = service->ResolveTracked(k);
  ASSERT_TRUE(second.status.ok());
  EXPECT_TRUE(second.verify_ran);
  EXPECT_TRUE(second.verify_ok);
  // Exact state resume: every solution byte is identical.
  EXPECT_EQ(second.solution.selected, first.solution.selected);
  EXPECT_EQ(second.solution.assignment, first.solution.assignment);
  EXPECT_EQ(second.solution.distances, first.solution.distances);
  EXPECT_EQ(second.solution.objective, first.solution.objective);
  EXPECT_EQ(second.stats.warm_customers_reused,
            static_cast<int64_t>(fx.di.customers.size()));
  EXPECT_EQ(second.stats.warm_customers_repaired, 0);

  const ServiceReport report = service->Report();
  EXPECT_GE(report.resolves_warm, 1);
  EXPECT_EQ(report.resolve_verify_rejections, 0);
}

TEST(ResolveEquivalence, RandomDeltaSequencesMatchColdAcrossThreadCounts) {
  // The final-assignment resume only fires when consecutive epochs
  // select the same facility node set — seed-dependent, so asserted in
  // aggregate across the thread sweep rather than per configuration.
  int64_t reused_or_repaired = 0;
  for (const int threads : {1, 2, 8}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    ResolveFixture fx(37, /*n=*/240, /*m=*/48, /*l=*/14, /*max_capacity=*/6);
    ServiceOptions options;
    options.verify = true;
    options.serve_threads = threads;
    options.wma.threads = threads;
    auto service = fx.MakeService(options);
    ASSERT_TRUE(service->ApplyUpdate(fx.ArriveAll()).ok());
    const int k = 7;

    // Seeding solve.
    const SolveResponse seed = service->ResolveTracked(k);
    ASSERT_TRUE(seed.status.ok()) << seed.status.message();

    Rng rng(1000 + static_cast<uint64_t>(threads));
    size_t next_free = 0;
    for (int round = 0; round < 5; ++round) {
      SCOPED_TRACE("round=" + std::to_string(round));
      UpdateRequest delta;
      // ~10% churn: departures from the current population, arrivals on
      // never-used nodes (keeps customers distinct — see file comment).
      McfsInstance current = service->TrackedInstance(k);
      const int churn = std::max<int>(1, current.customers.size() / 10);
      std::vector<int> depart_idx = rng.SampleWithoutReplacement(
          static_cast<int>(current.customers.size()), churn);
      for (const int idx : depart_idx) {
        delta.ops.push_back(
            {UpdateKind::kCustomerDepart, current.customers[idx], 0});
      }
      for (int a = 0; a < churn && next_free < fx.di.free_nodes.size(); ++a) {
        delta.ops.push_back(
            {UpdateKind::kCustomerArrive, fx.di.free_nodes[next_free++], 0});
      }
      if (round % 2 == 0) {
        // Dock reconfiguration: one capacity bump.
        const NodeId node = fx.di.facility_nodes[rng.UniformInt(
            0, static_cast<int64_t>(fx.di.facility_nodes.size()) - 1)];
        delta.ops.push_back({UpdateKind::kCapacityDelta, node, 1});
      }
      ASSERT_TRUE(service->ApplyUpdate(delta).ok());

      const SolveResponse warm = service->ResolveTracked(k);
      ASSERT_TRUE(warm.status.ok()) << warm.status.message();
      EXPECT_TRUE(warm.verify_ran);
      EXPECT_TRUE(warm.verify_ok);
      // The warm path engaged: the previous epoch's discovery prefixes
      // fed the trajectory replay.
      EXPECT_GT(warm.stats.warm_stream_entries, 0);

      // Cold reference: SolveWma directly on the tracked instance, the
      // same way the service builds it.
      McfsInstance instance = service->TrackedInstance(k);
      StatusOr<WmaResult> cold = SolveWma(instance, options.wma);
      ASSERT_TRUE(cold.ok());
      EXPECT_EQ(warm.solution.objective, cold.value().solution.objective);
      EXPECT_EQ(warm.solution.selected, cold.value().solution.selected);
      const VerifyReport verdict =
          VerifySolution(instance, warm.solution);
      EXPECT_TRUE(verdict.ok) << verdict.ToString();
    }

    const ServiceReport report = service->Report();
    EXPECT_GE(report.resolves_warm, 1);
    EXPECT_EQ(report.resolve_verify_rejections, 0);
    reused_or_repaired +=
        report.warm_customers_reused + report.warm_customers_repaired;
  }
  EXPECT_GT(reused_or_repaired, 0);
}

}  // namespace
}  // namespace mcfs
