// Hedged reads and the latency signal behind them: LatencyMap warm-up,
// EWMA prediction and brownout penalties; the hedge race (backup fires on
// a slow primary, first complete answer wins, the loser is cancelled);
// winner/loser accounting in the attempt log; and the observed slowness
// feeding back into routing (docs/robustness.md).
#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <string>
#include <vector>

#include "blot/encoding_scheme.h"
#include "common/fixtures.h"
#include "core/cost_model.h"
#include "core/fault_injection.h"
#include "core/latency_map.h"
#include "core/store.h"
#include "simenv/environment.h"
#include "util/error.h"

namespace blot {
namespace {

using test::Sorted;
using test::TaxiFixture;

CostModel Model() { return CostModel{EnvironmentModel::LocalHadoop()}; }

struct ScopedInjector {
  explicit ScopedInjector(const FaultPlan& plan) {
    FaultInjector::Global().Arm(plan);
  }
  ~ScopedInjector() { FaultInjector::Global().Disarm(); }
};

// Stalls every partition read of `replica` by `stall_ms`, on every read.
FaultPlan StallPlan(double stall_ms, const std::string& replica) {
  FaultPlan plan;
  plan.seed = 23;
  plan.probability = 1.0;
  plan.kinds = {FaultKind::kLatency};
  plan.max_fires_per_target = 0;
  plan.latency_ms = static_cast<std::uint32_t>(stall_ms);
  plan.replica = replica;
  return plan;
}

// A store with two near-peer replicas (same partitioning, sibling
// encodings), so a hedged backup attempt can genuinely win the race.
BlotStore MakeNearPeerStore(const Dataset& dataset, const STRange& universe) {
  BlotStore store(dataset, universe);
  store.AddReplica({{.spatial_partitions = 4, .temporal_partitions = 2},
                    EncodingScheme::FromName("ROW-SNAPPY")});
  store.AddReplica({{.spatial_partitions = 4, .temporal_partitions = 2,
                     .method = SpatialMethod::kGrid},
                    EncodingScheme::FromName("COL-SNAPPY")});
  return store;
}

// --- LatencyMap unit coverage ------------------------------------------

TEST(LatencyMapTest, ColdReplicaPredictsNothing) {
  LatencyMap map;
  map.AddReplica();
  EXPECT_EQ(map.NumReplicas(), 1u);
  EXPECT_DOUBLE_EQ(map.ExpectedMs(0, 8), 0.0);
  // Below the warm-up floor the EWMA stays out of decisions.
  for (std::uint64_t i = 0; i + 1 < LatencyMap::kMinObservations; ++i) {
    map.Observe(0, 1, 10.0);
    EXPECT_DOUBLE_EQ(map.ExpectedMs(0, 8), 0.0);
  }
  map.Observe(0, 1, 10.0);
  EXPECT_GT(map.ExpectedMs(0, 8), 0.0);
}

TEST(LatencyMapTest, EwmaPredictsPerPartitionRate) {
  LatencyMap map;
  map.AddReplica();
  // Steady 10ms-per-partition attempts: the EWMA converges to the rate
  // and ExpectedMs scales linearly with the partition count.
  for (int i = 0; i < 8; ++i) map.Observe(0, 4, 40.0);
  EXPECT_NEAR(map.Get(0).ewma_ms_per_partition, 10.0, 1e-9);
  EXPECT_NEAR(map.ExpectedMs(0, 6), 60.0, 1e-9);
  // Zero-partition attempts still count as one partition: no division
  // by zero, no infinite rate.
  map.Observe(0, 0, 5.0);
  EXPECT_GT(map.Get(0).ewma_ms_per_partition, 0.0);
}

TEST(LatencyMapTest, BrownoutPenaltySparesHonestDifferencesAndCaps) {
  LatencyMap map;
  for (int r = 0; r < 3; ++r) map.AddReplica();
  for (std::uint64_t i = 0; i < LatencyMap::kMinObservations; ++i) {
    map.Observe(0, 1, 10.0);    // the fastest replica
    map.Observe(1, 1, 25.0);    // 2.5x: an honest encoding difference
    map.Observe(2, 1, 1000.0);  // 100x: a brownout
  }
  EXPECT_DOUBLE_EQ(map.BrownoutPenalty(0), 1.0);
  // Below kBrownoutRatio the penalty must not bias routing at all.
  EXPECT_DOUBLE_EQ(map.BrownoutPenalty(1), 1.0);
  // A genuine brownout is penalized but capped: never priced out of
  // serving as the last healthy copy.
  EXPECT_DOUBLE_EQ(map.BrownoutPenalty(2), LatencyMap::kMaxPenalty);
}

TEST(LatencyMapTest, ColdReplicasAreNeverPenalized) {
  LatencyMap map;
  map.AddReplica();
  map.AddReplica();
  for (std::uint64_t i = 0; i < LatencyMap::kMinObservations; ++i)
    map.Observe(0, 1, 1.0);
  // Replica 1 has no observations: no penalty either way.
  EXPECT_DOUBLE_EQ(map.BrownoutPenalty(1), 1.0);
}

// --- The hedge race ----------------------------------------------------

TEST(HedgingTest, SlowPrimaryTriggersBackupThatWins) {
  const TaxiFixture fixture;
  Dataset dataset = fixture.dataset;
  BlotStore store = MakeNearPeerStore(dataset, fixture.universe);
  const STRange query = fixture.universe;
  const std::vector<Record> expected =
      Sorted(store.Execute(query, Model()).result.records);

  // Stall only the replica routing prefers, so the backup runs clean
  // and must win the race.
  const std::size_t primary =
      store.RouteQueryDetailed(query, Model()).replica_index;
  const std::string primary_name = store.replica(primary).config().Name();
  const ScopedInjector injector(StallPlan(60.0, primary_name));

  BlotStore::ExecOptions exec;
  exec.hedge_ms = 10.0;
  const BlotStore::RoutedResult routed = store.Execute(query, Model(), exec);

  EXPECT_TRUE(routed.hedged);
  EXPECT_TRUE(routed.hedge_backup_won);
  EXPECT_NE(routed.replica_index, primary);
  EXPECT_EQ(Sorted(routed.result.records), expected);
  EXPECT_FALSE(routed.partial);

  // Winner/loser accounting: two attempts, the backup marked as the
  // serving one, the cancelled primary carrying its loss.
  EXPECT_EQ(routed.attempts, 2u);
  ASSERT_EQ(routed.attempt_log.size(), 2u);
  EXPECT_EQ(routed.attempt_log[0].replica_index, primary);
  EXPECT_FALSE(routed.attempt_log[0].success);
  EXPECT_FALSE(routed.attempt_log[0].fault.empty());
  EXPECT_TRUE(routed.attempt_log[1].success);
  EXPECT_EQ(routed.attempt_log[1].replica_index, routed.replica_index);
}

TEST(HedgingTest, HedgedResultsStayBitIdenticalWithoutFaults) {
  const TaxiFixture fixture;
  Dataset dataset = fixture.dataset;
  BlotStore store = MakeNearPeerStore(dataset, fixture.universe);

  // With no faults, hedging is pure mechanism: whether or not the backup
  // fires (or even wins a benign race), the records must be identical to
  // the unhedged answer. An absurdly low threshold makes the backup
  // launch on effectively every query.
  for (const double fraction : {0.2, 0.5, 0.9}) {
    const STRange query = test::CentroidQuery(fixture.universe, fraction);
    const std::vector<Record> expected =
        Sorted(store.Execute(query, Model()).result.records);
    BlotStore::ExecOptions exec;
    exec.hedge_ms = 0.001;
    const BlotStore::RoutedResult routed =
        store.Execute(query, Model(), exec);
    EXPECT_EQ(Sorted(routed.result.records), expected);
    EXPECT_FALSE(routed.partial);
  }
}

TEST(HedgingTest, SingleCandidateFallsBackToPlainExecution) {
  const TaxiFixture fixture;
  Dataset dataset = fixture.dataset;
  BlotStore store(dataset, fixture.universe);
  store.AddReplica({{.spatial_partitions = 4, .temporal_partitions = 2},
                    EncodingScheme::FromName("ROW-SNAPPY")});

  const STRange query = fixture.universe;
  BlotStore::ExecOptions exec;
  exec.hedge_ms = 0.001;
  // One covering replica: nothing to race, no hedge accounting.
  const BlotStore::RoutedResult routed = store.Execute(query, Model(), exec);
  EXPECT_FALSE(routed.hedged);
  EXPECT_FALSE(routed.hedge_backup_won);
  EXPECT_EQ(routed.attempts, 1u);
}

// Lines of /proc/self/maps; 0 where the file is unavailable.
std::size_t MappingCount() {
  std::ifstream maps("/proc/self/maps");
  std::size_t lines = 0;
  for (std::string line; std::getline(maps, line);) ++lines;
  return lines;
}

// Every fired hedge leaves a loser still stalled when the query returns.
// Its std::async thread keeps its stack mapped until the future is
// destroyed, so finished losers must not pile up in a store that never
// calls WaitForRepairs (the server does not).
TEST(HedgingTest, FinishedHedgeLosersDoNotAccumulate) {
  if (MappingCount() == 0) GTEST_SKIP() << "no /proc/self/maps";
  const TaxiFixture fixture;
  BlotStore store = MakeNearPeerStore(fixture.dataset, fixture.universe);
  const STRange query = fixture.universe;
  const std::size_t primary =
      store.RouteQueryDetailed(query, Model()).replica_index;
  const ScopedInjector injector(
      StallPlan(20.0, store.replica(primary).config().Name()));
  BlotStore::ExecOptions exec;
  exec.hedge_ms = 1.0;
  const auto run = [&](int queries) {
    for (int i = 0; i < queries; ++i)
      ASSERT_TRUE(store.Execute(query, Model(), exec).hedged);
  };
  // Warm up to the steady state (thread stack cache, malloc arenas),
  // then 100 more queries: each would leave at least a stack and its
  // guard page mapped if finished losers were kept.
  run(50);
  const std::size_t steady = MappingCount();
  run(100);
  const std::size_t after = MappingCount();
  EXPECT_LT(after, steady + 50) << "steady " << steady << ", after " << after;
  store.WaitForRepairs();
}

TEST(HedgingTest, ObservedStallsFeedBrownoutReroute) {
  const TaxiFixture fixture;
  Dataset dataset = fixture.dataset;
  BlotStore store = MakeNearPeerStore(dataset, fixture.universe);
  const STRange query = test::CentroidQuery(fixture.universe, 0.5);
  const std::vector<Record> expected =
      Sorted(store.Execute(query, Model()).result.records);

  const std::size_t primary =
      store.RouteQueryDetailed(query, Model()).replica_index;
  const std::size_t backup = 1 - primary;
  const std::string primary_name = store.replica(primary).config().Name();

  // Phase 1 — hedged: the stalled primary loses every race, and each
  // winning backup attempt teaches the latency map the *healthy* rate.
  // (The primary's EWMA is still cold, so the hedge threshold is the
  // caller's floor, not an average the stalls have already inflated.)
  // Every partition read of the primary stalls, so its scan outlasts the
  // backup's by far, however slowly this build decodes.
  {
    const ScopedInjector injector(StallPlan(60.0, primary_name));
    BlotStore::ExecOptions exec;
    exec.hedge_ms = 8.0;
    for (std::uint64_t i = 0; i < LatencyMap::kMinObservations; ++i) {
      const BlotStore::RoutedResult routed =
          store.Execute(query, Model(), exec);
      EXPECT_TRUE(routed.hedge_backup_won);
      EXPECT_EQ(Sorted(routed.result.records), expected);
    }
    store.WaitForRepairs();  // the cancelled losers sit out their stall
  }

  // Phase 2 — unhedged: the stalled primary now serves to completion
  // (slowly) and teaches the map its browned-out rate. The stall is
  // scaled to the healthy rate phase 1 measured, which an instrumented
  // or loaded build makes several times slower, so the primary's rate
  // clears kBrownoutRatio times the backup's in every build.
  const double healthy_ms = store.latency().Get(backup).ewma_ms_per_partition;
  const ScopedInjector injector(StallPlan(
      std::max(30.0, 2.0 * LatencyMap::kBrownoutRatio * healthy_ms),
      primary_name));
  for (std::uint64_t i = 0; i < LatencyMap::kMinObservations; ++i) {
    const BlotStore::RoutedResult routed = store.Execute(query, Model());
    EXPECT_EQ(Sorted(routed.result.records), expected);
  }

  // Both sides warmed: the slowness observed above must now reroute the
  // query away from the browned-out primary.
  EXPECT_GE(store.latency().Get(primary).observations,
            LatencyMap::kMinObservations);
  EXPECT_GT(store.latency().BrownoutPenalty(primary), 1.0);
  EXPECT_NE(store.RouteQueryDetailed(query, Model()).replica_index, primary);
}

}  // namespace
}  // namespace blot
