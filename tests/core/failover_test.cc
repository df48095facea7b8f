// Fault-tolerant query execution end to end: health state machine,
// quarantine on read faults, failover to the next-cheapest replica,
// partition-granular self-healing repair, and the chaos-equivalence
// guarantee — faults in up to R-1 replicas' copies of any partition must
// never change a query's result (docs/robustness.md).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <string>
#include <vector>

#include "common/fixtures.h"
#include "core/fault_injection.h"
#include "core/health.h"
#include "core/partition_cache.h"
#include "core/store.h"
#include "obs/metrics.h"
#include "testing/oracle.h"
#include "util/error.h"

namespace blot {
namespace {

using test::Sorted;

// --- HealthMap unit coverage -------------------------------------------

TEST(HealthMapTest, StateMachineTransitions) {
  HealthMap health;
  health.AddReplica(4);
  EXPECT_EQ(health.NumReplicas(), 1u);
  EXPECT_TRUE(health.AllOk(0));
  EXPECT_EQ(health.Get(0, 2), PartitionHealth::kOk);

  // Read faults quarantine directly; re-quarantine reports no change.
  EXPECT_TRUE(health.Quarantine(0, 1));
  EXPECT_FALSE(health.AllOk(0));
  EXPECT_TRUE(health.Quarantine(0, 3));
  EXPECT_FALSE(health.Quarantine(0, 3));
  EXPECT_EQ(health.QuarantinedCount(), 2u);

  // Repair returns partitions to ok.
  health.MarkOk(0, 1);
  health.MarkOk(0, 3);
  EXPECT_TRUE(health.AllOk(0));
  EXPECT_EQ(health.QuarantinedCount(), 0u);
}

TEST(HealthMapTest, QueriesOverPartitionSets) {
  HealthMap health;
  health.AddReplica(8);
  health.AddReplica(4);
  health.Quarantine(0, 5);

  EXPECT_TRUE(health.AnyQuarantined(0, {1, 5}));
  EXPECT_FALSE(health.AnyQuarantined(0, {1, 2}));

  const std::vector<HealthMap::Target> quarantined = health.Quarantined();
  ASSERT_EQ(quarantined.size(), 1u);
  EXPECT_EQ(quarantined[0].replica, 0u);
  EXPECT_EQ(quarantined[0].partition, 5u);

  const HealthMap::Counts counts = health.CountsFor(1);
  EXPECT_EQ(counts.ok, 4u);
  EXPECT_EQ(counts.quarantined, 0u);
}

TEST(HealthMapTest, ResetReplicaReturnsEverythingToOk) {
  HealthMap health;
  health.AddReplica(4);
  health.Quarantine(0, 0);
  health.ResetReplica(0, 6);  // rebuild may change the partition count
  EXPECT_TRUE(health.AllOk(0));
  EXPECT_EQ(health.CountsFor(0).ok, 6u);
  EXPECT_EQ(health.QuarantinedCount(), 0u);
}

// --- Store-level failover, quarantine and repair -----------------------

struct FailoverTest : ::testing::Test, test::TaxiFixture {
  CostModel model{EnvironmentModel::LocalHadoop()};

  void TearDown() override {
    FaultInjector::Global().Disarm();
    PartitionCache::Global().Configure(0);
    obs::MetricsRegistry::global().set_enabled(false);
  }

  BlotStore MakeStore(std::size_t replicas = 2) {
    return test::MakeStandardStore(dataset, universe, replicas);
  }

  STRange CentroidQuery(double fraction) const {
    return test::CentroidQuery(universe, fraction);
  }

  std::vector<std::size_t> CorruptInvolved(BlotStore& store,
                                           std::size_t replica,
                                           const STRange& query) {
    return test::CorruptInvolved(store, replica, query);
  }
};

TEST_F(FailoverTest, FailoverServesIdenticalResultsAndQuarantines) {
  BlotStore store = MakeStore();
  FailoverPolicy policy;
  policy.repair = RepairMode::kNone;  // inspect the quarantine first
  store.SetFailoverPolicy(policy);

  const STRange query = CentroidQuery(0.3);
  const std::vector<Record> truth = dataset.FilterByRange(query);
  ASSERT_FALSE(truth.empty());

  const std::size_t victim = store.RouteQuery(query, model);
  const std::vector<std::size_t> corrupted =
      CorruptInvolved(store, victim, query);
  ASSERT_FALSE(corrupted.empty());

  const BlotStore::RoutedResult routed = store.Execute(query, model);
  EXPECT_EQ(Sorted(routed.result.records), Sorted(truth));
  EXPECT_NE(routed.replica_index, victim);
  EXPECT_TRUE(routed.degraded);
  EXPECT_GE(routed.attempts, 2u);
  EXPECT_EQ(routed.served_by,
            store.replica(routed.replica_index).config().Name());

  // Exactly the faulty storage units are quarantined.
  for (const std::size_t p : corrupted)
    EXPECT_EQ(store.health().Get(victim, p), PartitionHealth::kQuarantined);
  EXPECT_EQ(store.health().QuarantinedCount(), corrupted.size());

  // Routing now avoids the victim without touching it.
  EXPECT_NE(store.RouteQuery(query, model), victim);
}

TEST_F(FailoverTest, RepairQuarantinedRestoresDataAndHealth) {
  BlotStore store = MakeStore();
  FailoverPolicy policy;
  policy.repair = RepairMode::kNone;
  store.SetFailoverPolicy(policy);

  const STRange query = CentroidQuery(0.3);
  const std::size_t victim = store.RouteQuery(query, model);
  const std::vector<std::size_t> corrupted =
      CorruptInvolved(store, victim, query);
  store.Execute(query, model);  // quarantine via failover
  ASSERT_EQ(store.health().QuarantinedCount(), corrupted.size());

  const std::size_t repaired = store.RepairQuarantined();
  EXPECT_GE(repaired, 1u);
  EXPECT_EQ(store.health().QuarantinedCount(), 0u);
  EXPECT_TRUE(store.health().AllOk(victim));

  // The repaired replica holds the full logical view again and serves
  // the query first-choice, undegraded.
  EXPECT_EQ(Sorted(store.replica(victim).Reconstruct().records()),
            Sorted(dataset.records()));
  const BlotStore::RoutedResult routed = store.Execute(query, model);
  EXPECT_FALSE(routed.degraded);
  EXPECT_EQ(routed.attempts, 1u);
  EXPECT_EQ(Sorted(routed.result.records),
            Sorted(dataset.FilterByRange(query)));
}

TEST_F(FailoverTest, SyncRepairPolicySelfHealsWithinExecute) {
  BlotStore store = MakeStore();  // default policy: RepairMode::kSync
  const STRange query = CentroidQuery(0.25);
  const std::size_t victim = store.RouteQuery(query, model);
  CorruptInvolved(store, victim, query);

  const BlotStore::RoutedResult routed = store.Execute(query, model);
  EXPECT_EQ(Sorted(routed.result.records),
            Sorted(dataset.FilterByRange(query)));
  // The same Execute call already repaired what it quarantined.
  EXPECT_EQ(store.health().QuarantinedCount(), 0u);
  EXPECT_TRUE(store.health().AllOk(victim));
}

TEST_F(FailoverTest, BackgroundRepairPolicyHealsAfterWait) {
  ThreadPool pool(2);
  BlotStore store = MakeStore();
  FailoverPolicy policy;
  policy.repair = RepairMode::kBackground;
  store.SetFailoverPolicy(policy);

  const STRange query = CentroidQuery(0.25);
  const std::size_t victim = store.RouteQuery(query, model);
  CorruptInvolved(store, victim, query);
  store.Execute(query, model, &pool);
  store.WaitForRepairs();
  // Single-threaded after Execute returned, so the background task could
  // not have lost the try_to_lock race.
  EXPECT_EQ(store.health().QuarantinedCount(), 0u);
  EXPECT_EQ(Sorted(store.replica(victim).Reconstruct().records()),
            Sorted(dataset.records()));
}

TEST_F(FailoverTest, TotalLossRaisesStructuredQueryFailedError) {
  BlotStore store = MakeStore();
  FailoverPolicy policy;
  policy.repair = RepairMode::kNone;
  store.SetFailoverPolicy(policy);

  const STRange query = CentroidQuery(0.2);
  // Destroy every replica's copy of the partitions the query needs.
  for (std::size_t r = 0; r < store.NumReplicas(); ++r)
    CorruptInvolved(store, r, query);

  try {
    store.Execute(query, model);
    FAIL() << "expected QueryFailedError";
  } catch (const QueryFailedError& e) {
    EXPECT_FALSE(e.lost().empty());
    EXPECT_NE(std::string(e.what()).find("partition"), std::string::npos);
  }
  // The failed attempts quarantined what they found; the store itself is
  // not poisoned — the error was per-query.
  EXPECT_GT(store.health().QuarantinedCount(), 0u);
}

TEST_F(FailoverTest, RecoveryRefreshesCacheIdentitySoStaleDecodesNeverServe) {
  PartitionCache::Global().Configure(64u << 20);
  BlotStore store = MakeStore();

  // Warm the cache with decodes of both replicas.
  const STRange query = CentroidQuery(0.4);
  store.Execute(query, model);
  store.Execute(universe, model);

  const std::uint64_t old_id = store.replica(1).cache_id();
  store.RecoverReplicaFrom(1, 0);
  EXPECT_NE(store.replica(1).cache_id(), old_id);

  // Partition-granular repair refreshes identity too.
  const std::uint64_t pre_repair_id = store.replica(1).cache_id();
  store.RecoverPartition(1, 0, 0);
  EXPECT_NE(store.replica(1).cache_id(), pre_repair_id);

  // Post-recovery queries are correct — cached pre-recovery decodes can
  // never satisfy them (fresh ids miss; stale entries are unreachable).
  const BlotStore::RoutedResult routed = store.Execute(query, model);
  EXPECT_EQ(Sorted(routed.result.records),
            Sorted(dataset.FilterByRange(query)));
}

TEST_F(FailoverTest, BatchSharedScanFallsBackAndStaysCorrect) {
  BlotStore store = MakeStore();
  // Repair waits for the explicit sweep below, so the quarantine the
  // batch leaves behind can be inspected first.
  FailoverPolicy policy;
  policy.repair = RepairMode::kNone;
  store.SetFailoverPolicy(policy);
  std::vector<STRange> queries;
  Rng rng(11);
  for (int i = 0; i < 5; ++i)
    queries.push_back(SampleQueryInstance(
        {{universe.Width() * 0.1, universe.Height() * 0.1,
          universe.Duration() * 0.1}},
        universe, rng));
  queries.push_back(universe);

  // Corrupt every other partition of the replica the universe query
  // routes to: its group's shared scan reads all of them and fails.
  const std::size_t victim = store.RouteQuery(universe, model);
  std::vector<std::size_t> corrupted;
  for (std::size_t p = 0; p < store.replica(victim).NumPartitions(); p += 2) {
    StoredPartition& unit = store.mutable_replica(victim).MutablePartition(p);
    if (unit.data.empty()) continue;
    unit.data[unit.data.size() / 2] ^= 0xFF;
    corrupted.push_back(p);
  }
  ASSERT_FALSE(corrupted.empty());

  const testing::Oracle oracle(dataset);
  const BlotStore::RoutedBatchResult batch =
      store.ExecuteBatch(queries, model);
  ASSERT_EQ(batch.per_query.size(), queries.size());
  for (std::size_t q = 0; q < queries.size(); ++q)
    EXPECT_EQ(Sorted(batch.per_query[q]),
              Sorted(oracle.RangeQuery(queries[q])))
        << "query " << q;

  // The shared scan names its failures: exactly the corrupted partitions
  // are quarantined, and no healthy partition changed state.
  for (std::size_t r = 0; r < store.NumReplicas(); ++r) {
    for (std::size_t p = 0; p < store.replica(r).NumPartitions(); ++p) {
      const bool bad =
          r == victim && std::find(corrupted.begin(), corrupted.end(), p) !=
                             corrupted.end();
      EXPECT_EQ(store.health().Get(r, p), bad ? PartitionHealth::kQuarantined
                                              : PartitionHealth::kOk)
          << "replica " << r << " partition " << p;
    }
  }

  // A synchronous repair sweep heals everything, and the next batch
  // answers from the shared scan again.
  EXPECT_EQ(store.RepairQuarantined(), corrupted.size());
  EXPECT_EQ(store.health().QuarantinedCount(), 0u);
  const BlotStore::RoutedBatchResult healed =
      store.ExecuteBatch(queries, model);
  for (std::size_t q = 0; q < queries.size(); ++q)
    EXPECT_EQ(Sorted(healed.per_query[q]),
              Sorted(oracle.RangeQuery(queries[q])))
        << "query " << q;
  EXPECT_EQ(store.health().QuarantinedCount(), 0u);
}

// Every path reports one attempt count: RoutedResult::attempts, the
// attempt log, the profile and failover.attempts_total agree, including
// a hedged race that fails over further and the partial-serving attempt.
TEST_F(FailoverTest, AttemptsMatchTheAttemptLogOnEveryPath) {
  auto& registry = obs::MetricsRegistry::global();
  registry.Reset();
  registry.set_enabled(true);
  obs::Counter& attempts_total =
      registry.GetCounter("failover.attempts_total");
  const STRange query = CentroidQuery(0.3);
  const auto run = [&](const std::string& path, BlotStore& store,
                       const BlotStore::ExecOptions& exec) {
    const std::uint64_t before = attempts_total.value();
    BlotStore::RoutedResult routed = store.Execute(query, model, exec);
    EXPECT_EQ(routed.attempts, routed.attempt_log.size()) << path;
    EXPECT_EQ(routed.profile.attempts, routed.attempts) << path;
    EXPECT_EQ(attempts_total.value() - before, routed.attempts) << path;
    return routed;
  };
  // Stalls every read of `replica` (empty: all replicas).
  const auto stall = [](double ms, const std::string& replica) {
    FaultPlan plan;
    plan.kinds = {FaultKind::kLatency};
    plan.max_fires_per_target = 0;
    plan.latency_ms = static_cast<std::uint32_t>(ms);
    plan.replica = replica;
    FaultInjector::Global().Arm(plan);
  };
  const auto name = [](const BlotStore& store, std::size_t replica) {
    return store.replica(replica).config().Name();
  };

  {
    BlotStore store = MakeStore();
    EXPECT_EQ(run("plain", store, {}).attempts, 1u);
  }
  {
    BlotStore store = MakeStore();
    CorruptInvolved(store, store.RouteQuery(query, model), query);
    const BlotStore::RoutedResult routed = run("failed over", store, {});
    EXPECT_EQ(routed.attempts, 2u);
    EXPECT_TRUE(routed.degraded);
  }
  {
    BlotStore store = MakeStore();
    stall(60.0, name(store, store.RouteQuery(query, model)));
    const BlotStore::RoutedResult routed =
        run("hedge won", store, {.hedge_ms = 5.0});
    FaultInjector::Global().Disarm();
    EXPECT_TRUE(routed.hedge_backup_won);
    EXPECT_EQ(routed.attempts, 2u);
  }
  {
    // Learn routing's first two choices, then fail both: the stalled
    // primary triggers the backup, both fault, and the walk goes on to
    // the third replica.
    BlotStore store = MakeStore(3);
    FailoverPolicy policy;
    policy.repair = RepairMode::kNone;
    store.SetFailoverPolicy(policy);
    const std::size_t first = store.RouteQuery(query, model);
    CorruptInvolved(store, first, query);
    const std::size_t second = store.Execute(query, model).replica_index;
    ASSERT_NE(second, first);
    store.RepairQuarantined();
    ASSERT_EQ(store.RouteQuery(query, model), first);
    CorruptInvolved(store, first, query);
    CorruptInvolved(store, second, query);
    stall(10.0, name(store, first));
    const BlotStore::RoutedResult routed =
        run("both hedged attempts failed", store, {.hedge_ms = 2.0});
    FaultInjector::Global().Disarm();
    EXPECT_TRUE(routed.hedged);
    EXPECT_EQ(routed.attempts, 3u);
    EXPECT_NE(routed.replica_index, first);
    EXPECT_NE(routed.replica_index, second);
    EXPECT_EQ(Sorted(routed.result.records),
              Sorted(dataset.FilterByRange(query)));
  }
  {
    BlotStore store = MakeStore();
    CorruptInvolved(store, 0, query);
    CorruptInvolved(store, 1, query);
    const BlotStore::RoutedResult routed =
        run("partial fallback", store, {.allow_partial = true});
    EXPECT_TRUE(routed.partial);
    EXPECT_EQ(routed.attempts, 3u);
  }
  {
    BlotStore store = MakeStore();
    stall(30.0, "");
    const BlotStore::RoutedResult routed =
        run("deadline partial", store,
            {.deadline_ms = 5.0, .allow_partial = true});
    EXPECT_TRUE(routed.partial);
    // Without allow_partial the error reports the same count.
    const std::uint64_t before = attempts_total.value();
    try {
      store.Execute(query, model, {.deadline_ms = 5.0});
      ADD_FAILURE() << "expected DeadlineExceededError";
    } catch (const DeadlineExceededError& e) {
      EXPECT_EQ(attempts_total.value() - before, e.attempts());
    }
    FaultInjector::Global().Disarm();
  }
}

TEST_F(FailoverTest, MetricsAccountForEveryInjectedFault) {
  auto& registry = obs::MetricsRegistry::global();
  registry.Reset();
  registry.set_enabled(true);

  BlotStore store = MakeStore();
  const STRange query = CentroidQuery(0.3);
  const std::size_t victim = store.RouteQuery(query, model);

  FaultPlan plan;
  plan.seed = 77;
  plan.kinds = {FaultKind::kBitFlip};
  plan.replica = store.replica(victim).config().Name();
  plan.max_fires_per_target = 0;  // faulty until repaired
  FaultInjector::Global().Arm(plan);

  const BlotStore::RoutedResult routed = store.Execute(query, model);
  FaultInjector::Global().Disarm();
  EXPECT_EQ(Sorted(routed.result.records),
            Sorted(dataset.FilterByRange(query)));
  EXPECT_TRUE(routed.degraded);

  const FaultInjector::Stats injected = FaultInjector::Global().stats();
  ASSERT_GT(injected.fired_total, 0u);

  const obs::MetricsSnapshot snap = registry.Snapshot();
  const obs::CounterSnapshot* attempts =
      snap.FindCounter("failover.attempts_total");
  ASSERT_NE(attempts, nullptr);
  EXPECT_EQ(attempts->value, routed.attempts);
  const obs::CounterSnapshot* rerouted =
      snap.FindCounter("failover.queries_rerouted_total");
  ASSERT_NE(rerouted, nullptr);
  EXPECT_EQ(rerouted->value, 1u);
  // Every distinct faulty storage unit the query touched was quarantined
  // and then repaired (sync policy): the books must balance.
  const obs::CounterSnapshot* quarantined =
      snap.FindCounter("quarantine.partitions_total");
  ASSERT_NE(quarantined, nullptr);
  EXPECT_EQ(quarantined->value, injected.targets_hit);
  const obs::CounterSnapshot* repaired =
      snap.FindCounter("repair.partitions_total");
  const obs::CounterSnapshot* rebuilds =
      snap.FindCounter("repair.full_rebuilds_total");
  const std::uint64_t healed =
      (repaired != nullptr ? repaired->value : 0) +
      (rebuilds != nullptr ? rebuilds->value : 0);
  EXPECT_GE(healed, 1u);
  EXPECT_EQ(store.health().QuarantinedCount(), 0u);
}

// The acceptance bar: across a randomized campaign (seed overridable via
// BLOT_CHAOS_SEED for CI soaks), faults confined to one replica at a
// time — and, below, to R-1 replicas at once — never change any query's
// result and never surface an exception to the caller.
TEST_F(FailoverTest, ChaosCampaignPreservesResultEquivalence) {
  std::uint64_t seed = 20140714;  // ICDCS'14
  if (const char* env = std::getenv("BLOT_CHAOS_SEED"))
    seed = std::strtoull(env, nullptr, 10);

  BlotStore store = MakeStore(3);
  std::vector<STRange> queries;
  Rng rng(seed ^ 0x5EED);
  for (int i = 0; i < 4; ++i)
    queries.push_back(SampleQueryInstance(
        {{universe.Width() * 0.2, universe.Height() * 0.2,
          universe.Duration() * 0.2}},
        universe, rng));
  queries.push_back(universe);
  std::vector<std::vector<Record>> truth;
  for (const STRange& q : queries)
    truth.push_back(Sorted(dataset.FilterByRange(q)));

  for (std::size_t victim = 0; victim < store.NumReplicas(); ++victim) {
    FaultPlan plan;
    plan.seed = seed;
    plan.probability = 0.7;
    plan.kinds = {FaultKind::kBitFlip, FaultKind::kTruncate,
                  FaultKind::kTornRead, FaultKind::kReadError};
    plan.replica = store.replica(victim).config().Name();
    RunFaultCampaign(plan, 3, [&](std::size_t round, std::uint64_t) {
      for (std::size_t q = 0; q < queries.size(); ++q) {
        const BlotStore::RoutedResult routed =
            store.Execute(queries[q], model);  // must not throw
        EXPECT_EQ(Sorted(routed.result.records), truth[q])
            << "victim " << victim << " round " << round << " query " << q;
      }
    });
    // Sync repair healed everything the campaign broke.
    EXPECT_EQ(store.health().QuarantinedCount(), 0u) << "victim " << victim;
  }
}

TEST_F(FailoverTest, SurvivesFaultsInAllButOneReplica) {
  BlotStore store = MakeStore(3);
  const STRange query = CentroidQuery(0.3);
  const std::vector<Record> truth = dataset.FilterByRange(query);

  // Destroy R-1 = 2 replicas' copies of everything the query needs; the
  // third replica must serve it byte-identically (replicas the router
  // never attempted may stay corrupt but untouched).
  const std::vector<std::size_t> corrupted0 =
      CorruptInvolved(store, 0, query);
  const std::vector<std::size_t> corrupted1 =
      CorruptInvolved(store, 1, query);
  const BlotStore::RoutedResult routed = store.Execute(query, model);
  EXPECT_EQ(routed.replica_index, 2u);
  EXPECT_EQ(Sorted(routed.result.records), Sorted(truth));

  // Explicit partition-granular repair brings both damaged replicas back
  // (sources with corrupt copies are quarantined and skipped; the clean
  // survivor supplies the payload).
  for (const std::size_t p : corrupted0) store.RecoverPartition(0, p);
  for (const std::size_t p : corrupted1) store.RecoverPartition(1, p);
  store.RepairQuarantined();  // sweep any quarantines repair uncovered
  EXPECT_EQ(store.health().QuarantinedCount(), 0u);
  EXPECT_EQ(Sorted(store.replica(0).Reconstruct().records()),
            Sorted(dataset.records()));
  EXPECT_EQ(Sorted(store.replica(1).Reconstruct().records()),
            Sorted(dataset.records()));
}

}  // namespace
}  // namespace blot
