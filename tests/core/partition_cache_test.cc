#include "core/partition_cache.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <set>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "blot/replica.h"
#include "common/fixtures.h"
#include "core/cost_model.h"
#include "core/store.h"
#include "core/workload.h"
#include "simenv/environment.h"
#include "testing/oracle.h"
#include "util/error.h"
#include "util/rng.h"

namespace blot {
namespace {

using test::GlobalCacheGuard;
using test::Sorted;
using Fixture = test::TaxiFixture;

std::vector<Record> MakeRecords(std::size_t n, std::uint32_t oid) {
  std::vector<Record> records(n);
  for (std::size_t i = 0; i < n; ++i) {
    records[i].oid = oid;
    records[i].time = static_cast<std::int64_t>(i);
    records[i].x = 0.1 * static_cast<double>(i);
    records[i].y = 0.2 * static_cast<double>(i);
  }
  return records;
}

TEST(PartitionCacheTest, DisabledByDefaultAndInert) {
  PartitionCache& cache = PartitionCache::Global();
  EXPECT_FALSE(cache.enabled());
  EXPECT_EQ(cache.Lookup(1, 0), nullptr);
  // Insert still hands back the (pinned) records but retains nothing.
  const auto pinned = cache.Insert(1, 0, MakeRecords(10, 7));
  ASSERT_NE(pinned, nullptr);
  EXPECT_EQ(pinned->size(), 10u);
  EXPECT_EQ(cache.stats().entries, 0u);
  EXPECT_EQ(cache.stats().bytes, 0u);
}

TEST(PartitionCacheTest, HitMissSemantics) {
  PartitionCache cache(1 << 20, 1);
  EXPECT_EQ(cache.Lookup(1, 0), nullptr);
  cache.Insert(1, 0, MakeRecords(10, 1));
  const auto hit = cache.Lookup(1, 0);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->size(), 10u);
  EXPECT_EQ((*hit)[3].oid, 1u);
  // Same partition of a different replica is a different key.
  EXPECT_EQ(cache.Lookup(2, 0), nullptr);

  const PartitionCache::Stats s = cache.stats();
  EXPECT_EQ(s.hits, 1u);
  EXPECT_EQ(s.misses, 2u);
  EXPECT_EQ(s.insertions, 1u);
  EXPECT_EQ(s.entries, 1u);
  EXPECT_EQ(s.bytes, PartitionCache::EntryBytes(*hit));
  EXPECT_NEAR(s.HitRatio(), 1.0 / 3.0, 1e-12);
}

TEST(PartitionCacheTest, ByteBudgetEvictsLeastRecentlyUsed) {
  const std::uint64_t entry_bytes =
      PartitionCache::EntryBytes(MakeRecords(100, 0));
  // Room for three entries in the single shard.
  PartitionCache cache(3 * entry_bytes, 1);
  cache.Insert(1, 0, MakeRecords(100, 0));
  cache.Insert(1, 1, MakeRecords(100, 1));
  cache.Insert(1, 2, MakeRecords(100, 2));
  EXPECT_EQ(cache.stats().entries, 3u);

  // Touch partition 0 so partition 1 is now the least recently used.
  ASSERT_NE(cache.Lookup(1, 0), nullptr);
  cache.Insert(1, 3, MakeRecords(100, 3));

  EXPECT_EQ(cache.stats().entries, 3u);
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_LE(cache.stats().bytes, 3 * entry_bytes);
  EXPECT_EQ(cache.Lookup(1, 1), nullptr);  // the LRU victim
  EXPECT_NE(cache.Lookup(1, 0), nullptr);
  EXPECT_NE(cache.Lookup(1, 2), nullptr);
  EXPECT_NE(cache.Lookup(1, 3), nullptr);
}

TEST(PartitionCacheTest, OversizeEntryIsNotCached) {
  PartitionCache cache(PartitionCache::EntryBytes(MakeRecords(10, 0)), 1);
  const auto pinned = cache.Insert(1, 0, MakeRecords(10000, 0));
  ASSERT_NE(pinned, nullptr);  // caller still gets the records
  EXPECT_EQ(pinned->size(), 10000u);
  EXPECT_EQ(cache.stats().entries, 0u);
  EXPECT_EQ(cache.Lookup(1, 0), nullptr);
}

TEST(PartitionCacheTest, PinnedEntrySurvivesEviction) {
  const std::uint64_t entry_bytes =
      PartitionCache::EntryBytes(MakeRecords(100, 0));
  PartitionCache cache(entry_bytes, 1);  // exactly one entry fits
  cache.Insert(1, 0, MakeRecords(100, 42));
  const auto pinned = cache.Lookup(1, 0);
  ASSERT_NE(pinned, nullptr);

  // Displace it while we hold the pin.
  cache.Insert(1, 1, MakeRecords(100, 43));
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_EQ(cache.Lookup(1, 0), nullptr);

  // The pinned snapshot is untouched by the eviction.
  EXPECT_EQ(pinned->size(), 100u);
  EXPECT_EQ(pinned->front().oid, 42u);
  EXPECT_EQ(pinned->back().time, 99);
}

TEST(PartitionCacheTest, InsertRaceKeepsResidentEntry) {
  PartitionCache cache(1 << 20, 1);
  const auto first = cache.Insert(1, 0, MakeRecords(10, 1));
  // A second decode of the same partition loses to the resident entry.
  const auto second = cache.Insert(1, 0, MakeRecords(10, 1));
  EXPECT_EQ(first.get(), second.get());
  EXPECT_EQ(cache.stats().entries, 1u);
  EXPECT_EQ(cache.stats().insertions, 1u);
}

TEST(PartitionCacheTest, InvalidateAndConfigure) {
  PartitionCache cache(1 << 20, 4);
  for (std::size_t p = 0; p < 8; ++p)
    cache.Insert(7, p, MakeRecords(50, static_cast<std::uint32_t>(p)));
  EXPECT_EQ(cache.stats().entries, 8u);

  cache.Invalidate(7, 3);
  EXPECT_EQ(cache.Lookup(7, 3), nullptr);
  EXPECT_EQ(cache.stats().entries, 7u);
  EXPECT_EQ(cache.stats().invalidations, 1u);

  cache.InvalidateReplica(7, 8);
  EXPECT_EQ(cache.stats().entries, 0u);
  EXPECT_EQ(cache.stats().bytes, 0u);

  for (std::size_t p = 0; p < 8; ++p)
    cache.Insert(7, p, MakeRecords(50, static_cast<std::uint32_t>(p)));
  cache.Configure(0);  // shrink to disabled: everything evicted
  EXPECT_FALSE(cache.enabled());
  EXPECT_EQ(cache.stats().entries, 0u);
  EXPECT_EQ(cache.stats().bytes, 0u);
}

TEST(PartitionCacheIntegrationTest, CachedExecutionMatchesUncached) {
  const Fixture f;
  const Replica replica = Replica::Build(
      f.dataset,
      {{.spatial_partitions = 16, .temporal_partitions = 8},
       EncodingScheme::FromName("COL-GZIP")},
      f.universe);
  Rng rng(3);
  std::vector<STRange> queries;
  for (int i = 0; i < 12; ++i)
    queries.push_back(SampleQueryInstance(
        {{f.universe.Width() * 0.2, f.universe.Height() * 0.2,
          f.universe.Duration() * 0.3}},
        f.universe, rng));

  std::vector<std::vector<Record>> uncached;
  for (const STRange& q : queries)
    uncached.push_back(Sorted(replica.Execute(q).records));

  GlobalCacheGuard guard(64 << 20);
  for (int pass = 0; pass < 2; ++pass) {
    for (std::size_t i = 0; i < queries.size(); ++i) {
      const QueryResult result = replica.Execute(queries[i]);
      EXPECT_EQ(Sorted(result.records), uncached[i])
          << "pass " << pass << " query " << i;
      EXPECT_EQ(result.stats.cache_hits + result.stats.cache_misses,
                result.stats.partitions_scanned);
    }
  }
  const PartitionCache::Stats s = PartitionCache::Global().stats();
  EXPECT_GT(s.hits, 0u);   // the second pass must hit
  EXPECT_GT(s.misses, 0u);  // the first pass must miss
}

// The store has one read path; with the cache on, a grid of overlapping
// queries routed through it decodes each involved partition once, and
// every later touch of that partition is a hit.
TEST(PartitionCacheIntegrationTest,
     OverlappingQueriesDecodeEachPartitionOnce) {
  const Fixture f;
  BlotStore store = test::MakeStandardStore(f.dataset, f.universe);
  const CostModel model{EnvironmentModel::LocalHadoop()};
  const testing::Oracle oracle(f.dataset);
  // 3x3 windows, each half the universe wide and tall over the middle
  // half of its duration, stepping by a quarter: neighbours overlap.
  const STRange& u = f.universe;
  std::vector<STRange> queries;
  for (int gx = 0; gx < 3; ++gx)
    for (int gy = 0; gy < 3; ++gy)
      queries.push_back(STRange::FromBounds(
          u.x_min() + u.Width() * gx / 4, u.x_min() + u.Width() * (gx + 2) / 4,
          u.y_min() + u.Height() * gy / 4,
          u.y_min() + u.Height() * (gy + 2) / 4,
          u.t_min() + u.Duration() / 4, u.t_min() + u.Duration() * 3 / 4));

  GlobalCacheGuard guard(64 << 20);
  std::set<std::pair<std::size_t, std::size_t>> distinct;
  std::uint64_t scanned = 0, hits = 0, misses = 0;
  for (const STRange& query : queries) {
    const BlotStore::RoutedResult routed = store.Execute(query, model);
    EXPECT_EQ(Sorted(routed.result.records), Sorted(oracle.RangeQuery(query)));
    // What this query scans: the index's partitions whose stored zone
    // meets the query.
    const Replica& replica = store.replica(routed.replica_index);
    std::size_t involved = 0;
    for (const std::size_t p : replica.index().InvolvedPartitions(query)) {
      const StoredPartition& unit = replica.partition(p);
      if (unit.has_zone && !query.Intersects(unit.zone)) continue;
      distinct.emplace(routed.replica_index, p);
      ++involved;
    }
    EXPECT_EQ(routed.result.stats.partitions_scanned, involved);
    scanned += routed.result.stats.partitions_scanned;
    hits += routed.result.stats.cache_hits;
    misses += routed.result.stats.cache_misses;
  }
  EXPECT_GT(scanned, distinct.size());  // the queries share partitions
  EXPECT_EQ(misses, distinct.size());
  EXPECT_EQ(hits, scanned - distinct.size());
  EXPECT_EQ(PartitionCache::Global().stats().misses, distinct.size());
}

TEST(PartitionCacheIntegrationTest, CorruptionAfterCachingIsDetected) {
  const Fixture f;
  GlobalCacheGuard guard(64 << 20);
  Replica replica = Replica::Build(
      f.dataset,
      {{.spatial_partitions = 4, .temporal_partitions = 4},
       EncodingScheme::FromName("ROW-GZIP")},
      f.universe);
  // Populate the cache with every partition.
  const QueryResult all = replica.Execute(f.universe);
  EXPECT_EQ(all.records.size(), f.dataset.size());
  EXPECT_GT(PartitionCache::Global().stats().entries, 0u);

  // Corrupt one stored partition. MutablePartition must both invalidate
  // the cached decode (else the stale entry would mask the damage) and
  // re-arm checksum verification (else the read would trust the bytes).
  StoredPartition& victim = replica.MutablePartition(5);
  ASSERT_FALSE(victim.data.empty());
  victim.data[victim.data.size() / 2] ^= 0xFF;
  EXPECT_THROW(replica.Execute(f.universe), CorruptData);
}

TEST(PartitionCacheIntegrationTest, RecoveryRestoresCachedQueries) {
  const Fixture f;
  GlobalCacheGuard guard(64 << 20);
  Replica replica = Replica::Build(
      f.dataset,
      {{.spatial_partitions = 4, .temporal_partitions = 4},
       EncodingScheme::FromName("COL-SNAPPY")},
      f.universe);
  const Replica healthy = Replica::Build(
      f.dataset,
      {{.spatial_partitions = 8, .temporal_partitions = 2},
       EncodingScheme::FromName("ROW-PLAIN")},
      f.universe);
  replica.Execute(f.universe);  // warm the cache
  StoredPartition& victim = replica.MutablePartition(2);
  victim.data.clear();
  victim.checksum = 0;
  EXPECT_THROW(replica.Execute(f.universe), Error);

  replica = RecoverReplica(healthy, replica.config());
  EXPECT_EQ(Sorted(replica.Execute(f.universe).records),
            Sorted(f.dataset.records()));
}

// Many threads hammering overlapping hot partitions through a cache too
// small to hold them all: lookups, inserts, evictions and pin-handoffs
// race while results must stay exact. Run under TSan in CI.
TEST(PartitionCacheConcurrencyTest, ParallelQueriesStayCorrect) {
  const Fixture f(8, 250);
  const Replica replica = Replica::Build(
      f.dataset,
      {{.spatial_partitions = 8, .temporal_partitions = 4},
       EncodingScheme::FromName("COL-GZIP")},
      f.universe);
  // Budget chosen so each of the 16 shards holds ~1.5 entries: with 32
  // partitions, pigeonhole puts >= 2 keys in some shard, guaranteeing
  // evictions once every partition has been decoded.
  const std::uint64_t budget =
      PartitionCache::EntryBytes(replica.DecodePartitionRecords(0)) * 24;
  GlobalCacheGuard guard(budget);

  Rng rng(29);
  std::vector<STRange> queries;
  std::vector<std::vector<Record>> expected;
  for (int i = 0; i < 16; ++i) {
    queries.push_back(SampleQueryInstance(
        {{f.universe.Width() * 0.4, f.universe.Height() * 0.4,
          f.universe.Duration() * 0.4}},
        f.universe, rng));
    expected.push_back(Sorted(f.dataset.FilterByRange(queries.back())));
  }

  std::atomic<int> mismatches{0};
  const auto worker = [&](unsigned seed) {
    Rng thread_rng(seed);
    for (int iter = 0; iter < 40; ++iter) {
      const std::size_t i = thread_rng.NextUint64(queries.size());
      const QueryResult result = replica.Execute(queries[i]);
      if (Sorted(result.records) != expected[i]) mismatches.fetch_add(1);
    }
  };
  std::vector<std::thread> threads;
  for (unsigned t = 0; t < 6; ++t) threads.emplace_back(worker, 100 + t);
  // Meanwhile, ThreadPool-parallel executions share the same cache.
  ThreadPool pool(4);
  for (int iter = 0; iter < 10; ++iter) {
    const QueryResult result = replica.Execute(queries[iter % 16], &pool);
    EXPECT_EQ(Sorted(result.records), expected[iter % 16]);
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(mismatches.load(), 0);
  // Touch every partition, then the tight budget must have evicted.
  replica.Execute(f.universe);
  EXPECT_GT(PartitionCache::Global().stats().evictions, 0u);
}

}  // namespace
}  // namespace blot
