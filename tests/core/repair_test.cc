// Partition repair from the surviving replicas: a lost unit's records are
// a source's range scan of the unit's range minus what the target's other
// partitions hold there (face ties), accepted only when their count and
// multiset digest match the unit's. Digest-less partitions (manifest
// before version 3), unreadable neighbours and unverifiable sources fall
// back to rebuilding the whole replica (docs/robustness.md).
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "blot/segment_store.h"
#include "common/fixtures.h"
#include "core/store.h"
#include "obs/metrics.h"
#include "testing/generator.h"
#include "testing/oracle.h"
#include "util/bytes.h"
#include "util/rng.h"

namespace blot {
namespace {

namespace fs = std::filesystem;
using test::Sorted;

struct RepairTest : ::testing::Test, test::TaxiFixture {
  CostModel model{EnvironmentModel::LocalHadoop()};
  fs::path dir;

  void SetUp() override {
    auto& registry = obs::MetricsRegistry::global();
    registry.Reset();
    registry.set_enabled(true);
    dir = fs::temp_directory_path() /
          ("blot_repair_test_" +
           std::string(::testing::UnitTest::GetInstance()
                           ->current_test_info()
                           ->name()));
    fs::remove_all(dir);
  }

  void TearDown() override {
    obs::MetricsRegistry::global().set_enabled(false);
    fs::remove_all(dir);
  }

  static std::uint64_t Count(const char* name) {
    return obs::MetricsRegistry::global().GetCounter(name).value();
  }

  // Flips a byte in the middle of the unit (the checksum catches it).
  static void Corrupt(BlotStore& store, std::size_t replica,
                      std::size_t partition) {
    StoredPartition& unit =
        store.mutable_replica(replica).MutablePartition(partition);
    ASSERT_FALSE(unit.data.empty());
    unit.data[unit.data.size() / 2] ^= 0xFF;
  }

  // Corrupts one unit, repairs it and checks that it was repaired on its
  // own: same records as before as a multiset, same digest, no rebuild.
  static void ExpectRepairsAlone(BlotStore& store, std::size_t replica,
                                 std::size_t partition) {
    const std::vector<Record> before =
        store.replica(replica).DecodePartitionRecords(partition);
    const auto digest = store.replica(replica).partition(partition).digest;
    const std::uint64_t rebuilds = Count("repair.full_rebuilds_total");
    const std::uint64_t repaired = Count("repair.partitions_total");
    Corrupt(store, replica, partition);
    EXPECT_EQ(store.RecoverPartition(replica, partition), before.size());
    EXPECT_EQ(Count("repair.full_rebuilds_total"), rebuilds)
        << "replica " << replica << " partition " << partition;
    EXPECT_EQ(Count("repair.partitions_total"), repaired + 1);
    EXPECT_EQ(Sorted(store.replica(replica).DecodePartitionRecords(partition)),
              Sorted(before))
        << "replica " << replica << " partition " << partition;
    EXPECT_EQ(store.replica(replica).partition(partition).digest, digest);
  }
};

// Records exactly on k-d split planes and time-slice boundaries, plus
// duplicates: the neighbours' face records must be subtracted, never
// restored into the lost unit twice.
TEST_F(RepairTest, FaceTiesRepairEveryUnitPerPartition) {
  Rng rng(20140714);
  testing::DatasetProfile profile;
  profile.min_records = 1500;
  profile.max_records = 1500;
  profile.duplicate_fraction = 0.3;
  profile.boundary_fraction = 0.3;
  const STRange universe = testing::DefaultTestUniverse();
  const Dataset data = testing::GenerateDataset(rng, universe, profile);
  BlotStore store(Dataset(data), universe);
  store.AddReplica({{.spatial_partitions = 4, .temporal_partitions = 4},
                    EncodingScheme::FromName("ROW-SNAPPY")});
  store.AddReplica({{.spatial_partitions = 8, .temporal_partitions = 2},
                    EncodingScheme::FromName("COL-GZIP")});

  std::size_t units_with_face_ties = 0;
  for (std::size_t r = 0; r < store.NumReplicas(); ++r) {
    for (std::size_t p = 0; p < store.replica(r).NumPartitions(); ++p) {
      if (store.replica(r).partition(p).data.empty()) continue;
      const std::vector<std::size_t> self = {p};
      ScanOptions others;
      others.exclude_partitions = &self;
      if (!store.replica(r)
               .Execute(store.replica(r).index().Range(p), others)
               .records.empty())
        ++units_with_face_ties;
      ExpectRepairsAlone(store, r, p);
    }
  }
  // The dataset really puts neighbours' records on shared faces.
  EXPECT_GT(units_with_face_ties, 4u);
  EXPECT_EQ(Count("repair.full_rebuilds_total"), 0u);

  const testing::Oracle oracle(data);
  Rng query_rng(7);
  for (const STRange& q :
       testing::GenerateQueries(query_rng, 24, universe, data))
    for (std::size_t r = 0; r < store.NumReplicas(); ++r)
      EXPECT_EQ(Sorted(store.replica(r).Execute(q).records),
                Sorted(oracle.RangeQuery(q)));
}

// Two records equal but for the sign of a zero coordinate, one on each
// side of the face x = 0. They are equal under operator==, and the
// columnar source stores both zeros as +0.0, so the digest must not tell
// them apart for the unit to repair from that source.
TEST_F(RepairTest, SignedZeroTwinsOnAFaceRepairAlone) {
  const STRange box = STRange::FromBounds(-1, 1, -1, 1, 0, 100);
  Dataset twins;
  Record r;
  r.time = 50;
  r.y = 0.25;
  for (const double x : {-0.5, -0.5, -0.5, 0.0, -0.0, 0.5, 0.5, 0.5}) {
    r.x = x;
    twins.Append(r);
  }
  BlotStore store(Dataset(twins), box);
  store.AddReplica({{.spatial_partitions = 2, .temporal_partitions = 1},
                    EncodingScheme::FromName("ROW-SNAPPY")});
  store.AddReplica({{.spatial_partitions = 1, .temporal_partitions = 1},
                    EncodingScheme::FromName("COL-GZIP")});
  // The median split puts one twin on each side of the face.
  ASSERT_EQ(store.replica(0).index().Range(0).x_max(), 0.0);
  ASSERT_EQ(store.replica(0).partition(0).num_records, 4u);
  ExpectRepairsAlone(store, 0, 0);
  ExpectRepairsAlone(store, 0, 1);
  EXPECT_EQ(Count("repair.full_rebuilds_total"), 0u);
}

TEST_F(RepairTest, AdjacentCorruptUnitsHealThroughWholeReplicaFallback) {
  BlotStore store = test::MakeStandardStore(dataset, universe);
  FailoverPolicy policy;
  policy.repair = RepairMode::kNone;  // the sweep below repairs
  store.SetFailoverPolicy(policy);
  const std::size_t victim = store.RouteQuery(universe, model);
  // Partitions 0 and 1 are consecutive time slices of the first spatial
  // cell: partition 1's first record sits on partition 0's upper face, so
  // repairing 0 must read 1.
  const Replica& rep = store.replica(victim);
  ASSERT_EQ(rep.index().Range(0).t_max(), rep.index().Range(1).t_min());
  ASSERT_TRUE(rep.partition(1).has_zone);
  ASSERT_TRUE(rep.index().Range(0).Intersects(rep.partition(1).zone));
  Corrupt(store, victim, 0);
  Corrupt(store, victim, 1);

  const BlotStore::RoutedResult routed = store.Execute(universe, model);
  EXPECT_TRUE(routed.degraded);
  ASSERT_EQ(store.health().QuarantinedCount(), 2u);

  // Both quarantined units return to ok, and both are counted.
  EXPECT_EQ(store.RepairQuarantined(), 2u);
  EXPECT_EQ(Count("repair.full_rebuilds_total"), 1u);
  EXPECT_EQ(store.health().QuarantinedCount(), 0u);
  EXPECT_EQ(Sorted(store.replica(victim).Reconstruct().records()),
            Sorted(dataset.records()));
  const testing::Oracle oracle(dataset);
  for (const double fraction : {0.1, 0.3, 1.0}) {
    const STRange q = test::CentroidQuery(universe, fraction);
    EXPECT_EQ(Sorted(store.Execute(q, model).result.records),
              Sorted(oracle.RangeQuery(q)));
    EXPECT_EQ(Sorted(store.replica(victim).Execute(q).records),
              Sorted(oracle.RangeQuery(q)));
  }
}

// Alters `victim`'s fare in `source`'s copy and re-encodes that unit
// under its own scheme with a fresh checksum, so only a digest can tell.
// Returns false when `source` does not hold `victim`.
bool AlterRecord(Replica& source, const Record& victim) {
  for (std::size_t q = 0; q < source.NumPartitions(); ++q) {
    std::vector<Record> records = source.DecodePartitionRecords(q);
    const auto it = std::find(records.begin(), records.end(), victim);
    if (it == records.end()) continue;
    it->fare_cents += 1;
    StoredPartition& unit = source.MutablePartition(q);
    unit.data = EncodePartition(
        records, {source.config().encoding.layout, unit.codec}, unit.format);
    unit.checksum = Fnv1a64(unit.data);
    return true;
  }
  return false;
}

// The tampered first source is skipped for the next one, and the altered
// record never reaches the repaired unit.
TEST_F(RepairTest, TamperedSourceIsRejectedByTheDigest) {
  BlotStore store = test::MakeStandardStore(dataset, universe, 3);
  const std::size_t target = 2, tampered = 0;
  const std::size_t p = 5;
  const std::vector<Record> before =
      store.replica(target).DecodePartitionRecords(p);
  ASSERT_FALSE(before.empty());
  ASSERT_TRUE(
      AlterRecord(store.mutable_replica(tampered), before[before.size() / 2]));

  Corrupt(store, target, p);
  EXPECT_EQ(store.RecoverPartition(target, p), before.size());
  EXPECT_EQ(Count("repair.full_rebuilds_total"), 0u);
  EXPECT_EQ(Count("repair.partitions_total"), 1u);
  EXPECT_EQ(Sorted(store.replica(target).DecodePartitionRecords(p)),
            Sorted(before));
}

// With no source that verifies, the whole-replica fallback checks each
// source's records against the sum of the target's partition digests, so
// a tampered source cannot overwrite the rest of the replica either.
TEST_F(RepairTest, WholeReplicaFallbackRejectsASourceThatContradictsTheDigests) {
  BlotStore store = test::MakeStandardStore(dataset, universe);
  const std::size_t target = 1, p = 5;
  const std::vector<Record> before =
      store.replica(target).DecodePartitionRecords(p);
  ASSERT_FALSE(before.empty());
  ASSERT_TRUE(AlterRecord(store.mutable_replica(0), before[before.size() / 2]));
  const std::uint64_t identity = store.replica(target).cache_id();

  Corrupt(store, target, p);
  EXPECT_THROW(store.RecoverPartition(target, p), CorruptData);
  EXPECT_EQ(Count("repair.full_rebuilds_total"), 1u);
  EXPECT_EQ(Count("repair.partitions_total"), 0u);
  // Not rebuilt (a rebuild takes a fresh cache identity): the unit stays
  // unreadable rather than taking the altered record.
  EXPECT_EQ(store.replica(target).cache_id(), identity);
  EXPECT_THROW(store.replica(target).DecodePartitionRecords(p), CorruptData);
}

TEST_F(RepairTest, ReplicaRestoredFromAnotherReplicaRepairsPerPartition) {
  BlotStore store = test::MakeStandardStore(dataset, universe);
  // Rebuilt from replica 0's record order, not the dataset's.
  store.RecoverReplicaFrom(1, 0);
  for (const std::size_t p : {0u, 7u, 42u, 127u})
    ExpectRepairsAlone(store, 1, p);
  EXPECT_EQ(Count("repair.full_rebuilds_total"), 0u);
}

TEST_F(RepairTest, PartialReplicaRepairsPerPartition) {
  BlotStore store = test::MakeStandardStore(dataset, universe);
  const std::size_t partial = store.AddPartialReplica(
      {{.spatial_partitions = 4, .temporal_partitions = 2},
       EncodingScheme::FromName("COL-SNAPPY")},
      test::CentroidQuery(universe, 0.5));
  for (std::size_t p = 0; p < store.replica(partial).NumPartitions(); ++p)
    if (!store.replica(partial).partition(p).data.empty())
      ExpectRepairsAlone(store, partial, p);
  EXPECT_EQ(Count("repair.full_rebuilds_total"), 0u);
}

TEST_F(RepairTest, ManifestV3RoundTripsTheDigest) {
  const Replica original = Replica::Build(
      dataset,
      {{.spatial_partitions = 4, .temporal_partitions = 4},
       EncodingScheme::FromName("COL-GZIP")},
      universe);
  SegmentStore::Save(original, dir);
  {
    std::ifstream in(dir / "manifest.blot", std::ios::binary);
    char header[12];
    ASSERT_TRUE(in.read(header, sizeof(header)));
    EXPECT_EQ(header[8], 3);  // the version follows the 8-byte magic
  }
  const Replica loaded = SegmentStore::Load(dir);
  for (std::size_t p = 0; p < loaded.NumPartitions(); ++p) {
    ASSERT_TRUE(loaded.partition(p).digest.has_value());
    EXPECT_EQ(loaded.partition(p).digest, original.partition(p).digest);
    EXPECT_EQ(*loaded.partition(p).digest,
              MultisetDigest(loaded.DecodePartitionRecords(p)));
  }
}

// Rewrites a saved replica's manifest in the version-2 shape: version 3
// minus the per-partition digest fields.
void WriteVersion2Manifest(const fs::path& replica_dir) {
  const Replica replica = SegmentStore::Load(replica_dir);
  const auto put_range = [](ByteWriter& w, const STRange& r) {
    for (const double v : {r.x_min(), r.x_max(), r.y_min(), r.y_max(),
                           r.t_min(), r.t_max()})
      w.PutF64(v);
  };
  ByteWriter manifest;
  manifest.PutU64(0x31474553544F4C42ull);  // "BLOTSEG1"
  manifest.PutU32(2);
  manifest.PutString(replica.config().encoding.Name());
  manifest.PutU8(0);  // uniform policy
  manifest.PutString(SpatialMethodName(replica.config().partitioning.method));
  manifest.PutVarint(replica.config().partitioning.spatial_partitions);
  manifest.PutVarint(replica.config().partitioning.temporal_partitions);
  put_range(manifest, replica.universe());
  manifest.PutVarint(replica.NumPartitions());
  std::uint64_t offset = 0;
  for (std::size_t p = 0; p < replica.NumPartitions(); ++p) {
    const StoredPartition& stored = replica.partition(p);
    put_range(manifest, replica.index().Range(p));
    manifest.PutVarint(stored.num_records);
    manifest.PutVarint(offset);
    manifest.PutVarint(stored.data.size());
    manifest.PutU64(stored.checksum);
    manifest.PutString(std::string(CodecKindName(stored.codec)));
    manifest.PutU8(static_cast<std::uint8_t>(stored.format));
    manifest.PutU8(stored.has_zone ? 1 : 0);
    if (stored.has_zone) put_range(manifest, stored.zone);
    offset += stored.data.size();
  }
  manifest.PutU64(Fnv1a64(manifest.buffer()));
  std::ofstream out(replica_dir / "manifest.blot",
                    std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(manifest.buffer().data()),
            static_cast<std::streamsize>(manifest.size()));
}

TEST_F(RepairTest, HandWrittenV2DirectoryLoadsAndRepairsByFallback) {
  test::MakeStandardStore(dataset, universe).Save(dir);
  WriteVersion2Manifest(dir / "replica_000");
  WriteVersion2Manifest(dir / "replica_001");
  BlotStore store = BlotStore::Load(dir);
  for (std::size_t r = 0; r < store.NumReplicas(); ++r)
    for (std::size_t p = 0; p < store.replica(r).NumPartitions(); ++p)
      ASSERT_FALSE(store.replica(r).partition(p).digest.has_value());

  // Without a digest the unit cannot be verified alone: the whole replica
  // is rebuilt, and the rebuild carries digests from then on.
  const std::vector<Record> before = store.replica(0).DecodePartitionRecords(3);
  Corrupt(store, 0, 3);
  EXPECT_EQ(store.RecoverPartition(0, 3), dataset.size());
  EXPECT_EQ(Count("repair.full_rebuilds_total"), 1u);
  EXPECT_EQ(Sorted(store.replica(0).DecodePartitionRecords(3)),
            Sorted(before));
  EXPECT_EQ(Sorted(store.replica(0).Reconstruct().records()),
            Sorted(dataset.records()));
  ExpectRepairsAlone(store, 0, 3);
  EXPECT_EQ(Count("repair.full_rebuilds_total"), 1u);
}

}  // namespace
}  // namespace blot
