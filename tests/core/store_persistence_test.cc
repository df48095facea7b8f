// Store persistence: a saved store is its manifest plus its replicas and
// nothing else, a loaded store builds new replicas and recovers from its
// replicas alone, and version-2 store directories (which also carried a
// dataset.bin copy of every record) still load whatever that file holds.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>

#include "common/fixtures.h"
#include "core/partial.h"
#include "core/store.h"
#include "gen/taxi_generator.h"
#include "testing/oracle.h"
#include "util/bytes.h"
#include "util/error.h"
#include "util/rng.h"

namespace blot {
namespace {

namespace fs = std::filesystem;
using test::Sorted;

class StorePersistenceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("blot_store_persist_" +
            std::string(::testing::UnitTest::GetInstance()
                            ->current_test_info()
                            ->name()));
    fs::remove_all(dir_);
    TaxiFleetConfig config;
    config.num_taxis = 8;
    config.samples_per_taxi = 250;
    dataset_ = GenerateTaxiFleet(config);
    universe_ = config.Universe();
  }

  void TearDown() override { fs::remove_all(dir_); }

  // Every query answers exactly as the oracle over the built dataset.
  void ExpectOracleAnswers(BlotStore& store) const {
    const testing::Oracle oracle(dataset_);
    const CostModel model{EnvironmentModel::LocalHadoop()};
    Rng rng(17);
    std::vector<STRange> queries = {universe_};
    for (int i = 0; i < 8; ++i)
      queries.push_back(SampleQueryInstance(
          {{universe_.Width() * 0.3, universe_.Height() * 0.3,
            universe_.Duration() * 0.3}},
          universe_, rng));
    for (const STRange& query : queries)
      EXPECT_EQ(Sorted(store.Execute(query, model).result.records),
                Sorted(oracle.RangeQuery(query)));
  }

  // Every regular file under the directory, relative to it.
  std::set<std::string> Files() const {
    std::set<std::string> files;
    for (const auto& entry : fs::recursive_directory_iterator(dir_))
      if (entry.is_regular_file())
        files.insert(fs::relative(entry.path(), dir_).generic_string());
    return files;
  }

  // Rewrites the saved store in the version-2 shape: its manifest also
  // carries a dataset checksum, and `dataset` (when given) is written to
  // dataset.bin.
  void WriteVersion2Store(std::size_t replicas,
                          const std::string* dataset) const {
    const STRange& u = universe_;
    ByteWriter manifest;
    manifest.PutU64(0x325252544F4C42ull);  // "BLOTRR2"
    for (const double v :
         {u.x_min(), u.x_max(), u.y_min(), u.y_max(), u.t_min(), u.t_max()})
      manifest.PutF64(v);
    manifest.PutVarint(replicas);
    manifest.PutU64(0x0123456789ABCDEFull);  // checksum of dataset.bin
    manifest.PutU64(Fnv1a64(manifest.buffer()));
    std::ofstream out(dir_ / "store.blot", std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char*>(manifest.buffer().data()),
              static_cast<std::streamsize>(manifest.size()));
    if (dataset != nullptr) {
      std::ofstream data(dir_ / "dataset.bin",
                         std::ios::binary | std::ios::trunc);
      data << *dataset;
    }
  }

  static std::set<std::string> TwoReplicaFiles() {
    return {"store.blot", "replica_000/manifest.blot",
            "replica_000/segments.dat", "replica_001/manifest.blot",
            "replica_001/segments.dat"};
  }

  BlotStore TwoReplicaStore() const {
    BlotStore store(dataset_, universe_);
    store.AddReplica({{.spatial_partitions = 4, .temporal_partitions = 4},
                      EncodingScheme::FromName("ROW-SNAPPY")});
    store.AddReplica({{.spatial_partitions = 16, .temporal_partitions = 8},
                      EncodingScheme::FromName("COL-LZMA")});
    return store;
  }

  fs::path dir_;
  Dataset dataset_;
  STRange universe_;
};

TEST_F(StorePersistenceTest, SaveLoadRoundTripsReplicasAndDataset) {
  BlotStore store = TwoReplicaStore();
  store.Save(dir_);

  BlotStore loaded = BlotStore::Load(dir_);
  EXPECT_EQ(loaded.universe(), store.universe());
  ASSERT_EQ(loaded.NumReplicas(), 2u);
  for (std::size_t i = 0; i < 2; ++i) {
    EXPECT_EQ(loaded.replica(i).config(), store.replica(i).config());
    EXPECT_EQ(loaded.replica(i).StorageBytes(),
              store.replica(i).StorageBytes());
    // The replicas are the dataset: each holds every record.
    EXPECT_EQ(Sorted(loaded.replica(i).Reconstruct().records()),
              Sorted(dataset_.records()));
  }
  ExpectOracleAnswers(loaded);
}

TEST_F(StorePersistenceTest, PartialReplicasSurviveRoundTrip) {
  BlotStore store(dataset_, universe_);
  store.AddReplica({{.spatial_partitions = 4, .temporal_partitions = 4},
                    EncodingScheme::FromName("ROW-GZIP")});
  const STRange hotspot = DensestSpatialBox(dataset_, universe_, 0.5);
  store.AddPartialReplica(
      {{.spatial_partitions = 8, .temporal_partitions = 4},
       EncodingScheme::FromName("COL-GZIP")},
      hotspot);
  store.Save(dir_);

  BlotStore loaded = BlotStore::Load(dir_);
  ASSERT_EQ(loaded.NumReplicas(), 2u);
  EXPECT_TRUE(loaded.IsFullReplica(0));
  EXPECT_FALSE(loaded.IsFullReplica(1));
  EXPECT_EQ(loaded.replica(1).universe(), hotspot);
  EXPECT_EQ(loaded.replica(1).NumRecords(),
            dataset_.FilterByRange(hotspot).size());
}

TEST_F(StorePersistenceTest, SaveOverwritesPreviousStore) {
  BlotStore store(dataset_, universe_);
  store.AddReplica({{.spatial_partitions = 4, .temporal_partitions = 4},
                    EncodingScheme::FromName("ROW-PLAIN")});
  store.Save(dir_);
  store.AddReplica({{.spatial_partitions = 8, .temporal_partitions = 4},
                    EncodingScheme::FromName("ROW-GZIP")});
  store.Save(dir_);
  EXPECT_EQ(BlotStore::Load(dir_).NumReplicas(), 2u);
}

TEST_F(StorePersistenceTest, SavedDirectoryHoldsOnlyTheReplicas) {
  const BlotStore store = TwoReplicaStore();
  store.Save(dir_);
  EXPECT_EQ(Files(), TwoReplicaFiles());
  std::uint64_t segment_bytes = 0;
  for (const char* replica : {"replica_000", "replica_001"})
    segment_bytes += fs::file_size(dir_ / replica / "segments.dat");
  EXPECT_EQ(segment_bytes, store.TotalStorageBytes());
  EXPECT_EQ(BlotStore::Load(dir_).TotalStorageBytes(),
            store.TotalStorageBytes());
}

TEST_F(StorePersistenceTest, SavingFewerReplicasRemovesTheRest) {
  BlotStore three = TwoReplicaStore();
  three.AddReplica({{.spatial_partitions = 8, .temporal_partitions = 2},
                    EncodingScheme::FromName("ROW-GZIP")});
  three.Save(dir_);
  ASSERT_TRUE(fs::exists(dir_ / "replica_002"));
  TwoReplicaStore().Save(dir_);
  EXPECT_EQ(Files(), TwoReplicaFiles());
  BlotStore loaded = BlotStore::Load(dir_);
  EXPECT_EQ(loaded.NumReplicas(), 2u);
  ExpectOracleAnswers(loaded);
}

TEST_F(StorePersistenceTest, SavingOverAVersion2StoreRemovesItsDataset) {
  TwoReplicaStore().Save(dir_);
  const std::string bytes(4096, 'x');
  WriteVersion2Store(2, &bytes);
  ASSERT_TRUE(fs::exists(dir_ / "dataset.bin"));
  BlotStore::Load(dir_).Save(dir_);
  EXPECT_EQ(Files(), TwoReplicaFiles());
  BlotStore loaded = BlotStore::Load(dir_);
  ExpectOracleAnswers(loaded);
}

TEST_F(StorePersistenceTest, Version2StoreLoadsWhateverItsDatasetHolds) {
  TwoReplicaStore().Save(dir_);
  const std::string garbage(1000, '\xff');
  std::string real;
  {
    std::ostringstream out;
    dataset_.WriteBinary(out);
    real = out.str();
  }
  // Present (readable, but no longer checked), garbage, and missing.
  const std::vector<const std::string*> variants = {&real, &garbage,
                                                    nullptr};
  for (const std::string* dataset : variants) {
    SCOPED_TRACE(dataset == nullptr   ? "missing"
                 : dataset == &real ? "present"
                                    : "garbage");
    fs::remove(dir_ / "dataset.bin");
    WriteVersion2Store(2, dataset);
    BlotStore loaded = BlotStore::Load(dir_);
    ASSERT_EQ(loaded.NumReplicas(), 2u);
    ExpectOracleAnswers(loaded);
    // Recovery needs nothing but the replicas.
    EXPECT_EQ(loaded.RecoverReplicaFrom(1, 0), dataset_.size());
    ExpectOracleAnswers(loaded);
  }
}

TEST_F(StorePersistenceTest, LoadedStoreBuildsNewReplicasFromItsReplicas) {
  TwoReplicaStore().Save(dir_);
  BlotStore loaded = BlotStore::Load(dir_);
  const std::size_t full = loaded.AddReplica(
      {{.spatial_partitions = 8, .temporal_partitions = 2},
       EncodingScheme::FromName("ROW-GZIP")});
  const STRange hotspot = DensestSpatialBox(dataset_, universe_, 0.5);
  const std::size_t partial = loaded.AddPartialReplica(
      {{.spatial_partitions = 4, .temporal_partitions = 4},
       EncodingScheme::FromName("COL-SNAPPY")},
      hotspot);
  EXPECT_EQ(Sorted(loaded.replica(full).Reconstruct().records()),
            Sorted(dataset_.records()));
  EXPECT_EQ(Sorted(loaded.replica(partial).Reconstruct().records()),
            Sorted(dataset_.FilterByRange(hotspot)));
  EXPECT_THROW(loaded.AddReplica(loaded.replica(full).config()),
               InvalidArgument);
  // Loaded replicas are not in the latency map, so neither are the new
  // ones: a replica's latency cell is always its own.
  EXPECT_EQ(loaded.latency().NumReplicas(), 0u);
  ExpectOracleAnswers(loaded);
  // The hotspot query is served by a covering replica, the partial one
  // included, and still answers exactly.
  const CostModel model{EnvironmentModel::LocalHadoop()};
  EXPECT_EQ(Sorted(loaded.Execute(hotspot, model).result.records),
            Sorted(dataset_.FilterByRange(hotspot)));
}

TEST_F(StorePersistenceTest, LoadedStoreBuildsFromAReadableReplica) {
  TwoReplicaStore().Save(dir_);
  BlotStore loaded = BlotStore::Load(dir_);
  // Replica 0 cannot be decoded; the new replica comes from replica 1.
  for (std::size_t p = 0; p < loaded.replica(0).NumPartitions(); ++p) {
    StoredPartition& unit = loaded.mutable_replica(0).MutablePartition(p);
    if (!unit.data.empty()) unit.data[unit.data.size() / 2] ^= 0x5A;
  }
  const std::size_t added = loaded.AddReplica(
      {{.spatial_partitions = 8, .temporal_partitions = 2},
       EncodingScheme::FromName("ROW-GZIP")});
  EXPECT_EQ(Sorted(loaded.replica(added).Reconstruct().records()),
            Sorted(dataset_.records()));
}

TEST_F(StorePersistenceTest, MissingStoreThrows) {
  EXPECT_THROW(BlotStore::Load(dir_), InvalidArgument);
}

TEST_F(StorePersistenceTest, MissingReplicaDirectoryDetected) {
  BlotStore store(dataset_, universe_);
  store.AddReplica({{.spatial_partitions = 4, .temporal_partitions = 4},
                    EncodingScheme::FromName("ROW-PLAIN")});
  store.Save(dir_);
  fs::remove_all(dir_ / "replica_000");
  EXPECT_THROW(BlotStore::Load(dir_), InvalidArgument);
}

}  // namespace
}  // namespace blot
