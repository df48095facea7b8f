// Corruption fuzz for the persisted store: for every encoding scheme,
// every store file is bit-flipped, truncated and torn (via the fault
// injector's mutation helpers), and BlotStore::Load must either reject
// the store with a structured blot::Error or load a store that still
// answers queries correctly or fails them with a blot::Error — never a
// crash, never silently wrong results.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <string>
#include <vector>

#include "common/fixtures.h"
#include "core/fault_injection.h"
#include "core/store.h"
#include "util/error.h"

namespace blot {
namespace {

namespace fs = std::filesystem;

using test::Sorted;

std::vector<std::string> AllSchemeNames() {
  std::vector<std::string> names;
  for (const EncodingScheme& scheme : AllEncodingSchemes())
    names.push_back(scheme.Name());
  return names;
}

class StoreFuzzTest : public ::testing::TestWithParam<std::string> {
 protected:
  void SetUp() override {
    std::string safe = GetParam();
    std::replace(safe.begin(), safe.end(), '/', '_');
    dir_ = fs::temp_directory_path() / ("blot_store_fuzz_" + safe);
    fs::remove_all(dir_);
    const test::TaxiFixture fleet(6, 200);
    dataset_ = fleet.dataset;
    universe_ = fleet.universe;

    BlotStore store(dataset_, universe_);
    store.AddReplica({{.spatial_partitions = 4, .temporal_partitions = 4},
                      EncodingScheme::FromName(GetParam())});
    store.Save(dir_ / "pristine");
  }

  void TearDown() override { fs::remove_all(dir_); }

  // Fresh copy of the pristine store to mutilate.
  fs::path FreshCopy(const std::string& label) {
    const fs::path copy = dir_ / label;
    fs::remove_all(copy);
    fs::copy(dir_ / "pristine", copy, fs::copy_options::recursive);
    return copy;
  }

  // Every file a saved store consists of, relative to its directory.
  std::vector<fs::path> StoreFiles() const {
    std::vector<fs::path> files;
    for (const auto& entry :
         fs::recursive_directory_iterator(dir_ / "pristine"))
      if (entry.is_regular_file())
        files.push_back(fs::relative(entry.path(), dir_ / "pristine"));
    return files;
  }

  fs::path dir_;
  Dataset dataset_;
  STRange universe_;
};

TEST_P(StoreFuzzTest, LoadSurvivesCorruptionOfEveryFile) {
  const CostModel model{EnvironmentModel::LocalHadoop()};
  const std::vector<Record> truth = Sorted(dataset_.records());
  const std::vector<fs::path> files = StoreFiles();
  // The store manifest plus the replica's manifest and segments: a saved
  // store is its replicas, with no separate dataset file.
  ASSERT_GE(files.size(), 3u);

  std::size_t label = 0;
  for (const fs::path& file : files) {
    for (const FaultKind kind :
         {FaultKind::kBitFlip, FaultKind::kTruncate, FaultKind::kTornRead}) {
      for (const std::uint64_t salt : {3u, 7777u}) {
        SCOPED_TRACE(file.string() + " " +
                     std::string(FaultKindName(kind)) + " salt " +
                     std::to_string(salt));
        const fs::path copy = FreshCopy("case_" + std::to_string(label++));
        FaultInjector::CorruptFile(copy / file, kind, salt);
        try {
          BlotStore loaded = BlotStore::Load(copy);
          // Checksums over encoded partitions are verified lazily on
          // read, so a Load that passed must still never serve corrupt
          // bytes: a full scan either matches ground truth exactly or
          // fails with a structured error.
          try {
            const BlotStore::RoutedResult routed =
                loaded.Execute(universe_, model);
            EXPECT_EQ(Sorted(routed.result.records), truth);
          } catch (const Error&) {
            // Detected at read time (CorruptData / QueryFailedError).
          }
        } catch (const Error&) {
          // Detected at load time. Any blot::Error is acceptable; an
          // uncaught foreign exception or a crash is not.
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllEncodings, StoreFuzzTest, ::testing::ValuesIn(AllSchemeNames()),
    [](const ::testing::TestParamInfo<std::string>& info) {
      std::string name = info.param;
      std::replace(name.begin(), name.end(), '-', '_');
      std::replace(name.begin(), name.end(), '/', '_');
      return name;
    });

}  // namespace
}  // namespace blot
