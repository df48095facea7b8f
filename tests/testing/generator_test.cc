#include "testing/generator.h"

#include <gtest/gtest.h>

#include <map>
#include <utility>

#include "testing/oracle.h"
#include "util/rng.h"

namespace blot::testing {
namespace {

TEST(GeneratorTest, PureFunctionOfTheSeed) {
  // The whole repro story rests on this: one seed, one dataset, one
  // query batch — byte for byte.
  for (std::uint64_t seed : {1u, 99u, 123456u}) {
    Rng a(seed), b(seed);
    const STRange universe = DefaultTestUniverse();
    const Dataset da = GenerateDataset(a, universe);
    const Dataset db = GenerateDataset(b, universe);
    ASSERT_EQ(da.records(), db.records()) << "seed " << seed;
    EXPECT_EQ(GenerateQueries(a, 10, universe, da),
              GenerateQueries(b, 10, universe, db))
        << "seed " << seed;
  }
}

TEST(GeneratorTest, DistinctSeedsProduceDistinctDatasets) {
  Rng a(1), b(2);
  const STRange universe = DefaultTestUniverse();
  EXPECT_NE(GenerateDataset(a, universe).records(),
            GenerateDataset(b, universe).records());
}

TEST(GeneratorTest, EveryRecordLiesInsideTheUniverse) {
  const STRange universe = DefaultTestUniverse();
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    Rng rng(seed);
    DatasetProfile profile;
    profile.extreme_fraction = 0.4;
    profile.boundary_fraction = 0.4;
    const Dataset dataset = GenerateDataset(rng, universe, profile);
    for (const Record& r : dataset.records())
      EXPECT_TRUE(universe.Contains(r.Position()))
          << "seed " << seed << ": " << DescribeRecord(r);
  }
}

TEST(GeneratorTest, RespectsSizeBounds) {
  DatasetProfile profile;
  profile.min_records = 5;
  profile.max_records = 9;
  for (std::uint64_t seed = 1; seed <= 30; ++seed) {
    Rng rng(seed);
    const std::size_t n =
        GenerateDataset(rng, DefaultTestUniverse(), profile).size();
    EXPECT_GE(n, 5u);
    EXPECT_LE(n, 9u);
  }
}

TEST(GeneratorTest, DuplicateFractionProducesCoordinateCollisions) {
  DatasetProfile profile;
  profile.min_records = 100;
  profile.max_records = 200;
  profile.duplicate_fraction = 0.6;
  Rng rng(7);
  const Dataset dataset =
      GenerateDataset(rng, DefaultTestUniverse(), profile);

  std::map<std::pair<double, double>, int> positions;
  int collisions = 0;
  for (const Record& r : dataset.records())
    if (positions[{r.x, r.y}]++ > 0) ++collisions;
  EXPECT_GT(collisions, static_cast<int>(dataset.size()) / 4);
}

TEST(GeneratorTest, FirstSixQueriesCoverEveryShape) {
  const STRange universe = DefaultTestUniverse();
  Rng rng(11);
  DatasetProfile profile;
  profile.min_records = 50;
  const Dataset dataset = GenerateDataset(rng, universe, profile);
  const Oracle oracle(dataset);
  const std::vector<STRange> queries =
      GenerateQueries(rng, 6, universe, dataset);
  ASSERT_EQ(queries.size(), 6u);

  // The documented cycle: empty, point, full-extent, boundary, thin
  // slab, random.
  EXPECT_TRUE(queries[0].empty());
  EXPECT_GE(oracle.Count(queries[1]), 1u);  // point at a real record
  EXPECT_EQ(oracle.Count(queries[2]), dataset.size());  // full extent
  EXPECT_GE(oracle.Count(queries[3]), 1u);  // record sits on the bound
  EXPECT_FALSE(queries[4].empty());
  EXPECT_FALSE(queries[5].empty());

  // The boundary query straddles: at least one matching record lies
  // exactly on one of its bounds (the closed-bound edge case).
  bool on_edge = false;
  for (const Record& r : oracle.RangeQuery(queries[3])) {
    const STRange& q = queries[3];
    if (r.x == q.x_min() || r.x == q.x_max() || r.y == q.y_min() ||
        r.y == q.y_max() ||
        static_cast<double>(r.time) == q.t_min() ||
        static_cast<double>(r.time) == q.t_max())
      on_edge = true;
  }
  EXPECT_TRUE(on_edge);
}

TEST(GeneratorTest, PointAndBoundaryFallBackOnEmptyDatasets) {
  const STRange universe = DefaultTestUniverse();
  const Dataset empty;
  Rng rng(13);
  // Must not throw; falls back to random sub-ranges.
  const STRange point =
      GenerateQuery(rng, QueryShape::kPoint, universe, empty);
  const STRange boundary =
      GenerateQuery(rng, QueryShape::kBoundary, universe, empty);
  EXPECT_FALSE(point.empty());
  EXPECT_FALSE(boundary.empty());
}

TEST(GeneratorTest, ExtremeRecordsStayFiniteAndInUniverse) {
  const STRange universe = DefaultTestUniverse();
  Rng rng(17);
  for (int i = 0; i < 50; ++i) {
    const Record r = ExtremeRecord(rng, universe);
    EXPECT_TRUE(universe.Contains(r.Position())) << DescribeRecord(r);
  }
}

TEST(GeneratorTest, QueryShapeNamesAreDistinct) {
  EXPECT_NE(QueryShapeName(QueryShape::kEmpty),
            QueryShapeName(QueryShape::kFullExtent));
  EXPECT_NE(QueryShapeName(QueryShape::kPoint),
            QueryShapeName(QueryShape::kBoundary));
}

}  // namespace
}  // namespace blot::testing
