#include "blot/record.h"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "util/error.h"

namespace blot {
namespace {

Record SampleRecord() {
  Record r;
  r.oid = 1234;
  r.time = 1193875265;
  r.x = 121.4737123;
  r.y = 31.2304567;
  r.speed = 42.5f;
  r.heading = 270;
  r.status = 1;
  r.passengers = 2;
  r.fare_cents = 2350;
  return r;
}

TEST(RecordTest, HasEightAttributes) {
  // 3 core (oid, time, loc) + 5 common; loc spans two CSV columns.
  EXPECT_EQ(RecordFieldNames().size(), 9u);
}

TEST(RecordTest, RowBytesMatchesSchema) {
  EXPECT_EQ(kRecordRowBytes, 40u);
}

TEST(RecordTest, CsvRoundTripIsExact) {
  const Record r = SampleRecord();
  EXPECT_EQ(RecordFromCsv(RecordToCsv(r)), r);
}

TEST(RecordTest, CsvRoundTripPreservesFullDoublePrecision) {
  Record r = SampleRecord();
  r.x = 121.47371230000001;
  r.y = 0.1 + 0.2;  // not representable exactly
  EXPECT_EQ(RecordFromCsv(RecordToCsv(r)), r);
}

TEST(RecordTest, CsvRejectsWrongFieldCount) {
  EXPECT_THROW(RecordFromCsv({"1", "2"}), CorruptData);
}

TEST(RecordTest, CsvRejectsMalformedNumbers) {
  auto fields = RecordToCsv(SampleRecord());
  fields[0] = "not-a-number";
  EXPECT_THROW(RecordFromCsv(fields), CorruptData);
  fields = RecordToCsv(SampleRecord());
  fields[1] = "12.5x";
  EXPECT_THROW(RecordFromCsv(fields), CorruptData);
}

TEST(RecordTest, PositionProjectsCoreAttributes) {
  const Record r = SampleRecord();
  const STPoint p = r.Position();
  EXPECT_DOUBLE_EQ(p.x, r.x);
  EXPECT_DOUBLE_EQ(p.y, r.y);
  EXPECT_DOUBLE_EQ(p.t, static_cast<double>(r.time));
}

TEST(RecordTest, MultisetDigestIgnoresOrderAndCountsDuplicates) {
  const Record a = SampleRecord();
  Record b = a;
  b.fare_cents += 1;
  Record c = a;
  c.oid += 1;
  const std::vector<Record> abc = {a, b, c};
  const std::vector<Record> cab = {c, a, b};
  EXPECT_EQ(MultisetDigest(abc), MultisetDigest(cab));
  EXPECT_EQ(MultisetDigest(std::vector<Record>{}), 0u);
  // A sum, not an XOR: a duplicated pair neither cancels nor equals the
  // single record, and a second copy of one record is not a copy of
  // another.
  const std::vector<Record> aa = {a, a};
  EXPECT_NE(MultisetDigest(aa), 0u);
  EXPECT_NE(MultisetDigest(aa), MultisetDigest(std::vector<Record>{a}));
  const std::vector<Record> aab = {a, a, b};
  const std::vector<Record> abb = {a, b, b};
  EXPECT_NE(MultisetDigest(aab), MultisetDigest(abb));
}

TEST(RecordTest, RecordHashSeesEveryField) {
  const Record base = SampleRecord();
  std::vector<Record> variants(10, base);
  variants[1].oid ^= 1;
  variants[2].time += 1;
  variants[3].x = std::nextafter(base.x, 200.0);
  variants[4].y = std::nextafter(base.y, 200.0);
  variants[5].speed = std::nextafter(base.speed, 200.0f);
  variants[6].heading ^= 1;
  variants[7].status ^= 1;
  variants[8].passengers ^= 1;
  variants[9].fare_cents ^= 1;
  for (std::size_t i = 0; i < variants.size(); ++i) {
    for (std::size_t j = i + 1; j < variants.size(); ++j) {
      EXPECT_NE(RecordHash(variants[i]), RecordHash(variants[j]))
          << i << " vs " << j;
      EXPECT_TRUE(RecordKeyLess(variants[i], variants[j]) !=
                  RecordKeyLess(variants[j], variants[i]))
          << i << " vs " << j;
    }
  }
  // Time leads the order.
  Record later = base, earlier = base;
  later.time += 1;
  earlier.x = 0.0;
  EXPECT_TRUE(RecordKeyLess(earlier, later));
  // Equal under operator== means equal hash and equivalent under the
  // order, even when a zero's sign differs (the column codecs store
  // -0.0 as +0.0).
  Record positive = base, negative = base;
  positive.x = 0.0;
  negative.x = -0.0;
  positive.speed = 0.0f;
  negative.speed = -0.0f;
  EXPECT_EQ(positive, negative);
  EXPECT_EQ(RecordHash(positive), RecordHash(negative));
  EXPECT_FALSE(RecordKeyLess(positive, negative));
  EXPECT_FALSE(RecordKeyLess(negative, positive));
}

}  // namespace
}  // namespace blot
