#include "codec/bitstream.h"

#include <gtest/gtest.h>

#include "util/error.h"
#include "util/rng.h"

namespace blot {
namespace {

TEST(BitstreamTest, SingleBitsRoundTrip) {
  BitWriter w;
  const std::vector<int> bits = {1, 0, 1, 1, 0, 0, 1, 0, 1, 1, 1};
  for (int b : bits) w.WriteBits(static_cast<std::uint32_t>(b), 1);
  const Bytes buf = w.Finish();
  EXPECT_EQ(buf.size(), 2u);
  BitReader r(buf);
  for (int b : bits) EXPECT_EQ(r.ReadBits(1), static_cast<std::uint32_t>(b));
}

TEST(BitstreamTest, MultiBitValuesRoundTrip) {
  BitWriter w;
  w.WriteBits(0x5, 3);
  w.WriteBits(0xABC, 12);
  w.WriteBits(0xFFFFFFFF, 32);
  w.WriteBits(0, 0);
  w.WriteBits(1, 1);
  const Bytes buf = w.Finish();
  BitReader r(buf);
  EXPECT_EQ(r.ReadBits(3), 0x5u);
  EXPECT_EQ(r.ReadBits(12), 0xABCu);
  EXPECT_EQ(r.ReadBits(32), 0xFFFFFFFFu);
  EXPECT_EQ(r.ReadBits(0), 0u);
  EXPECT_EQ(r.ReadBits(1), 1u);
}

TEST(BitstreamTest, RandomizedRoundTrip) {
  Rng rng(99);
  BitWriter w;
  std::vector<std::pair<std::uint32_t, int>> writes;
  for (int i = 0; i < 2000; ++i) {
    const int count = static_cast<int>(rng.NextUint64(33));
    const std::uint32_t value =
        count == 32 ? static_cast<std::uint32_t>(rng())
                    : static_cast<std::uint32_t>(rng()) & ((1u << count) - 1);
    writes.emplace_back(value, count);
    w.WriteBits(value, count);
  }
  const Bytes buf = w.Finish();
  BitReader r(buf);
  for (const auto& [value, count] : writes)
    EXPECT_EQ(r.ReadBits(count), value);
}

TEST(BitstreamTest, ReadPastEndThrows) {
  BitWriter w;
  w.WriteBits(1, 1);
  const Bytes buf = w.Finish();
  BitReader r(buf);
  r.ReadBits(8);  // padded byte is readable
  EXPECT_THROW(r.ReadBits(1), CorruptData);
}

// The `count` bits from bit `pos` on, gathered one bit at a time as the
// reader did before it peeked whole words; bits past the end read as
// zero.
std::uint32_t ReferenceBits(const Bytes& data, std::size_t pos, int count) {
  std::uint32_t v = 0;
  for (int i = 0; i < count; ++i, ++pos) {
    if (pos >= data.size() * 8) break;
    v |= static_cast<std::uint32_t>((data[pos >> 3] >> (pos & 7)) & 1u) << i;
  }
  return v;
}

TEST(BitstreamTest, PeekAndSkipMatchBitByBitReading) {
  Rng rng(7);
  for (int trial = 0; trial < 50; ++trial) {
    // Short streams put most reads across the 8-byte tail.
    Bytes data(rng.NextUint64(24));
    for (auto& b : data) b = static_cast<std::uint8_t>(rng.NextUint64(256));
    BitReader r(data);
    std::size_t pos = 0;
    for (;;) {
      const int count = static_cast<int>(rng.NextUint64(33));
      ASSERT_EQ(r.Peek(count), ReferenceBits(data, pos, count))
          << "trial " << trial << " pos " << pos << " count " << count;
      ASSERT_EQ(r.Peek(count), r.Peek(count)) << "Peek must not consume";
      if (pos + count > data.size() * 8) {
        EXPECT_THROW(r.Skip(count), CorruptData);
        break;
      }
      r.Skip(count);
      pos += static_cast<std::size_t>(count);
      ASSERT_EQ(r.RemainingBits(), data.size() * 8 - pos);
    }
  }
}

TEST(BitstreamTest, PeekStraddlingTheEightByteTail) {
  Bytes data(11);
  for (std::size_t i = 0; i < data.size(); ++i)
    data[i] = static_cast<std::uint8_t>(0x9D * (i + 1));
  // Every start bit of an 11-byte stream: starts in bytes 0..3 take the
  // 8-byte load, later ones the byte loop over the tail.
  for (std::size_t start = 0; start <= data.size() * 8; ++start) {
    BitReader r(data);
    r.Skip(static_cast<int>(start));
    for (int count : {1, 7, 10, 15, 25, 32})
      EXPECT_EQ(r.Peek(count), ReferenceBits(data, start, count))
          << "start " << start << " count " << count;
  }
}

TEST(BitstreamTest, SkipPastEndThrows) {
  const Bytes data = {0xAB, 0xCD};
  BitReader r(data);
  r.Skip(10);
  EXPECT_THROW(r.Skip(7), CorruptData);
  r.Skip(6);
  EXPECT_EQ(r.RemainingBits(), 0u);
  EXPECT_EQ(r.Peek(15), 0u) << "bits past the end read as zero";
  r.Skip(0);
  EXPECT_THROW(r.Skip(1), CorruptData);
  EXPECT_THROW(BitReader(BytesView{}).ReadBits(1), CorruptData);
}

TEST(BitstreamTest, CountValidation) {
  BitWriter w;
  EXPECT_THROW(w.WriteBits(0, 33), InvalidArgument);
  EXPECT_THROW(w.WriteBits(0, -1), InvalidArgument);
  const Bytes buf = {0xFF};
  BitReader r(buf);
  EXPECT_THROW(r.ReadBits(33), InvalidArgument);
}

TEST(BitstreamTest, BitCountTracksProgress) {
  BitWriter w;
  EXPECT_EQ(w.BitCount(), 0u);
  w.WriteBits(0, 5);
  EXPECT_EQ(w.BitCount(), 5u);
  w.WriteBits(0, 5);
  EXPECT_EQ(w.BitCount(), 10u);
}

}  // namespace
}  // namespace blot
