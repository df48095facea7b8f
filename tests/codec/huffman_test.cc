#include "codec/huffman.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>

#include "util/error.h"
#include "util/rng.h"

namespace blot {
namespace {

// Kraft sum in units of 2^-kMaxHuffmanBits; a valid prefix code needs
// sum(2^(max-len)) <= 2^max.
std::uint64_t KraftSum(const std::vector<std::uint8_t>& lengths) {
  std::uint64_t sum = 0;
  for (std::uint8_t len : lengths)
    if (len > 0) sum += std::uint64_t{1} << (kMaxHuffmanBits - len);
  return sum;
}

// Lengths 1, 2, ..., 15, 15: a complete code that uses every length the
// format allows, so codes of 1..10 bits decode through the primary table
// and codes of 11..15 bits through the canonical walk.
std::vector<std::uint8_t> EveryLengthCode() {
  std::vector<std::uint8_t> lengths;
  for (std::uint8_t len = 1; len <= kMaxHuffmanBits; ++len)
    lengths.push_back(len);
  lengths.push_back(kMaxHuffmanBits);
  return lengths;
}

TEST(HuffmanTest, LengthsSatisfyKraftInequality) {
  Rng rng(1);
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<std::uint64_t> freq(286);
    for (auto& f : freq) f = rng.NextUint64(1000);
    const auto lengths = BuildHuffmanCodeLengths(freq);
    EXPECT_LE(KraftSum(lengths),
              std::uint64_t{1} << kMaxHuffmanBits);
    for (std::size_t s = 0; s < freq.size(); ++s) {
      if (freq[s] > 0)
        EXPECT_GT(lengths[s], 0) << "symbol " << s;
      else
        EXPECT_EQ(lengths[s], 0) << "symbol " << s;
    }
  }
}

TEST(HuffmanTest, LengthLimitHoldsUnderExtremeSkew) {
  // Fibonacci-like frequencies drive unconstrained Huffman depths far
  // beyond 15 bits; the builder must cap them.
  std::vector<std::uint64_t> freq(40);
  std::uint64_t a = 1, b = 1;
  for (auto& f : freq) {
    f = a;
    const std::uint64_t next = a + b;
    a = b;
    b = next;
  }
  const auto lengths = BuildHuffmanCodeLengths(freq);
  for (std::uint8_t len : lengths) EXPECT_LE(len, kMaxHuffmanBits);
  EXPECT_LE(KraftSum(lengths), std::uint64_t{1} << kMaxHuffmanBits);
}

TEST(HuffmanTest, SingleSymbolGetsLengthOne) {
  std::vector<std::uint64_t> freq(10, 0);
  freq[3] = 7;
  const auto lengths = BuildHuffmanCodeLengths(freq);
  EXPECT_EQ(lengths[3], 1);
  for (std::size_t s = 0; s < freq.size(); ++s) {
    if (s != 3) {
      EXPECT_EQ(lengths[s], 0);
    }
  }
}

TEST(HuffmanTest, FrequentSymbolsGetShorterCodes) {
  std::vector<std::uint64_t> freq = {1000, 1, 1, 1, 1, 1, 1, 1};
  const auto lengths = BuildHuffmanCodeLengths(freq);
  for (std::size_t s = 1; s < freq.size(); ++s)
    EXPECT_LE(lengths[0], lengths[s]);
}

TEST(HuffmanTest, EncodeDecodeRoundTrip) {
  Rng rng(2);
  std::vector<std::uint64_t> freq(100);
  for (auto& f : freq) f = 1 + rng.NextUint64(500);
  const auto lengths = BuildHuffmanCodeLengths(freq);
  const HuffmanEncoder encoder(lengths);
  const HuffmanDecoder decoder(lengths);

  std::vector<std::size_t> symbols;
  for (int i = 0; i < 5000; ++i)
    symbols.push_back(rng.NextUint64(freq.size()));
  BitWriter w;
  for (std::size_t s : symbols) encoder.Write(w, s);
  const Bytes buf = w.Finish();
  BitReader r(buf);
  for (std::size_t s : symbols) EXPECT_EQ(decoder.Read(r), s);
}

TEST(HuffmanTest, CodedSizeBeatsFixedWidthOnSkewedData) {
  Rng rng(3);
  // Zipf-ish skew over 64 symbols.
  std::vector<std::size_t> symbols;
  for (int i = 0; i < 20000; ++i) symbols.push_back(rng.NextZipf(64, 1.2));
  std::vector<std::uint64_t> freq(64, 0);
  for (std::size_t s : symbols) freq[s]++;
  const auto lengths = BuildHuffmanCodeLengths(freq);
  const HuffmanEncoder encoder(lengths);
  BitWriter w;
  for (std::size_t s : symbols) encoder.Write(w, s);
  const std::size_t coded_bits = w.BitCount();
  EXPECT_LT(coded_bits, symbols.size() * 6);  // fixed width would be 6 bits
}

TEST(HuffmanTest, EveryCodeLengthFromOneToFifteenRoundTrips) {
  const std::vector<std::uint8_t> lengths = EveryLengthCode();
  ASSERT_EQ(KraftSum(lengths), std::uint64_t{1} << kMaxHuffmanBits);
  const HuffmanEncoder encoder(lengths);
  const HuffmanDecoder decoder(lengths);

  Rng rng(4);
  std::vector<std::size_t> symbols;
  for (int i = 0; i < 3000; ++i)
    symbols.push_back(rng.NextUint64(lengths.size()));
  BitWriter w;
  std::size_t bits = 0;
  for (std::size_t s : symbols) {
    encoder.Write(w, s);
    bits += lengths[s];
  }
  EXPECT_EQ(w.BitCount(), bits);
  const Bytes buf = w.Finish();
  BitReader r(buf);
  for (std::size_t s : symbols) ASSERT_EQ(decoder.Read(r), s);
  EXPECT_LT(r.RemainingBits(), 8u);
}

TEST(HuffmanTest, LongCodeAtTheEndOfTheStream) {
  // A 15-bit code as the very last bits: the walk peeks past the end of
  // the buffer but must consume only the code itself.
  const std::vector<std::uint8_t> lengths = EveryLengthCode();
  const HuffmanEncoder encoder(lengths);
  const HuffmanDecoder decoder(lengths);
  BitWriter w;
  w.WriteBits(0, 1);
  encoder.Write(w, lengths.size() - 1);
  const Bytes buf = w.Finish();
  ASSERT_EQ(buf.size(), 2u);
  BitReader r(buf);
  r.Skip(1);
  EXPECT_EQ(decoder.Read(r), lengths.size() - 1);
  EXPECT_EQ(r.RemainingBits(), 0u);
  EXPECT_THROW(decoder.Read(r), CorruptData);
}

TEST(HuffmanTest, IncompleteCodeRejectsItsUnusedPattern) {
  // One symbol of length 1 uses code 0; bit pattern 1 belongs to no
  // symbol and must throw instead of decoding as anything.
  const std::vector<std::uint8_t> lengths = {0, 0, 1, 0};
  const HuffmanEncoder encoder(lengths);
  const HuffmanDecoder decoder(lengths);
  BitWriter w;
  encoder.Write(w, 2);
  encoder.Write(w, 2);
  const Bytes ok = w.Finish();
  BitReader good(ok);
  EXPECT_EQ(decoder.Read(good), 2u);
  EXPECT_EQ(decoder.Read(good), 2u);

  // Pattern 1 first, with and without 15 bits of input behind it.
  for (const Bytes& bad : {Bytes{0x01}, Bytes{0xFF, 0xFF, 0xFF}}) {
    BitReader r(bad);
    EXPECT_THROW(decoder.Read(r), CorruptData);
  }
  // A valid symbol, then the unused pattern.
  const Bytes valid_then_bad = {0x02};
  BitReader r(valid_then_bad);
  EXPECT_EQ(decoder.Read(r), 2u);
  EXPECT_THROW(decoder.Read(r), CorruptData);
}

TEST(HuffmanTest, TruncatedLongCodeThrows) {
  const std::vector<std::uint8_t> lengths = EveryLengthCode();
  const HuffmanDecoder decoder(lengths);
  // Twelve one-bits start a code of at least 13 bits; one byte and a
  // half of them cannot hold it.
  const Bytes buf = {0xFF, 0xFF};
  BitReader r(buf);
  r.Skip(4);
  EXPECT_THROW(decoder.Read(r), CorruptData);
}

TEST(HuffmanTest, DecoderRejectsOversubscribedLengths) {
  // Three symbols of length 1 cannot form a prefix code.
  std::vector<std::uint8_t> lengths = {1, 1, 1};
  EXPECT_THROW(HuffmanDecoder{lengths}, CorruptData);
}

TEST(HuffmanTest, DecoderRejectsTooLongLength) {
  std::vector<std::uint8_t> lengths = {1, 16};
  EXPECT_THROW(HuffmanDecoder{lengths}, CorruptData);
}

TEST(HuffmanTest, AllZeroFrequenciesYieldNoCodes) {
  const auto lengths = BuildHuffmanCodeLengths(std::vector<std::uint64_t>(8));
  for (std::uint8_t len : lengths) EXPECT_EQ(len, 0);
}

}  // namespace
}  // namespace blot
