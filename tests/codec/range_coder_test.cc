#include "codec/range_coder.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "util/rng.h"

namespace blot {
namespace {

TEST(RangeCoderTest, SingleAdaptiveBitStream) {
  Rng rng(1);
  std::vector<std::uint32_t> bits;
  for (int i = 0; i < 10000; ++i)
    bits.push_back(rng.NextBool(0.2) ? 1 : 0);

  RangeEncoder enc;
  BitProb p_enc = kProbInit;
  for (std::uint32_t b : bits) enc.EncodeBit(p_enc, b);
  const Bytes buf = enc.Finish();

  RangeDecoder dec(buf);
  BitProb p_dec = kProbInit;
  for (std::uint32_t b : bits) ASSERT_EQ(dec.DecodeBit(p_dec), b);
  EXPECT_EQ(p_enc, p_dec);
}

TEST(RangeCoderTest, SkewedBitsCompressBelowOneBitPerSymbol) {
  Rng rng(2);
  constexpr int kN = 100000;
  RangeEncoder enc;
  BitProb p = kProbInit;
  for (int i = 0; i < kN; ++i)
    enc.EncodeBit(p, rng.NextBool(0.02) ? 1 : 0);
  const Bytes buf = enc.Finish();
  // Entropy of Bernoulli(0.02) is ~0.14 bits; allow generous slack.
  EXPECT_LT(buf.size() * 8, kN / 2);
}

// The decoder normalizes once per bit on the strength of the bounds
// [kProbMin, kProbMax] (range_coder.h); long runs of one bit drive a
// probability onto each bound and no further.
TEST(RangeCoderTest, ProbabilitiesSaturateAtTheirBounds) {
  std::vector<std::uint32_t> bits(3000, 0);
  bits.insert(bits.end(), 3000, 1);
  RangeEncoder enc;
  BitProb p_enc = kProbInit;
  BitProb lo = p_enc, hi = p_enc;
  for (std::uint32_t b : bits) {
    enc.EncodeBit(p_enc, b);
    lo = std::min(lo, p_enc);
    hi = std::max(hi, p_enc);
  }
  EXPECT_EQ(hi, kProbMax);
  EXPECT_EQ(lo, kProbMin);
  const Bytes buf = enc.Finish();
  RangeDecoder dec(buf);
  BitProb p_dec = kProbInit;
  for (std::uint32_t b : bits) ASSERT_EQ(dec.DecodeBit(p_dec), b);
  EXPECT_EQ(p_enc, p_dec);
  EXPECT_FALSE(dec.read_past_end());
}

TEST(RangeCoderTest, BitTreeRoundTrip) {
  Rng rng(4);
  std::vector<BitProb> enc_probs(256, kProbInit);
  std::vector<BitProb> dec_probs(256, kProbInit);
  std::vector<std::uint32_t> values;
  RangeEncoder enc;
  for (int i = 0; i < 20000; ++i) {
    const std::uint32_t v =
        static_cast<std::uint32_t>(rng.NextZipf(256, 1.0));
    values.push_back(v);
    enc.EncodeBitTree(enc_probs, 8, v);
  }
  const Bytes buf = enc.Finish();
  RangeDecoder dec(buf);
  for (std::uint32_t v : values)
    ASSERT_EQ(dec.DecodeBitTree(dec_probs, 8), v);
  EXPECT_EQ(enc_probs, dec_probs);
}

TEST(RangeCoderTest, MixedOperationsRoundTrip) {
  Rng rng(5);
  std::vector<BitProb> enc_tree(64, kProbInit);
  std::vector<BitProb> dec_tree(64, kProbInit);
  BitProb enc_bit = kProbInit, dec_bit = kProbInit;
  struct Op {
    int kind;  // 0 bit, 1 tree
    std::uint32_t value;
  };
  std::vector<Op> ops;
  RangeEncoder enc;
  for (int i = 0; i < 10000; ++i) {
    Op op;
    op.kind = static_cast<int>(rng.NextUint64(2));
    switch (op.kind) {
      case 0:
        op.value = rng.NextBool(0.7) ? 1 : 0;
        enc.EncodeBit(enc_bit, op.value);
        break;
      default:
        op.value = static_cast<std::uint32_t>(rng.NextUint64(64));
        enc.EncodeBitTree(enc_tree, 6, op.value);
        break;
    }
    ops.push_back(op);
  }
  const Bytes buf = enc.Finish();
  RangeDecoder dec(buf);
  for (const Op& op : ops) {
    switch (op.kind) {
      case 0:
        ASSERT_EQ(dec.DecodeBit(dec_bit), op.value);
        break;
      default:
        ASSERT_EQ(dec.DecodeBitTree(dec_tree, 6), op.value);
        break;
    }
  }
}

}  // namespace
}  // namespace blot
