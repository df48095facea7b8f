#include "codec/range_coder.h"

namespace blot {

void RangeEncoder::EncodeBit(BitProb& p, std::uint32_t bit) {
  const std::uint32_t bound = (range_ >> kProbBits) * p;
  if (bit == 0) {
    range_ = bound;
    p = static_cast<BitProb>(p + (((1u << kProbBits) - p) >> kProbMoveBits));
  } else {
    low_ += bound;
    range_ -= bound;
    p = static_cast<BitProb>(p - (p >> kProbMoveBits));
  }
  while (range_ < kRangeTopValue) {
    ShiftLow();
    range_ <<= 8;
  }
}

void RangeEncoder::EncodeBitTree(std::span<BitProb> probs, int bits,
                                 std::uint32_t value) {
  std::uint32_t node = 1;
  for (int i = bits - 1; i >= 0; --i) {
    const std::uint32_t bit = (value >> i) & 1u;
    EncodeBit(probs[node], bit);
    node = (node << 1) | bit;
  }
}

void RangeEncoder::ShiftLow() {
  if (static_cast<std::uint32_t>(low_) < 0xFF000000u || (low_ >> 32) != 0) {
    const std::uint8_t carry = static_cast<std::uint8_t>(low_ >> 32);
    std::uint8_t byte = cache_;
    do {
      out_.push_back(static_cast<std::uint8_t>(byte + carry));
      byte = 0xFF;
    } while (--cache_size_ != 0);
    cache_ = static_cast<std::uint8_t>(low_ >> 24);
  }
  ++cache_size_;
  low_ = (low_ << 8) & 0xFFFFFFFFull;
}

Bytes RangeEncoder::Finish() {
  for (int i = 0; i < 5; ++i) ShiftLow();
  return std::move(out_);
}

}  // namespace blot
