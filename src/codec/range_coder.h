// Adaptive binary range coder (LZMA design point).
//
// Probabilities are 11-bit adaptive counters updated with shift-5
// exponential decay, the exact scheme of the LZMA reference coder. The
// encoder carries the standard cache/cache-size mechanism to propagate
// carries into already-emitted bytes. The decoder is header-only so its
// per-bit work inlines into the codec's decode loop, where `range_`,
// `code_` and the input pointer live in registers.
#ifndef BLOT_CODEC_RANGE_CODER_H_
#define BLOT_CODEC_RANGE_CODER_H_

#include <cstdint>
#include <span>

#include "util/bytes.h"

namespace blot {

// One adaptive binary probability state.
using BitProb = std::uint16_t;

inline constexpr int kProbBits = 11;
inline constexpr BitProb kProbInit = (1u << kProbBits) / 2;
inline constexpr int kProbMoveBits = 5;
inline constexpr std::uint32_t kRangeTopValue = 1u << 24;

// The update rule keeps every probability in [kProbMin, kProbMax]: both
// bounds are fixed points, and the step from the value next to each
// bound lands on it, never past it.
inline constexpr std::uint32_t kProbMin = 31;
inline constexpr std::uint32_t kProbMax = 2017;
static_assert(kProbMin - (kProbMin >> kProbMoveBits) == kProbMin &&
              (kProbMin + 1) - ((kProbMin + 1) >> kProbMoveBits) == kProbMin);
static_assert(
    kProbMax + (((1u << kProbBits) - kProbMax) >> kProbMoveBits) ==
        kProbMax &&
    (kProbMax - 1) + (((1u << kProbBits) - (kProbMax - 1)) >> kProbMoveBits) ==
        kProbMax);
static_assert(kProbMin <= kProbInit && kProbInit <= kProbMax);
// Hence one decode from range >= 2^24 leaves range >= 2^13 * 31 >= 2^17
// (bound for a 0, range - bound for a 1), and one 8-bit shift restores
// range >= 2^24: normalization is an `if`, not a `while`.
static_assert(((kRangeTopValue >> kProbBits) * kProbMin) << 8 >=
                  kRangeTopValue &&
              ((kRangeTopValue >> kProbBits) *
               ((1u << kProbBits) - kProbMax))
                      << 8 >=
                  kRangeTopValue);

class RangeEncoder {
 public:
  // Encodes one bit under the adaptive probability `p` (updated in place).
  void EncodeBit(BitProb& p, std::uint32_t bit);

  // Encodes `value` in [0, 2^bits) through a bit tree rooted at probs[1];
  // `probs` must hold at least 2^bits entries.
  void EncodeBitTree(std::span<BitProb> probs, int bits, std::uint32_t value);

  // Flushes pending state and returns the encoded bytes.
  Bytes Finish();

 private:
  void ShiftLow();

  std::uint64_t low_ = 0;
  std::uint32_t range_ = 0xFFFFFFFFu;
  std::uint8_t cache_ = 0;
  std::uint64_t cache_size_ = 1;
  Bytes out_;
};

class RangeDecoder {
 public:
  // Begins decoding; consumes the 5-byte preamble. The first preamble
  // byte is always zero by construction of the encoder cache; the
  // following four initialize the code register.
  explicit RangeDecoder(BytesView data)
      : next_(data.data()), end_(data.data() + data.size()) {
    NextByte();
    for (int i = 0; i < 4; ++i) code_ = (code_ << 8) | NextByte();
  }

  std::uint32_t DecodeBit(BitProb& p) {
    const std::uint32_t bound = (range_ >> kProbBits) * p;
    std::uint32_t bit;
    if (code_ < bound) {
      range_ = bound;
      p = static_cast<BitProb>(p + (((1u << kProbBits) - p) >> kProbMoveBits));
      bit = 0;
    } else {
      code_ -= bound;
      range_ -= bound;
      p = static_cast<BitProb>(p - (p >> kProbMoveBits));
      bit = 1;
    }
    if (range_ < kRangeTopValue) {
      code_ = (code_ << 8) | NextByte();
      range_ <<= 8;
    }
    return bit;
  }

  // Decodes a value in [0, 2^bits) through the bit tree rooted at
  // probs[1]; `probs` must hold at least 2^bits entries.
  std::uint32_t DecodeBitTree(std::span<BitProb> probs, int bits) {
    std::uint32_t node = 1;
    for (int i = 0; i < bits; ++i) node = (node << 1) | DecodeBit(probs[node]);
    return node - (1u << bits);
  }

  // True once the decoder has needed a byte past the end of its input.
  // The encoder flushes exactly the bytes the decoder reads, so a whole
  // stream never does: this is how a caller detects truncation.
  bool read_past_end() const { return read_past_end_; }

 private:
  // Reads past the end decode as zero.
  std::uint8_t NextByte() {
    if (next_ < end_) return *next_++;
    read_past_end_ = true;
    return 0;
  }

  const std::uint8_t* next_;
  const std::uint8_t* end_;
  bool read_past_end_ = false;
  std::uint32_t range_ = 0xFFFFFFFFu;
  std::uint32_t code_ = 0;
};

}  // namespace blot

#endif  // BLOT_CODEC_RANGE_CODER_H_
