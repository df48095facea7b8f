#include "codec/reference_decoders.h"

#include <algorithm>
#include <vector>

#include "codec/lz_common.h"
#include "util/error.h"

namespace blot::reference {
namespace {

using BitProb = std::uint16_t;

constexpr int kProbBits = 11;
constexpr BitProb kProbInit = (1u << kProbBits) / 2;
constexpr int kProbMoveBits = 5;
constexpr std::uint32_t kTopValue = 1u << 24;

class RangeDecoder {
 public:
  explicit RangeDecoder(BytesView data) : data_(data) {
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
    Normalize();
    return bit;
  }

  std::uint32_t DecodeBitTree(std::vector<BitProb>& probs, int bits) {
    std::uint32_t node = 1;
    for (int i = 0; i < bits; ++i) node = (node << 1) | DecodeBit(probs[node]);
    return node - (1u << bits);
  }

 private:
  std::uint8_t NextByte() {
    if (position_ >= data_.size()) return 0;
    return data_[position_++];
  }

  void Normalize() {
    while (range_ < kTopValue) {
      code_ = (code_ << 8) | NextByte();
      range_ <<= 8;
    }
  }

  BytesView data_;
  std::size_t position_ = 0;
  std::uint32_t range_ = 0xFFFFFFFFu;
  std::uint32_t code_ = 0;
};

constexpr std::uint32_t kSnappyMinMatch = 4;
constexpr std::uint32_t kSnappyMaxMatch = 67;
constexpr std::uint32_t kLzmaMinMatch = 3;
constexpr int kNumSlotBits = 6;

struct LzmaModel {
  BitProb is_match = kProbInit;
  BitProb is_rep = kProbInit;
  std::vector<std::vector<BitProb>> literal{
      256, std::vector<BitProb>(256, kProbInit)};
  std::vector<BitProb> length = std::vector<BitProb>(256, kProbInit);
  std::vector<BitProb> rep_length = std::vector<BitProb>(256, kProbInit);
  std::vector<BitProb> dist_slot =
      std::vector<BitProb>(1u << kNumSlotBits, kProbInit);
  std::vector<BitProb> dist_direct = std::vector<BitProb>(32, kProbInit);
};

std::uint32_t SlotBase(std::uint32_t slot) {
  if (slot < 4) return slot;
  return (2u | (slot & 1u)) << (slot / 2 - 1);
}

int SlotDirectBits(std::uint32_t slot) {
  if (slot < 4) return 0;
  return static_cast<int>(slot / 2 - 1);
}

std::uint32_t DecodeDistance(RangeDecoder& rc, LzmaModel& model) {
  const std::uint32_t slot = rc.DecodeBitTree(model.dist_slot, kNumSlotBits);
  const int direct = SlotDirectBits(slot);
  std::uint32_t value = SlotBase(slot);
  for (int i = direct - 1; i >= 0; --i)
    value |= rc.DecodeBit(model.dist_direct[static_cast<std::size_t>(i)])
             << i;
  return value + 1;
}

}  // namespace

Bytes SnappyLikeDecompress(BytesView input) {
  ByteReader in(input);
  const std::uint64_t expected_size = in.GetVarint();
  validate(expected_size <= input.size() * (kSnappyMaxMatch / 3 + 1),
           "SnappyLike: implausible declared size");
  Bytes out;
  out.reserve(expected_size);
  while (!in.AtEnd()) {
    validate(out.size() <= expected_size,
             "SnappyLike: output exceeds declared size");
    const std::uint8_t tag = in.GetU8();
    if ((tag & 3) == 0) {
      std::size_t len = (tag >> 2) + 1;
      if ((tag >> 2) == 61) {
        len = std::size_t{in.GetU8()} + 1;
      } else if ((tag >> 2) == 62) {
        len = std::size_t{in.GetU16()} + 1;
      } else {
        validate((tag >> 2) <= 60, "SnappyLike: bad literal tag");
      }
      BytesView literal = in.GetBytes(len);
      out.insert(out.end(), literal.begin(), literal.end());
    } else if ((tag & 3) == 2) {
      const std::size_t len = (tag >> 2) + kSnappyMinMatch;
      const std::size_t distance = in.GetU16();
      validate(distance >= 1 && distance <= out.size(),
               "SnappyLike: copy distance out of range");
      AppendMatch(out, distance, len);
    } else {
      throw CorruptData("SnappyLike: unknown tag");
    }
  }
  validate(out.size() == expected_size,
           "SnappyLike: size mismatch after decompression");
  return out;
}

Bytes LzmaLikeDecompress(BytesView input) {
  ByteReader in(input);
  const std::uint64_t expected_size = in.GetVarint();
  validate(expected_size <= (input.size() + 16) * 300000,
           "LzmaLike: implausible declared size");
  LzmaModel model;
  RangeDecoder rc(in.GetBytes(in.remaining()));
  Bytes out;
  out.reserve(std::min<std::uint64_t>(expected_size, 1u << 22));
  std::uint8_t prev_byte = 0;
  std::uint32_t last_distance = 0;
  while (out.size() < expected_size) {
    if (rc.DecodeBit(model.is_match) == 0) {
      prev_byte = static_cast<std::uint8_t>(
          rc.DecodeBitTree(model.literal[prev_byte], 8));
      out.push_back(prev_byte);
      continue;
    }
    std::uint32_t length, distance;
    if (rc.DecodeBit(model.is_rep) == 1) {
      validate(last_distance != 0, "LzmaLike: rep match before any match");
      length = rc.DecodeBitTree(model.rep_length, 8) + kLzmaMinMatch;
      distance = last_distance;
    } else {
      length = rc.DecodeBitTree(model.length, 8) + kLzmaMinMatch;
      distance = DecodeDistance(rc, model);
      last_distance = distance;
    }
    validate(distance >= 1 && distance <= out.size(),
             "LzmaLike: copy distance out of range");
    validate(out.size() + length <= expected_size,
             "LzmaLike: match overruns declared size");
    AppendMatch(out, distance, length);
    prev_byte = out.back();
  }
  return out;
}

}  // namespace blot::reference
