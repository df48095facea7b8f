#include "codec/snappy_like.h"

#include <algorithm>

#include "codec/lz_common.h"
#include "util/error.h"

namespace blot {
namespace {

constexpr std::uint32_t kMinMatch = 4;
constexpr std::uint32_t kMaxMatch = 67;
constexpr std::uint32_t kWindow = 65535;

void EmitLiteral(ByteWriter& out, BytesView input, std::size_t start,
                 std::size_t length) {
  while (length > 0) {
    const std::size_t chunk = std::min<std::size_t>(length, 65536);
    if (chunk <= 60) {
      out.PutU8(static_cast<std::uint8_t>((chunk - 1) << 2));
    } else if (chunk <= 256) {
      out.PutU8(61 << 2);
      out.PutU8(static_cast<std::uint8_t>(chunk - 1));
    } else {
      out.PutU8(62 << 2);
      out.PutU16(static_cast<std::uint16_t>(chunk - 1));
    }
    out.PutBytes(input.subspan(start, chunk));
    start += chunk;
    length -= chunk;
  }
}

void EmitCopy(ByteWriter& out, std::uint32_t length, std::uint32_t distance) {
  out.PutU8(static_cast<std::uint8_t>(((length - kMinMatch) << 2) | 2));
  out.PutU16(static_cast<std::uint16_t>(distance));
}

}  // namespace

Bytes SnappyLikeCodec::Compress(BytesView input) const {
  ByteWriter out;
  out.PutVarint(input.size());

  HashChainMatcher matcher(
      input, {.window_size = kWindow,
              .min_match = kMinMatch,
              .max_match = kMaxMatch,
              .max_chain = 4});
  std::size_t pos = 0;
  std::size_t literal_start = 0;
  while (pos < input.size()) {
    const LzMatch match = matcher.FindMatch(pos);
    if (match.length >= kMinMatch) {
      if (pos > literal_start)
        EmitLiteral(out, input, literal_start, pos - literal_start);
      EmitCopy(out, match.length, match.distance);
      for (std::uint32_t i = 0; i < match.length; ++i) matcher.Insert(pos + i);
      pos += match.length;
      literal_start = pos;
    } else {
      matcher.Insert(pos);
      ++pos;
    }
  }
  if (pos > literal_start)
    EmitLiteral(out, input, literal_start, pos - literal_start);
  return out.Take();
}

Bytes SnappyLikeCodec::Decompress(BytesView input) const {
  ByteReader in(input);
  const std::uint64_t expected_size = in.GetVarint();
  // The declared size is untrusted: a copy element expands at most
  // 3 bytes -> kMaxMatch bytes and literals are 1:1, so any valid frame
  // obeys this bound.
  validate(expected_size <= input.size() * (kMaxMatch / 3 + 1),
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
      const std::size_t len = (tag >> 2) + kMinMatch;
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

}  // namespace blot
