#include "codec/snappy_like.h"

#include <algorithm>
#include <cstring>

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
  // The output is written in place through raw pointers: each element
  // is checked against the input end and the output end before any of
  // its bytes move, so neither pointer ever leaves its buffer.
  Bytes out(expected_size);
  const std::uint8_t* ip = input.data() + in.position();
  const std::uint8_t* const ip_end = input.data() + input.size();
  std::uint8_t* const op_begin = out.data();
  std::uint8_t* op = op_begin;
  std::uint8_t* const op_end = op_begin + expected_size;
  while (ip < ip_end) {
    const std::uint8_t tag = *ip++;
    if ((tag & 3) == 0) {
      std::size_t len = (tag >> 2) + 1;
      if (len > 61) {
        // 61/62 select one or two little-endian length bytes.
        const std::size_t extra = len - 61;
        validate(extra <= 2, "SnappyLike: bad literal tag");
        validate(static_cast<std::size_t>(ip_end - ip) >= extra,
                 "SnappyLike: truncated literal");
        len = std::size_t{ip[0]} + 1;
        if (extra == 2) len += std::size_t{ip[1]} << 8;
        ip += extra;
      }
      validate(static_cast<std::size_t>(ip_end - ip) >= len,
               "SnappyLike: truncated literal");
      validate(static_cast<std::size_t>(op_end - op) >= len,
               "SnappyLike: output exceeds declared size");
      // A short literal moves as one fixed 16-byte block when both
      // buffers have room; the bytes past `len` are overwritten later.
      if (len <= 16 && ip_end - ip >= 16 && op_end - op >= 16)
        std::memcpy(op, ip, 16);
      else
        std::memcpy(op, ip, len);
      ip += len;
      op += len;
    } else if ((tag & 3) == 2) {
      validate(ip_end - ip >= 2, "SnappyLike: truncated copy");
      const std::size_t len = (tag >> 2) + kMinMatch;
      const std::size_t distance = std::size_t{ip[0]} |
                                   (std::size_t{ip[1]} << 8);
      ip += 2;
      validate(distance >= 1 &&
                   distance <= static_cast<std::size_t>(op - op_begin),
               "SnappyLike: copy distance out of range");
      validate(static_cast<std::size_t>(op_end - op) >= len,
               "SnappyLike: output exceeds declared size");
      const std::uint8_t* src = op - distance;
      if (distance >= 16 && op_end - op >= kMaxMatch + 16) {
        // Forward 16-byte blocks: each block reads only bytes written
        // before it, so this is also right when the copy overlaps its
        // source. It may write up to 15 bytes past `len`, inside the
        // slack just checked; later elements overwrite them.
        for (std::size_t i = 0; i < len; i += 16)
          std::memcpy(op + i, src + i, 16);
      } else if (distance >= len) {
        std::memcpy(op, src, len);
      } else {
        // Overlapping copy: forward byte order repeats the last
        // `distance` bytes, as LZ77 requires.
        for (std::size_t i = 0; i < len; ++i) op[i] = src[i];
      }
      op += len;
    } else {
      throw CorruptData("SnappyLike: unknown tag");
    }
  }
  validate(op == op_end, "SnappyLike: size mismatch after decompression");
  return out;
}

}  // namespace blot
