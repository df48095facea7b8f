// Shared LZ77 match finding.
//
// Both dictionary codecs (Gzip-class and LZMA-class) locate back-references
// with a hash-chain matcher: a hash table over 4-byte prefixes whose
// buckets chain all previous occurrences within the window. The codecs
// differ in window size, chain depth (search effort), and in how tokens
// are entropy-coded. All three LZ decoders expand matches through
// AppendMatch.
#ifndef BLOT_CODEC_LZ_COMMON_H_
#define BLOT_CODEC_LZ_COMMON_H_

#include <cstdint>
#include <cstring>
#include <vector>

#include "util/bytes.h"

namespace blot {

// A back-reference of `length` bytes starting `distance` bytes before the
// current position. length == 0 means "no match found".
struct LzMatch {
  std::uint32_t length = 0;
  std::uint32_t distance = 0;
};

// Incremental hash-chain match finder over a fixed input buffer.
//
// Usage: walk positions left to right; at each position call FindMatch()
// and then Insert() for every consumed byte (including those covered by an
// emitted match) so later positions can reference them.
class HashChainMatcher {
 public:
  struct Options {
    std::uint32_t window_size = 32 * 1024;  // max match distance
    std::uint32_t min_match = 3;
    std::uint32_t max_match = 258;
    std::uint32_t max_chain = 32;  // probes per lookup (search effort)
  };

  HashChainMatcher(BytesView input, const Options& options);

  // Finds the longest match ending before `pos` within the window. Only
  // returns matches of at least options.min_match bytes.
  LzMatch FindMatch(std::size_t pos) const;

  // Registers `pos` in the hash chains. Must be called for positions in
  // non-decreasing order.
  void Insert(std::size_t pos);

  const Options& options() const { return options_; }

 private:
  std::uint32_t HashAt(std::size_t pos) const;

  BytesView input_;
  Options options_;
  std::vector<std::int64_t> head_;  // hash bucket -> most recent position
  std::vector<std::int64_t> prev_;  // position -> previous with same hash
};

// Appends the `length` bytes that start `distance` bytes before the end
// of `out`. The caller has checked 1 <= distance <= out.size(). When the
// source overlaps the bytes being written (distance < length) the copy
// runs forward byte by byte, so it replicates the last `distance` bytes
// as LZ77 requires; otherwise it is one memcpy.
inline void AppendMatch(Bytes& out, std::size_t distance, std::size_t length) {
  const std::size_t start = out.size();
  out.insert(out.end(), length, 0);
  std::uint8_t* dst = out.data() + start;
  const std::uint8_t* src = dst - distance;
  if (distance >= length) {
    std::memcpy(dst, src, length);
  } else {
    for (std::size_t i = 0; i < length; ++i) dst[i] = src[i];
  }
}

}  // namespace blot

#endif  // BLOT_CODEC_LZ_COMMON_H_
