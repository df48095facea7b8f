// High-ratio LZ codec (LZMA design point): deep LZ77 search over a 1 MiB
// window, with all tokens entropy-coded by an adaptive binary range coder.
//
// Model (a simplified LZMA):
//   - one adaptive is-match bit per token;
//   - literals coded through an order-1 context (previous byte) over a
//     256-leaf bit tree;
//   - match lengths 3..258 coded through a 256-leaf bit tree;
//   - distances coded as a 6-bit slot (bit tree), the LZMA
//     distance-slot scheme, plus the slot's low bits, each under an
//     adaptive probability of its own.
//
// Frame layout: varint uncompressed size, then the range-coded stream.
#ifndef BLOT_CODEC_LZMA_LIKE_H_
#define BLOT_CODEC_LZMA_LIKE_H_

#include "codec/codec.h"

namespace blot {

class LzmaLikeCodec final : public Codec {
 public:
  CodecKind kind() const override { return CodecKind::kLzmaLike; }
  Bytes Compress(BytesView input) const override;
  Bytes Decompress(BytesView input) const override;
};

}  // namespace blot

#endif  // BLOT_CODEC_LZMA_LIKE_H_
