// Gzip-class codec contracts that the table-driven decoder must keep:
// the wire format is pinned byte for byte, every truncation of a valid
// frame is rejected as CorruptData rather than crashing or decoding
// garbage, and no match expands a frame past its declared size.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "codec/codec.h"
#include "codec/golden_input.h"
#include "util/error.h"

namespace blot {
namespace {

std::uint64_t Fnv1a64(BytesView bytes) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (std::uint8_t b : bytes) {
    h ^= b;
    h *= 0x100000001b3ull;
  }
  return h;
}

struct Golden {
  CodecKind kind;
  std::size_t size;
  std::uint64_t hash;
};

// Taken from the bit-serial encoder that predates the table-driven
// decoder; any change here is a wire-format change and breaks every
// stored partition.
TEST(CodecWireFormatTest, CompressOutputIsPinned) {
  const Bytes input = GoldenInput();
  const Golden goldens[] = {
      {CodecKind::kSnappyLike, 28020, 0xfc68c71378304f54ull},
      {CodecKind::kGzipLike, 21575, 0x9276c0be31f9ff77ull},
      {CodecKind::kLzmaLike, 18776, 0xffc97d36aaedc624ull},
  };
  for (const Golden& golden : goldens) {
    const Codec& codec = GetCodec(golden.kind);
    const Bytes compressed = codec.Compress(input);
    EXPECT_EQ(compressed.size(), golden.size)
        << CodecKindName(golden.kind);
    EXPECT_EQ(Fnv1a64(compressed), golden.hash)
        << CodecKindName(golden.kind) << " hash 0x" << std::hex
        << Fnv1a64(compressed);
    EXPECT_EQ(codec.Decompress(compressed), input)
        << CodecKindName(golden.kind);
  }
}

TEST(GzipLikeTest, EveryTruncationThrowsCorruptData) {
  const Codec& codec = GetCodec(CodecKind::kGzipLike);
  Bytes input = GoldenInput();
  input.resize(4096);
  const Bytes frame = codec.Compress(input);
  ASSERT_LT(frame.size(), input.size()) << "want a Huffman frame";
  for (std::size_t cut = 0; cut < frame.size(); ++cut) {
    const Bytes truncated(frame.begin(), frame.begin() + cut);
    EXPECT_THROW(codec.Decompress(truncated), CorruptData) << "cut " << cut;
  }
  EXPECT_EQ(codec.Decompress(frame), input);
}

TEST(GzipLikeTest, MatchPastDeclaredSizeIsRejected) {
  // Shrinking the declared size of a valid frame makes its last match
  // overrun the output bound; the decoder must refuse before copying.
  const Codec& codec = GetCodec(CodecKind::kGzipLike);
  const Bytes input(1000, 'a');
  Bytes frame = codec.Compress(input);
  ASSERT_EQ(frame[0], 0xE8);  // varint 1000 = E8 07
  ASSERT_EQ(frame[1], 0x07);
  frame[0] = 0xE0;  // declares 992 bytes
  try {
    codec.Decompress(frame);
    ADD_FAILURE() << "a frame larger than its declared size decoded";
  } catch (const CorruptData& e) {
    EXPECT_NE(std::string(e.what()).find("match overruns declared size"),
              std::string::npos)
        << e.what();
  }
}

}  // namespace
}  // namespace blot
