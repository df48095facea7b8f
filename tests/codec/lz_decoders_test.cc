// Snappy-class and LZMA-class decoder contracts: every truncation of a
// valid frame and every malformed element is rejected as CorruptData,
// no match expands a frame past its declared size, and the pointer-based
// decoders return exactly what the pre-rewrite decoders
// (codec/reference_decoders.h) return, or throw where those throw.
#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <vector>

#include "codec/codec.h"
#include "codec/golden_input.h"
#include "codec/reference_decoders.h"
#include "util/error.h"
#include "util/rng.h"

namespace blot {
namespace {

const Codec& Snappy() { return GetCodec(CodecKind::kSnappyLike); }
const Codec& Lzma() { return GetCodec(CodecKind::kLzmaLike); }

// Expects Decompress(frame) to throw CorruptData whose message contains
// `what`.
void ExpectCorrupt(const Codec& codec, const Bytes& frame,
                   const std::string& what) {
  try {
    codec.Decompress(frame);
    ADD_FAILURE() << "decoded, want CorruptData \"" << what << "\"";
  } catch (const CorruptData& e) {
    EXPECT_NE(std::string(e.what()).find(what), std::string::npos)
        << e.what() << " (want \"" << what << "\")";
  }
}

void ExpectEveryTruncationThrows(const Codec& codec) {
  Bytes input = GoldenInput();
  input.resize(4096);
  const Bytes frame = codec.Compress(input);
  for (std::size_t cut = 0; cut < frame.size(); ++cut) {
    const Bytes truncated(frame.begin(), frame.begin() + cut);
    EXPECT_THROW(codec.Decompress(truncated), CorruptData) << "cut " << cut;
  }
  EXPECT_EQ(codec.Decompress(frame), input);
}

TEST(SnappyLikeTest, EveryTruncationThrowsCorruptData) {
  ExpectEveryTruncationThrows(Snappy());
}

TEST(LzmaLikeTest, EveryTruncationThrowsCorruptData) {
  ExpectEveryTruncationThrows(Lzma());
}

// Shrinking the declared size of a valid frame makes its last match
// overrun the output bound; the decoder must refuse before copying.
Bytes FrameDeclaringLess(const Codec& codec) {
  Bytes frame = codec.Compress(Bytes(1000, 'a'));
  EXPECT_EQ(frame[0], 0xE8);  // varint 1000 = E8 07
  EXPECT_EQ(frame[1], 0x07);
  frame[0] = 0xE0;  // declares 992 bytes
  return frame;
}

TEST(SnappyLikeTest, MatchPastDeclaredSizeIsRejected) {
  ExpectCorrupt(Snappy(), FrameDeclaringLess(Snappy()),
                "output exceeds declared size");
}

TEST(LzmaLikeTest, MatchPastDeclaredSizeIsRejected) {
  ExpectCorrupt(Lzma(), FrameDeclaringLess(Lzma()),
                "match overruns declared size");
}

// Hand-made frames, one per CorruptData case of the tag loop. Tags:
// literal (len-1) << 2 (61/62 << 2 take one/two length bytes), copy
// ((len-4) << 2) | 2 plus a 2-byte LE distance.
TEST(SnappyLikeTest, EveryMalformedElementThrows) {
  const Codec& codec = Snappy();
  ExpectCorrupt(codec, {}, "truncated");
  ExpectCorrupt(codec, {0x01, 0x01}, "unknown tag");
  ExpectCorrupt(codec, {0x01, 0x03}, "unknown tag");
  ExpectCorrupt(codec, {0x01, 63 << 2, 'a'}, "bad literal tag");
  ExpectCorrupt(codec, {0x05, 4 << 2, 'a', 'b'}, "truncated literal");
  ExpectCorrupt(codec, {0x05, 61 << 2}, "truncated literal");
  ExpectCorrupt(codec, {0x05, 62 << 2, 0x04}, "truncated literal");
  ExpectCorrupt(codec, {0x05, 0x00, 'a', 0x02, 0x01}, "truncated copy");
  ExpectCorrupt(codec, {0x05, 0x00, 'a', 0x02, 0x02, 0x00},
                "copy distance out of range");
  ExpectCorrupt(codec, {0x05, 0x00, 'a', 0x02, 0x00, 0x00},
                "copy distance out of range");
  ExpectCorrupt(codec, {0x01, 1 << 2, 'a', 'b'},
                "output exceeds declared size");
  ExpectCorrupt(codec, {0x04, 0x00, 'a', 0x02, 0x01, 0x00},
                "output exceeds declared size");
  ExpectCorrupt(codec, {0x03, 1 << 2, 'a', 'b'}, "size mismatch");
  ExpectCorrupt(codec, {0x7F, 0x00, 'a'}, "implausible declared size");
  // The same shapes, well formed, decode.
  EXPECT_EQ(codec.Decompress(Bytes{0x05, 0x00, 'a', 0x02, 0x01, 0x00}),
            Bytes(5, 'a'));
  EXPECT_EQ(codec.Decompress(Bytes{0x02, 61 << 2, 0x01, 'a', 'b'}),
            (Bytes{'a', 'b'}));
  EXPECT_EQ(codec.Decompress(Bytes{0x02, 62 << 2, 0x01, 0x00, 'a', 'b'}),
            (Bytes{'a', 'b'}));
}

// --- Differential: production decoder vs pre-rewrite reference. ---

using Decoder = Bytes (*)(BytesView);

class CodecDifferentialTest : public ::testing::TestWithParam<CodecKind> {
 protected:
  const Codec& codec() const { return GetCodec(GetParam()); }

  Decoder reference() const {
    return GetParam() == CodecKind::kSnappyLike
               ? &reference::SnappyLikeDecompress
               : &reference::LzmaLikeDecompress;
  }

  // Both decoders return the same bytes or both throw CorruptData, with
  // one deliberate difference: the production LZMA-class decoder rejects
  // a stream it had to read past the end of ("truncated stream"), where
  // the reference decoded the zeros it read there as symbols.
  void ExpectSameAsReference(BytesView frame, const std::string& what) {
    std::optional<Bytes> got, want;
    std::string error;
    try {
      got = codec().Decompress(frame);
    } catch (const CorruptData& e) {
      error = e.what();
    }
    try {
      want = reference()(frame);
    } catch (const CorruptData&) {
    }
    if (!got && want && GetParam() == CodecKind::kLzmaLike &&
        error == "LzmaLike: truncated stream")
      return;
    ASSERT_EQ(got.has_value(), want.has_value())
        << what << ": production " << (got ? "decoded" : "threw " + error)
        << ", reference " << (want ? "decoded" : "threw");
    if (got) {
      EXPECT_TRUE(*got == *want) << what << ": outputs differ";
    }
  }
};

std::vector<Bytes> RoundTripCorpora() {
  Rng rng(131);
  std::vector<Bytes> corpora = {Bytes{}, Bytes{0x42}, Bytes(100000, 0x7)};
  Bytes all_values(256);
  for (int i = 0; i < 256; ++i) all_values[i] = static_cast<std::uint8_t>(i);
  corpora.push_back(all_values);
  const std::string phrases[] = {"taxi-0042,", "31.2304,121.4737,",
                                 "2007-11-0", "occupied,"};
  for (std::size_t size : {3u, 64u, 257u, 4096u, 70000u}) {
    Bytes random(size), repetitive;
    for (auto& b : random) b = static_cast<std::uint8_t>(rng.NextUint64(256));
    while (repetitive.size() < size) {
      const std::string& p = phrases[rng.NextUint64(4)];
      repetitive.insert(repetitive.end(), p.begin(), p.end());
    }
    corpora.push_back(random);
    corpora.push_back(repetitive);
  }
  return corpora;
}

TEST_P(CodecDifferentialTest, RoundTripCorporaAndGoldenInput) {
  std::vector<Bytes> corpora = RoundTripCorpora();
  corpora.push_back(GoldenInput());
  for (std::size_t i = 0; i < corpora.size(); ++i) {
    const Bytes frame = codec().Compress(corpora[i]);
    ExpectSameAsReference(frame, "corpus " + std::to_string(i));
    EXPECT_TRUE(codec().Decompress(frame) == corpora[i]) << "corpus " << i;
  }
}

TEST_P(CodecDifferentialTest, EverySingleBitFlip) {
  Bytes input = GoldenInput();
  input.resize(1024);
  const Bytes frame = codec().Compress(input);
  for (std::size_t bit = 0; bit < frame.size() * 8; ++bit) {
    Bytes flipped = frame;
    flipped[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
    ExpectSameAsReference(flipped, "bit " + std::to_string(bit));
    if (HasFatalFailure()) return;
  }
}

TEST_P(CodecDifferentialTest, RandomGarbage) {
  Rng rng(137);
  for (int trial = 0; trial < 300; ++trial) {
    Bytes garbage(rng.NextUint64(2000));
    for (auto& b : garbage) b = static_cast<std::uint8_t>(rng.NextUint64(256));
    ExpectSameAsReference(garbage, "trial " + std::to_string(trial));
    if (HasFatalFailure()) return;
  }
}

INSTANTIATE_TEST_SUITE_P(
    RewrittenDecoders, CodecDifferentialTest,
    ::testing::Values(CodecKind::kSnappyLike, CodecKind::kLzmaLike),
    [](const ::testing::TestParamInfo<CodecKind>& info) {
      return std::string(CodecKindName(info.param));
    });

}  // namespace
}  // namespace blot
