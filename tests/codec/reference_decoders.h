// The Snappy-class and LZMA-class decoders as they were before the
// pointer-based rewrite, kept as test-only references: a tag loop that
// reads every element through ByteReader, and a range decoder that makes
// an out-of-line call per bit and normalizes in a `while` loop. The
// differential tests require the production decoders to return exactly
// what these return, or to throw CorruptData where these throw it.
#ifndef BLOT_TESTS_CODEC_REFERENCE_DECODERS_H_
#define BLOT_TESTS_CODEC_REFERENCE_DECODERS_H_

#include "util/bytes.h"

namespace blot::reference {

Bytes SnappyLikeDecompress(BytesView input);
Bytes LzmaLikeDecompress(BytesView input);

}  // namespace blot::reference

#endif  // BLOT_TESTS_CODEC_REFERENCE_DECODERS_H_
