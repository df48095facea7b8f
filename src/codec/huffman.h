// Canonical Huffman coding (DEFLATE-style, MSB-first code bits).
//
// Used by the Gzip-class codec: code lengths are derived from symbol
// frequencies with a 15-bit length limit, transmitted in the frame header,
// and both sides reconstruct identical canonical codes from the lengths.
#ifndef BLOT_CODEC_HUFFMAN_H_
#define BLOT_CODEC_HUFFMAN_H_

#include <cstdint>
#include <vector>

#include "codec/bitstream.h"
#include "util/error.h"

namespace blot {

inline constexpr int kMaxHuffmanBits = 15;

// Computes canonical code lengths (<= kMaxHuffmanBits) for the given
// symbol frequencies. Symbols with zero frequency get length 0 (no code).
// If only one symbol occurs it is assigned length 1.
std::vector<std::uint8_t> BuildHuffmanCodeLengths(
    const std::vector<std::uint64_t>& frequencies);

// Encoder table: canonical code bits per symbol, derived from lengths.
// Codes are stored bit-reversed so the MSB-first code goes out in one
// LSB-first WriteBits call.
class HuffmanEncoder {
 public:
  explicit HuffmanEncoder(const std::vector<std::uint8_t>& lengths);

  // Writes the code for `symbol` (which must have a non-zero length).
  void Write(BitWriter& out, std::size_t symbol) const {
    ensure(symbol < lengths_.size() && lengths_[symbol] > 0,
           "HuffmanEncoder: symbol has no code");
    out.WriteBits(reversed_codes_[symbol], lengths_[symbol]);
  }

 private:
  std::vector<std::uint16_t> reversed_codes_;
  std::vector<std::uint8_t> lengths_;
};

// Decoder table over the same canonical code.
class HuffmanDecoder {
 public:
  // Codes up to this many bits decode with one primary-table lookup.
  static constexpr int kTableBits = 10;
  // Table entries hold the symbol above a 4-bit length in 16 bits.
  static constexpr std::size_t kMaxTableSymbols = std::size_t{1} << 12;

  // Throws CorruptData if `lengths` does not describe a prefix code.
  explicit HuffmanDecoder(const std::vector<std::uint8_t>& lengths);

  // Reads one symbol. Throws CorruptData on invalid codes or truncation.
  std::size_t Read(BitReader& in) const {
    const std::uint16_t entry = table_[in.Peek(kTableBits)];
    const int length = entry & 0xF;
    if (length == 0) return ReadLong(in);
    in.Skip(length);
    return entry >> 4;
  }

 private:
  // Canonical walk over the next kMaxHuffmanBits bits, for codes longer
  // than kTableBits and for bit patterns no code covers.
  std::size_t ReadLong(BitReader& in) const;

  // Indexed by the next kTableBits stream bits: (symbol << 4) | length
  // for codes of at most kTableBits bits, 0 otherwise.
  std::vector<std::uint16_t> table_;
  std::vector<std::uint16_t> first_code_;   // per bit length
  std::vector<std::uint32_t> first_index_;  // per bit length
  std::vector<std::uint16_t> count_;        // per bit length
  std::vector<std::uint32_t> symbols_;      // sorted by (length, symbol)
};

}  // namespace blot

#endif  // BLOT_CODEC_HUFFMAN_H_
