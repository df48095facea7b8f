// Bit-level I/O used by the Huffman stage of the Gzip-class codec.
//
// Bits are packed LSB-first within each byte (DEFLATE convention). Both
// sides move whole words: the writer collects bits in a 64-bit
// accumulator and flushes whole bytes, the reader peeks up to 32 bits
// with one unaligned 8-byte load and skips them once they are decoded.
#ifndef BLOT_CODEC_BITSTREAM_H_
#define BLOT_CODEC_BITSTREAM_H_

#include <bit>
#include <cstdint>
#include <cstring>

#include "util/bytes.h"
#include "util/error.h"

namespace blot {

class BitWriter {
 public:
  // Writes the low `count` bits of `bits` (0 <= count <= 32),
  // least-significant bit first.
  void WriteBits(std::uint32_t bits, int count) {
    require(count >= 0 && count <= 32, "BitWriter: bit count out of range");
    pending_ |= (bits & ((std::uint64_t{1} << count) - 1)) << pending_bits_;
    pending_bits_ += count;
    while (pending_bits_ >= 8) {
      buffer_.push_back(static_cast<std::uint8_t>(pending_));
      pending_ >>= 8;
      pending_bits_ -= 8;
    }
  }

  // Pads the current byte with zero bits and returns the buffer.
  Bytes Finish();

  std::size_t BitCount() const { return buffer_.size() * 8 + pending_bits_; }

 private:
  Bytes buffer_;
  std::uint64_t pending_ = 0;  // fewer than 8 bits between calls
  int pending_bits_ = 0;
};

class BitReader {
 public:
  explicit BitReader(BytesView data) : data_(data) {}

  // Returns the next `count` bits (0 <= count <= 32), least-significant
  // bit first, without consuming them. Bits past the end read as zero.
  std::uint32_t Peek(int count) const {
    require(count >= 0 && count <= 32, "BitReader: bit count out of range");
    const std::size_t byte = bit_position_ >> 3;
    std::uint64_t word = 0;
    if (byte + 8 <= data_.size()) {
      std::memcpy(&word, data_.data() + byte, 8);
      if constexpr (std::endian::native == std::endian::big)
        word = __builtin_bswap64(word);
    } else {
      for (std::size_t i = byte; i < data_.size(); ++i)
        word |= std::uint64_t{data_[i]} << (8 * (i - byte));
    }
    // At least 57 valid bits remain after the shift, enough for 32.
    return static_cast<std::uint32_t>((word >> (bit_position_ & 7)) &
                                      ((std::uint64_t{1} << count) - 1));
  }

  // Consumes `count` bits. Throws CorruptData if fewer remain.
  void Skip(int count) {
    validate(static_cast<std::size_t>(count) <= RemainingBits(),
             "BitReader: truncated input");
    bit_position_ += static_cast<std::size_t>(count);
  }

  // Reads `count` bits (0 <= count <= 32), least-significant bit first.
  // Throws CorruptData past end of input.
  std::uint32_t ReadBits(int count) {
    const std::uint32_t bits = Peek(count);
    Skip(count);
    return bits;
  }

  // Number of whole bits still available.
  std::size_t RemainingBits() const {
    return data_.size() * 8 - bit_position_;
  }

 private:
  BytesView data_;
  std::size_t bit_position_ = 0;
};

}  // namespace blot

#endif  // BLOT_CODEC_BITSTREAM_H_
