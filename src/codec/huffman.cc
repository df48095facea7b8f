#include "codec/huffman.h"

#include <algorithm>
#include <numeric>
#include <queue>

#include "util/error.h"

namespace blot {
namespace {

// Plain heap-based Huffman tree construction returning per-symbol depths.
std::vector<std::uint8_t> TreeDepths(
    const std::vector<std::uint64_t>& frequencies) {
  struct Node {
    std::uint64_t freq;
    int left;   // node index or -1
    int right;  // node index or -1
    int symbol; // leaf symbol or -1
  };
  std::vector<Node> nodes;
  using HeapItem = std::pair<std::uint64_t, int>;  // (freq, node index)
  std::priority_queue<HeapItem, std::vector<HeapItem>, std::greater<>> heap;
  for (std::size_t s = 0; s < frequencies.size(); ++s) {
    if (frequencies[s] == 0) continue;
    nodes.push_back({frequencies[s], -1, -1, static_cast<int>(s)});
    heap.emplace(frequencies[s], static_cast<int>(nodes.size()) - 1);
  }
  std::vector<std::uint8_t> depths(frequencies.size(), 0);
  if (nodes.empty()) return depths;
  if (nodes.size() == 1) {
    depths[static_cast<std::size_t>(nodes[0].symbol)] = 1;
    return depths;
  }
  while (heap.size() > 1) {
    const auto [fa, a] = heap.top();
    heap.pop();
    const auto [fb, b] = heap.top();
    heap.pop();
    nodes.push_back({fa + fb, a, b, -1});
    heap.emplace(fa + fb, static_cast<int>(nodes.size()) - 1);
  }
  // Iterative depth assignment from the root.
  std::vector<std::pair<int, std::uint8_t>> stack;
  stack.emplace_back(heap.top().second, 0);
  while (!stack.empty()) {
    const auto [idx, depth] = stack.back();
    stack.pop_back();
    const Node& node = nodes[static_cast<std::size_t>(idx)];
    if (node.symbol >= 0) {
      depths[static_cast<std::size_t>(node.symbol)] =
          std::max<std::uint8_t>(depth, 1);
    } else {
      stack.emplace_back(node.left, static_cast<std::uint8_t>(depth + 1));
      stack.emplace_back(node.right, static_cast<std::uint8_t>(depth + 1));
    }
  }
  return depths;
}

}  // namespace

std::vector<std::uint8_t> BuildHuffmanCodeLengths(
    const std::vector<std::uint64_t>& frequencies) {
  // If the unconstrained tree exceeds the length limit, flatten the
  // frequency distribution and retry; this converges because repeated
  // halving drives all frequencies towards 1 (a balanced tree), whose
  // depth ceil(log2(n)) <= 15 for n <= 2^15 symbols.
  require(frequencies.size() <= (std::size_t{1} << kMaxHuffmanBits),
          "BuildHuffmanCodeLengths: alphabet too large for length limit");
  std::vector<std::uint64_t> adjusted = frequencies;
  for (;;) {
    std::vector<std::uint8_t> depths = TreeDepths(adjusted);
    const std::uint8_t max_depth =
        depths.empty() ? 0 : *std::max_element(depths.begin(), depths.end());
    if (max_depth <= kMaxHuffmanBits) return depths;
    for (auto& f : adjusted)
      if (f > 0) f = (f + 1) / 2;
  }
}

namespace {

// Canonical code values: symbols sorted by (length, symbol index) get
// consecutive codes, starting each length at (prev_first + prev_count)<<1.
std::vector<std::uint16_t> CanonicalCodes(
    const std::vector<std::uint8_t>& lengths) {
  std::vector<std::uint16_t> count(kMaxHuffmanBits + 1, 0);
  for (std::uint8_t len : lengths)
    if (len > 0) count[len]++;
  std::vector<std::uint16_t> next_code(kMaxHuffmanBits + 1, 0);
  std::uint32_t code = 0;
  for (int len = 1; len <= kMaxHuffmanBits; ++len) {
    code = (code + count[len - 1]) << 1;
    validate(code + count[len] <= (1u << len) + 0u ||
                 count[len] == 0,
             "CanonicalCodes: over-subscribed code lengths");
    next_code[len] = static_cast<std::uint16_t>(code);
  }
  std::vector<std::uint16_t> codes(lengths.size(), 0);
  for (std::size_t s = 0; s < lengths.size(); ++s) {
    if (lengths[s] == 0) continue;
    codes[s] = next_code[lengths[s]]++;
  }
  return codes;
}

// Reverses the low `length` bits of `code`.
std::uint16_t ReverseBits(std::uint32_t code, int length) {
  std::uint32_t reversed = 0;
  for (int i = 0; i < length; ++i)
    reversed |= ((code >> i) & 1u) << (length - 1 - i);
  return static_cast<std::uint16_t>(reversed);
}

}  // namespace

HuffmanEncoder::HuffmanEncoder(const std::vector<std::uint8_t>& lengths)
    : reversed_codes_(CanonicalCodes(lengths)), lengths_(lengths) {
  for (std::size_t s = 0; s < lengths_.size(); ++s)
    reversed_codes_[s] = ReverseBits(reversed_codes_[s], lengths_[s]);
}

HuffmanDecoder::HuffmanDecoder(const std::vector<std::uint8_t>& lengths)
    : first_code_(kMaxHuffmanBits + 1, 0),
      first_index_(kMaxHuffmanBits + 1, 0),
      count_(kMaxHuffmanBits + 1, 0) {
  require(lengths.size() <= kMaxTableSymbols,
          "HuffmanDecoder: alphabet too large for the decode table");
  for (std::uint8_t len : lengths) {
    validate(len <= kMaxHuffmanBits, "HuffmanDecoder: code length too long");
    if (len > 0) count_[len]++;
  }
  std::uint32_t code = 0;
  std::uint32_t index = 0;
  for (int len = 1; len <= kMaxHuffmanBits; ++len) {
    code = (code + count_[len - 1]) << 1;
    validate(code + count_[len] <= (1u << len),
             "HuffmanDecoder: over-subscribed code lengths");
    first_code_[len] = static_cast<std::uint16_t>(code);
    first_index_[len] = index;
    index += count_[len];
  }
  symbols_.resize(index);
  std::vector<std::uint32_t> next_index(first_index_);
  for (std::size_t s = 0; s < lengths.size(); ++s) {
    if (lengths[s] == 0) continue;
    symbols_[next_index[lengths[s]]++] = static_cast<std::uint32_t>(s);
  }

  // A code of length L <= kTableBits owns every table slot whose low L
  // bits are its reversed code; the high bits are the stream bits after it.
  table_.assign(std::size_t{1} << kTableBits, 0);
  for (int len = 1; len <= kTableBits; ++len) {
    for (std::uint32_t i = 0; i < count_[len]; ++i) {
      const std::uint32_t symbol = symbols_[first_index_[len] + i];
      const auto entry = static_cast<std::uint16_t>(
          (symbol << 4) | static_cast<std::uint32_t>(len));
      for (std::uint32_t slot = ReverseBits(first_code_[len] + i, len);
           slot < table_.size(); slot += 1u << len)
        table_[slot] = entry;
    }
  }
}

std::size_t HuffmanDecoder::ReadLong(BitReader& in) const {
  const std::uint32_t bits = in.Peek(kMaxHuffmanBits);
  std::uint32_t code = 0;
  for (int len = 1; len <= kMaxHuffmanBits; ++len) {
    code = (code << 1) | ((bits >> (len - 1)) & 1u);
    const std::uint32_t offset = code - first_code_[len];
    if (code >= first_code_[len] && offset < count_[len]) {
      in.Skip(len);
      return symbols_[first_index_[len] + offset];
    }
  }
  // No code matches: with fewer than kMaxHuffmanBits bits left that is
  // truncation, as it was when codes were read one bit at a time.
  in.Skip(kMaxHuffmanBits);
  throw CorruptData("HuffmanDecoder: invalid code");
}

}  // namespace blot
