// The seeded input the codec wire-format and robustness tests share.
#ifndef BLOT_TESTS_CODEC_GOLDEN_INPUT_H_
#define BLOT_TESTS_CODEC_GOLDEN_INPUT_H_

#include <cstdint>

#include "util/bytes.h"
#include "util/rng.h"

namespace blot {

// Binary rows resembling encoded GPS records, interleaved with runs of
// repeated phrases, so a frame holds literals, short and long matches,
// overlapping copies and both short and long Huffman codes.
inline Bytes GoldenInput() {
  Rng rng(20071101);
  Bytes data;
  std::uint32_t time = 1193875200;
  std::uint32_t lat = 31000000, lon = 121000000;
  while (data.size() < 48 * 1024) {
    time += static_cast<std::uint32_t>(rng.NextUint64(60));
    lat += static_cast<std::uint32_t>(rng.NextInt64(-500, 500));
    lon += static_cast<std::uint32_t>(rng.NextInt64(-500, 500));
    for (std::uint32_t v : {time, lat, lon})
      for (int i = 0; i < 4; ++i)
        data.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    if (rng.NextUint64(16) == 0) {
      const std::size_t run = 1 + rng.NextUint64(300);
      const std::uint8_t b = static_cast<std::uint8_t>(rng.NextUint64(256));
      data.insert(data.end(), run, b);
    }
  }
  return data;
}

}  // namespace blot

#endif  // BLOT_TESTS_CODEC_GOLDEN_INPUT_H_
