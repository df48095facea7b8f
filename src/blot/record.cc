#include "blot/record.h"

#include <array>
#include <bit>
#include <charconv>
#include <cstdlib>

#include "util/error.h"

namespace blot {
namespace {

double ParseDouble(const std::string& s) {
  char* end = nullptr;
  const double v = std::strtod(s.c_str(), &end);
  validate(end == s.c_str() + s.size() && !s.empty(),
           "RecordFromCsv: bad floating-point field: " + s);
  return v;
}

template <typename T>
T ParseInteger(const std::string& s) {
  T v{};
  const auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
  validate(ec == std::errc() && ptr == s.data() + s.size(),
           "RecordFromCsv: bad integer field: " + s);
  return v;
}

// The high and low halves of the 128-bit product a*b folded together:
// one multiply spreads each input bit across the whole output word.
std::uint64_t MulFold(std::uint64_t a, std::uint64_t b) {
  const unsigned __int128 product = static_cast<unsigned __int128>(a) * b;
  return static_cast<std::uint64_t>(product) ^
         static_cast<std::uint64_t>(product >> 64);
}

// Every field packed into five 64-bit words, time first. A zero stores as
// +0.0, as the column codecs decode it, so records equal under operator==
// give equal words.
std::array<std::uint64_t, 5> Words(const Record& r) {
  const auto bits = [](double v) {
    return std::bit_cast<std::uint64_t>(v == 0.0 ? 0.0 : v);
  };
  const std::uint32_t speed =
      std::bit_cast<std::uint32_t>(r.speed == 0.0f ? 0.0f : r.speed);
  return {static_cast<std::uint64_t>(r.time), bits(r.x), bits(r.y),
          r.oid | std::uint64_t{r.fare_cents} << 32,
          speed | std::uint64_t{r.heading} << 32 |
              std::uint64_t{r.status} << 48 |
              std::uint64_t{r.passengers} << 56};
}

}  // namespace

std::uint64_t RecordHash(const Record& r) {
  constexpr std::uint64_t kSeed = 0x243F6A8885A308D3ull;  // pi
  constexpr std::uint64_t kMul = 0x9E3779B97F4A7C15ull;   // golden ratio
  std::uint64_t h = kSeed;
  for (const std::uint64_t w : Words(r)) h = MulFold(h ^ w, kMul);
  return h;
}

bool RecordKeyLess(const Record& a, const Record& b) {
  return Words(a) < Words(b);
}

std::uint64_t MultisetDigest(std::span<const Record> records) {
  std::uint64_t sum = 0;
  for (const Record& r : records) sum += RecordHash(r);
  return sum;
}

const std::vector<std::string>& RecordFieldNames() {
  static const std::vector<std::string> names = {
      "oid",     "time",       "lon",    "lat",       "speed",
      "heading", "status",     "passengers", "fare_cents"};
  return names;
}

std::vector<std::string> RecordToCsv(const Record& r) {
  char buffer[64];
  const auto format_double = [&buffer](double v) {
    std::snprintf(buffer, sizeof(buffer), "%.17g", v);
    return std::string(buffer);
  };
  return {std::to_string(r.oid),
          std::to_string(r.time),
          format_double(r.x),
          format_double(r.y),
          format_double(r.speed),
          std::to_string(r.heading),
          std::to_string(r.status),
          std::to_string(r.passengers),
          std::to_string(r.fare_cents)};
}

Record RecordFromCsv(const std::vector<std::string>& fields) {
  validate(fields.size() == RecordFieldNames().size(),
           "RecordFromCsv: wrong field count");
  Record r;
  r.oid = ParseInteger<std::uint32_t>(fields[0]);
  r.time = ParseInteger<std::int64_t>(fields[1]);
  r.x = ParseDouble(fields[2]);
  r.y = ParseDouble(fields[3]);
  r.speed = static_cast<float>(ParseDouble(fields[4]));
  r.heading = ParseInteger<std::uint16_t>(fields[5]);
  r.status = ParseInteger<std::uint8_t>(fields[6]);
  r.passengers = ParseInteger<std::uint8_t>(fields[7]);
  r.fare_cents = ParseInteger<std::uint32_t>(fields[8]);
  return r;
}

}  // namespace blot
