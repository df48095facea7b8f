// The location-tracking record and its schema.
//
// Paper Section II-A: every record is (OID, TIME, LOC, A1..Am) — three
// core attributes plus dataset-specific common attributes. This library
// fixes a concrete schema modeled on the paper's evaluation dataset, a
// taxi-fleet GPS log with 8 attributes (3 core + 5 common).
#ifndef BLOT_BLOT_RECORD_H_
#define BLOT_BLOT_RECORD_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "util/range.h"

namespace blot {

// One GPS sample from one tracked object.
struct Record {
  // Core attributes.
  std::uint32_t oid = 0;   // object (vehicle) identifier
  std::int64_t time = 0;   // unix seconds
  double x = 0.0;          // longitude, degrees
  double y = 0.0;          // latitude, degrees
  // Common attributes.
  float speed = 0.0f;          // km/h
  std::uint16_t heading = 0;   // degrees clockwise from north, [0, 360)
  std::uint8_t status = 0;     // e.g. 0 = vacant, 1 = occupied
  std::uint8_t passengers = 0;
  std::uint32_t fare_cents = 0;

  STPoint Position() const {
    return {x, y, static_cast<double>(time)};
  }

  friend bool operator==(const Record&, const Record&) = default;
};

// Size of one record in the fixed-width row layout.
inline constexpr std::size_t kRecordRowBytes =
    4 + 8 + 8 + 8 + 4 + 2 + 1 + 1 + 4;

// A 64-bit hash of every field: the fields are packed into five 64-bit
// words, each folded in with one 64x64->128-bit multiply. Records equal
// under operator== hash equally (-0.0 as +0.0); otherwise the float
// fields count by their bits.
std::uint64_t RecordHash(const Record& r);

// A total order over the same packed words, time first (NaN-safe, unlike
// comparing the doubles): records it ranks equivalent hash equally.
bool RecordKeyLess(const Record& a, const Record& b);

// Order-independent digest of a record multiset: the wrap-around sum of
// RecordHash over `records`. Any order of the same records gives the same
// digest, and duplicates add up instead of cancelling (a sum, not an XOR).
std::uint64_t MultisetDigest(std::span<const Record> records);

// Column names in schema order, for CSV headers and diagnostics.
const std::vector<std::string>& RecordFieldNames();

// CSV conversion for one record (fields in RecordFieldNames() order).
std::vector<std::string> RecordToCsv(const Record& r);
Record RecordFromCsv(const std::vector<std::string>& fields);

}  // namespace blot

#endif  // BLOT_BLOT_RECORD_H_
