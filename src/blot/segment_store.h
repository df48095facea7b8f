// Persistent storage-unit layer backed by the local filesystem.
//
// Paper Section II-B: "a storage unit can be an object stored in Amazon
// S3, a file on HDFS, a segment of a file on a local file system". This
// module implements the last option: a replica is persisted as one data
// file holding every encoded partition back to back, plus a manifest
// recording the replica configuration, partition ranges, offsets, record
// counts, and checksums (the partitioning index, made durable).
//
// Layout under the replica directory:
//   manifest.blot   header + per-partition metadata
//   segments.dat    concatenated encoded partitions
//
// Writes are crash-safe: both files are written to *.tmp and renamed into
// place, manifest last, so a torn write leaves either the old replica or
// no replica — never a manifest pointing at missing data. Loads verify
// magic, version, and per-partition checksums lazily (checksums are
// re-verified by Replica on every partition read).
#ifndef BLOT_BLOT_SEGMENT_STORE_H_
#define BLOT_BLOT_SEGMENT_STORE_H_

#include <filesystem>

#include "blot/replica.h"
#include "util/bytes.h"

namespace blot {

// Writes through `path`.tmp and a rename, checking the stream, so a
// failed or short write throws and leaves the old file in place.
void WriteFileAtomically(const std::filesystem::path& path,
                         const Bytes& contents);
// A manifest ends in the FNV-1a checksum of its body; returns the body
// once verified (CorruptData on mismatch, ReadError if unreadable).
Bytes ReadManifestBody(const std::filesystem::path& path);
// A range as its six bounds, as manifests store it.
void PutRange(ByteWriter& w, const STRange& r);
STRange GetRange(ByteReader& r);  // rejects inverted bounds

class SegmentStore {
 public:
  // Persists `replica` under `directory` (created if missing),
  // atomically replacing any previous replica stored there.
  static void Save(const Replica& replica,
                   const std::filesystem::path& directory);

  // Loads a previously saved replica. Throws CorruptData on malformed or
  // truncated files and InvalidArgument if `directory` has no manifest.
  static Replica Load(const std::filesystem::path& directory);

  // True if `directory` contains a manifest.
  static bool Exists(const std::filesystem::path& directory);

  // Bytes on disk (manifest + segments) for a saved replica.
  static std::uintmax_t DiskBytes(const std::filesystem::path& directory);
};

}  // namespace blot

#endif  // BLOT_BLOT_SEGMENT_STORE_H_
