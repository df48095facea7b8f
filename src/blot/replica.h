// A replica r = <D, P, E>: one physical organization of the dataset
// (Definition 4) — records partitioned by a partitioning scheme and each
// partition encoded by an encoding scheme, plus the partitioning index.
//
// Replicas answer range queries by scanning involved partitions
// (Section II-D) and expose their storage size (Definition 5). Because
// every replica stores the same logical record set, any replica can be
// reconstructed from any other (Section II-E's fault-tolerance argument);
// Reconstruct() returns that logical view.
#ifndef BLOT_BLOT_REPLICA_H_
#define BLOT_BLOT_REPLICA_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "blot/dataset.h"
#include "blot/encoding_scheme.h"
#include "blot/partition_index.h"
#include "blot/partitioner.h"
#include "obs/profile.h"
#include "util/error.h"
#include "util/thread_pool.h"

namespace blot {

// Execute() failed on specific storage units of one replica. Derives
// CorruptData (the dominant cause) so legacy catch sites keep working,
// but carries the exact failing partitions so the store can quarantine
// them and fail over to another replica instead of failing the query.
class PartitionFaultError : public CorruptData {
 public:
  PartitionFaultError(const std::string& what, std::string replica,
                      std::vector<std::size_t> partitions)
      : CorruptData(what),
        replica_(std::move(replica)),
        partitions_(std::move(partitions)) {}

  const std::string& replica_name() const { return replica_; }
  const std::vector<std::size_t>& partitions() const { return partitions_; }

 private:
  std::string replica_;
  std::vector<std::size_t> partitions_;
};

// Per-partition encoding policy. The paper's base definition encodes all
// partitions of a replica identically but notes the analysis "can be
// easily generalized for BLOT systems that allow a separate encoding
// scheme for each partition"; kBestCodecPerPartition implements that
// generalization by picking, for every partition, the codec that
// minimizes its encoded size (the layout stays replica-wide).
enum class EncodingPolicy { kUniform, kBestCodecPerPartition };

// A candidate replica configuration: partitioning scheme x encoding
// scheme. This is the unit the replica selection problem chooses among.
struct ReplicaConfig {
  PartitioningSpec partitioning;
  EncodingScheme encoding;
  EncodingPolicy policy = EncodingPolicy::kUniform;

  // Stable identifier, e.g. "KD64xT32/ROW-GZIP" (suffix "+HYBRID" under
  // the per-partition policy).
  std::string Name() const {
    std::string name = partitioning.Name() + "/" + encoding.Name();
    if (policy == EncodingPolicy::kBestCodecPerPartition) name += "+HYBRID";
    return name;
  }

  friend bool operator==(const ReplicaConfig&, const ReplicaConfig&) = default;
};

// Per-partition read faults of one multi-partition scan, shared by
// Replica::Execute and blot::ExecuteBatch. Each slot's scan runs through
// Run(), which records a CorruptData or ReadError instead of aborting the
// scan, so one bad storage unit does not hide the health of the rest.
// ThrowIfAny then names every failing partition at once. Each slot is
// written by one thread only, so a parallel scan needs no lock.
class PartitionFaults {
 public:
  explicit PartitionFaults(std::size_t slots) : faults_(slots) {}

  template <typename Scan>
  void Run(std::size_t slot, std::size_t partition, Scan&& scan) {
    try {
      scan();
    } catch (const CorruptData& e) {
      faults_[slot] = {partition, e.what()};
    } catch (const ReadError& e) {
      faults_[slot] = {partition, e.what()};
    }
  }

  // Throws one PartitionFaultError naming, in slot order, every faulted
  // partition of the scanned replica; returns normally when no slot
  // faulted.
  void ThrowIfAny(const ReplicaConfig& replica) const;

 private:
  struct Fault {
    std::size_t partition = 0;
    std::string message;  // empty = the slot scanned cleanly
  };
  std::vector<Fault> faults_;
};

// One storage unit: an encoded partition plus integrity metadata. `codec`
// is the replica's codec under the uniform policy, or this partition's
// chosen codec under kBestCodecPerPartition. `format` is the wire format
// the payload was serialized with (segments written before zone maps
// existed load as kLegacy). `zone`, when `has_zone`, is the exact min/max
// TIME x LOC cuboid over the partition's records — tighter than the
// partitioning cell, so Execute can skip the whole partition without
// touching its bytes; partitions containing NaN coordinates carry no
// zone and are never skipped.
struct StoredPartition {
  std::uint64_t num_records = 0;
  Bytes data;               // encoded (layout + codec) bytes
  std::uint64_t checksum = 0;  // FNV-1a of `data`
  CodecKind codec = CodecKind::kNone;
  LayoutFormat format = LayoutFormat::kBlocked;
  bool has_zone = false;
  STRange zone;
};

// Per-query execution accounting, the raw inputs of the cost model:
// Cost(q, r) is driven by records scanned and partitions touched (Eq. 7).
struct QueryStats {
  std::size_t partitions_scanned = 0;
  std::uint64_t records_scanned = 0;
  // Encoded bytes actually decoded; partitions served from the decoded-
  // partition cache contribute 0.
  std::uint64_t bytes_read = 0;
  // Partitions served from / missed in the decoded-partition cache
  // (both 0 whenever the global cache is disabled).
  std::size_t cache_hits = 0;
  std::size_t cache_misses = 0;
};

struct QueryResult {
  std::vector<Record> records;
  QueryStats stats;
  // True when the scan did not cover every involved partition — either a
  // cancellation fired (ScanOptions::cancel) or partitions were excluded
  // up front (ScanOptions::exclude_partitions). `records` then covers
  // exactly `served_partitions`; an interrupted partition contributes no
  // records at all (partition-granular coverage, never a silent prefix).
  bool truncated = false;
  // Filled only when truncated: involved partitions fully scanned /
  // not scanned, ascending. Partitions pruned by the index or a zone
  // map are provably empty for the query and appear in neither list.
  std::vector<std::size_t> served_partitions;
  std::vector<std::size_t> missed_partitions;
};

// Knobs for Replica::Execute. Results are byte-identical across every
// combination — these trade time for resources, never answers — except
// `cancel`/`exclude_partitions`, which trade *coverage* for time and
// report exactly what was given up (QueryResult::truncated).
struct ScanOptions {
  // Partitions scan concurrently when non-null.
  ThreadPool* pool = nullptr;
  // Filled with scan sub-stages and counters when non-null.
  obs::QueryProfile* profile = nullptr;
  // Cap on partitions scanned concurrently; 0 = one task per involved
  // partition (the pool's width is the only limit).
  std::size_t max_parallelism = 0;
  // Overrides the process-wide zone-map toggle
  // (simd::ZoneMapPruningEnabled) for this query when set.
  std::optional<bool> zone_map_pruning;
  // Cooperative cancellation, polled before each partition scan and at
  // every block boundary inside it (so a parallel scan stops within one
  // block per worker). A partition whose scan was interrupted counts
  // wholly as missed: its partial matches are discarded so the coverage
  // report stays exact.
  const CancelToken* cancel = nullptr;
  // Involved partitions to skip (sorted ascending); each is reported in
  // missed_partitions. The degraded-serving path uses this to scan
  // around quarantined partitions instead of failing the query.
  const std::vector<std::size_t>* exclude_partitions = nullptr;
};

class Replica {
 public:
  // Builds the physical replica. Every record of `dataset` must lie in
  // `universe`. When `pool` is non-null, partitions are encoded in
  // parallel.
  static Replica Build(const Dataset& dataset, const ReplicaConfig& config,
                       const STRange& universe, ThreadPool* pool = nullptr);

  // Copies get a fresh cache identity: the copy's partitions may be
  // mutated independently, so sharing cache keys could serve one copy's
  // decoded records for the other's bytes. Moves keep the identity (the
  // stored bytes travel with it).
  Replica(const Replica& other);
  Replica& operator=(const Replica& other);
  Replica(Replica&&) noexcept = default;
  Replica& operator=(Replica&&) noexcept = default;

  const ReplicaConfig& config() const { return config_; }
  const PartitionIndex& index() const { return index_; }
  const STRange& universe() const { return universe_; }

  std::size_t NumPartitions() const { return partitions_.size(); }
  std::uint64_t NumRecords() const { return num_records_; }

  // Total encoded bytes across partitions: Storage(r) of Definition 5.
  std::uint64_t StorageBytes() const { return storage_bytes_; }

  // Answers a range query: scans involved partitions and filters records
  // by `query` (Section II-D). Partitions are scanned in parallel when
  // `pool` is non-null. Each involved partition is served from the global
  // PartitionCache when it is enabled (miss: full decode + insert);
  // otherwise through the fused decode-filter kernel, which never
  // materializes non-matching records.
  //
  // Per-partition read faults (CorruptData, ReadError — real or injected)
  // are collected across all involved partitions and rethrown as one
  // PartitionFaultError naming every failing partition, so a caller can
  // quarantine precisely and fail over. Other exceptions propagate as-is.
  //
  // When `profile` is non-null the scan fills in its sub-stages
  // (cache_probe / decode / filter wall time and bytes), partition and
  // cache counters. On the cache path a hit's lookup time lands in
  // cache_probe and a miss's decode+insert in decode; the fused
  // no-cache kernel decodes and filters in one pass, accounted as
  // decode. Under a pool the sub-stages sum CPU time across workers
  // (profile->parallel_scan is set).
  // Before any of that, partitions whose stored zone (see StoredPartition)
  // does not intersect `query` are skipped outright — never read, decoded
  // or fault-injected — and inside surviving blocked-format partitions the
  // per-block zone maps prune non-intersecting blocks. The scan engine
  // (scalar / SSE4.2 / AVX2, picked at startup) decodes the rest.
  QueryResult Execute(const STRange& query, const ScanOptions& options) const;

  // Convenience overload: default ScanOptions with the given pool/profile.
  QueryResult Execute(const STRange& query, ThreadPool* pool = nullptr,
                      obs::QueryProfile* profile = nullptr) const;

  // Decodes one partition, verifying its checksum on first read (later
  // reads skip the hash; MutablePartition re-arms it); throws
  // CorruptData on integrity failure and ReadError on (injected) read
  // failure. When the global FaultInjector is armed it is consulted
  // before verification; injected corruption mutates a copy of the
  // encoded bytes and runs the ordinary checksum check against it.
  std::vector<Record> DecodePartitionRecords(std::size_t partition) const;

  // DecodePartitionRecords through the global PartitionCache: returns the
  // pinned cached entry on a hit, otherwise decodes, caches and returns.
  // When the cache is disabled this is exactly DecodePartitionRecords
  // (wrapped). `cache_hit` (optional) reports which path was taken.
  std::shared_ptr<const std::vector<Record>> CachedPartitionRecords(
      std::size_t partition, bool* cache_hit = nullptr) const;

  // Fused decode-filter scan of one partition: the records of `partition`
  // inside `query`, without materializing the rest (layout.h). Verifies
  // the checksum like DecodePartitionRecords. `prune_blocks` controls the
  // block-level zone map (the two-arg overload follows the process-wide
  // toggle); `counters` (optional) receives block-level accounting;
  // `cancel` (requires `counters`) stops at the next block boundary with
  // `counters->interrupted` set.
  std::vector<Record> ScanPartitionInRange(std::size_t partition,
                                           const STRange& query) const;
  std::vector<Record> ScanPartitionInRange(
      std::size_t partition, const STRange& query, bool prune_blocks,
      ScanCounters* counters, const CancelToken* cancel = nullptr) const;

  const StoredPartition& partition(std::size_t i) const {
    return partitions_[i];
  }

  // Mutable partition access for failure-injection tests and recovery
  // tooling; production query paths never mutate partitions. Re-arms the
  // partition's checksum verification and invalidates its entry in the
  // global PartitionCache, so corruption introduced through the returned
  // reference is detected (never served stale) on the next read.
  StoredPartition& MutablePartition(std::size_t i);

  // Process-unique, never-reused identity for PartitionCache keys.
  std::uint64_t cache_id() const { return cache_id_; }

  // Partition-granular self-healing: replaces partition `partition`'s
  // stored bytes by re-encoding `records` under this replica's config
  // (same per-partition codec policy as Build). The replica takes a fresh
  // cache identity and the old one is invalidated, so a decode cached
  // before the repair can never satisfy a query after it.
  void RestorePartition(std::size_t partition,
                        const std::vector<Record>& records);

  // The shared logical view: every stored record, in partition order.
  // Any other replica can be rebuilt from this (replica recovery).
  Dataset Reconstruct() const;

  // Reassembles a replica from previously persisted parts (see
  // SegmentStore). `ranges` and `partitions` must be index-aligned;
  // counts and checksums are trusted here and re-verified on every read.
  static Replica FromParts(const ReplicaConfig& config,
                           const STRange& universe,
                           std::vector<STRange> ranges,
                           std::vector<StoredPartition> partitions);

 private:
  Replica() = default;

  // The per-partition encoding scheme (layout is replica-wide; the codec
  // may vary under kBestCodecPerPartition).
  EncodingScheme PartitionScheme(const StoredPartition& stored) const {
    return {config_.encoding.layout, stored.codec};
  }
  // Checksum verification with a sticky verified bit: the FNV-1a pass
  // over the encoded bytes runs on the first read of each partition and
  // is skipped afterwards. MutablePartition clears the bit.
  void VerifyPartition(std::size_t partition) const;
  // Consults the global FaultInjector for this read (no-op when it is
  // disarmed): may throw ReadError, sleep (latency spike), or verify a
  // deterministically corrupted copy of the encoded bytes, surfacing the
  // fault as the same CorruptData a real media error would produce.
  void MaybeInjectFault(std::size_t partition) const;
  void InitCacheState(std::size_t num_partitions);

  ReplicaConfig config_;
  STRange universe_;
  PartitionIndex index_;
  std::vector<StoredPartition> partitions_;
  std::uint64_t storage_bytes_ = 0;
  std::uint64_t num_records_ = 0;
  std::uint64_t cache_id_ = 0;
  // Shared (not unique) so Replica stays copyable; copies sharing
  // verified bits is benign — the bits only ever skip a re-hash of bytes
  // that were already verified.
  std::shared_ptr<std::atomic<std::uint8_t>[]> verified_;
};

// Rebuilds a replica with `target_config` from the logical view of
// `source` — the diverse-replica recovery path of Section II-E: "diverse
// replicas can recover each other when failures occur because they share
// the same logical view of the data."
Replica RecoverReplica(const Replica& source, const ReplicaConfig& target_config,
                       ThreadPool* pool = nullptr);

}  // namespace blot

#endif  // BLOT_BLOT_REPLICA_H_
