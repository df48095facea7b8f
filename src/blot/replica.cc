#include "blot/replica.h"

#include <algorithm>
#include <chrono>
#include <thread>
#include <utility>

#include <cmath>

#include "codec/simd/dispatch.h"
#include "core/fault_injection.h"
#include "core/partition_cache.h"
#include "obs/metrics.h"
#include "util/error.h"

namespace blot {
namespace {

// Exact TIME x LOC bounding cuboid over `records`, or nullopt when the
// partition is empty or contains a NaN coordinate (no order → no zone).
// Same semantics as the per-block zone maps in layout.cc, one level up.
std::optional<STRange> ComputePartitionZone(
    const std::vector<Record>& records) {
  if (records.empty()) return std::nullopt;
  double x_min = records[0].x, x_max = records[0].x;
  double y_min = records[0].y, y_max = records[0].y;
  std::int64_t t_min = records[0].time, t_max = records[0].time;
  for (const Record& r : records) {
    if (std::isnan(r.x) || std::isnan(r.y)) return std::nullopt;
    x_min = std::min(x_min, r.x);
    x_max = std::max(x_max, r.x);
    y_min = std::min(y_min, r.y);
    y_max = std::max(y_max, r.y);
    t_min = std::min(t_min, r.time);
    t_max = std::max(t_max, r.time);
  }
  return STRange::FromBounds(x_min, x_max, y_min, y_max,
                             static_cast<double>(t_min),
                             static_cast<double>(t_max));
}

// Encodes one partition's records under the replica's encoding config —
// the shared physical-encode step of Build and RestorePartition.
StoredPartition EncodeStoredPartition(const std::vector<Record>& records,
                                      const ReplicaConfig& config) {
  StoredPartition stored;
  stored.num_records = records.size();
  stored.format = LayoutFormat::kBlocked;
  if (const auto zone = ComputePartitionZone(records)) {
    stored.has_zone = true;
    stored.zone = *zone;
  }
  if (config.policy == EncodingPolicy::kBestCodecPerPartition) {
    // Try every codec over the replica's layout and keep the smallest.
    const Bytes serialized = SerializeRecords(records, config.encoding.layout);
    stored.codec = CodecKind::kNone;
    stored.data = GetCodec(CodecKind::kNone).Compress(serialized);
    for (const CodecKind kind : AllCodecKinds()) {
      if (kind == CodecKind::kNone) continue;
      Bytes candidate = GetCodec(kind).Compress(serialized);
      if (candidate.size() < stored.data.size()) {
        stored.data = std::move(candidate);
        stored.codec = kind;
      }
    }
  } else {
    stored.codec = config.encoding.codec;
    stored.data = EncodePartition(records, config.encoding);
  }
  stored.checksum = Fnv1a64(stored.data);
  return stored;
}

}  // namespace

void Replica::InitCacheState(std::size_t num_partitions) {
  cache_id_ = PartitionCache::NextReplicaId();
  verified_ = std::shared_ptr<std::atomic<std::uint8_t>[]>(
      new std::atomic<std::uint8_t>[num_partitions]());
}

Replica::Replica(const Replica& other)
    : config_(other.config_),
      universe_(other.universe_),
      index_(other.index_),
      partitions_(other.partitions_),
      storage_bytes_(other.storage_bytes_),
      num_records_(other.num_records_) {
  // Fresh identity and fresh (unverified) bits; see header.
  InitCacheState(partitions_.size());
}

Replica& Replica::operator=(const Replica& other) {
  if (this == &other) return *this;
  config_ = other.config_;
  universe_ = other.universe_;
  index_ = other.index_;
  partitions_ = other.partitions_;
  storage_bytes_ = other.storage_bytes_;
  num_records_ = other.num_records_;
  InitCacheState(partitions_.size());
  return *this;
}

Replica Replica::Build(const Dataset& dataset, const ReplicaConfig& config,
                       const STRange& universe, ThreadPool* pool) {
  Replica replica;
  replica.config_ = config;
  replica.universe_ = universe;
  replica.num_records_ = dataset.size();

  PartitionedData partitioned =
      PartitionDataset(dataset, config.partitioning, universe);
  replica.index_ = PartitionIndex(std::move(partitioned.ranges));
  replica.partitions_.resize(partitioned.members.size());
  replica.InitCacheState(replica.partitions_.size());

  const auto encode_one = [&](std::size_t i) {
    const auto& members = partitioned.members[i];
    std::vector<Record> records;
    records.reserve(members.size());
    for (std::uint32_t index : members)
      records.push_back(dataset.records()[index]);
    replica.partitions_[i] = EncodeStoredPartition(records, config);
  };
  if (pool != nullptr) {
    pool->ParallelFor(replica.partitions_.size(), encode_one);
  } else {
    for (std::size_t i = 0; i < replica.partitions_.size(); ++i)
      encode_one(i);
  }

  replica.storage_bytes_ = 0;
  for (const StoredPartition& p : replica.partitions_)
    replica.storage_bytes_ += p.data.size();
  return replica;
}

void Replica::VerifyPartition(std::size_t partition) const {
  std::atomic<std::uint8_t>& verified = verified_[partition];
  if (verified.load(std::memory_order_acquire) != 0) return;
  const StoredPartition& stored = partitions_[partition];
  validate(Fnv1a64(stored.data) == stored.checksum,
           "Replica: partition checksum mismatch (corrupt storage unit)");
  verified.store(1, std::memory_order_release);
}

void Replica::MaybeInjectFault(std::size_t partition) const {
  FaultInjector& injector = FaultInjector::Global();
  if (!injector.enabled()) return;
  const StoredPartition& stored = partitions_[partition];
  const FaultDecision decision =
      injector.OnPartitionRead(config_.Name(), partition, stored.data.size());
  if (!decision.fire) return;
  switch (decision.kind) {
    case FaultKind::kReadError:
      throw ReadError("Replica: injected read error on partition " +
                      std::to_string(partition) + " of " + config_.Name());
    case FaultKind::kLatency:
      std::this_thread::sleep_for(std::chrono::milliseconds(decision.param));
      return;
    case FaultKind::kBitFlip:
    case FaultKind::kTruncate:
    case FaultKind::kTornRead: {
      // Corrupt a copy of the read and push it through the real checksum
      // check, so the injected fault exercises exactly the detection path
      // a failing medium would.
      Bytes corrupted = stored.data;
      FaultInjector::ApplyMutation(corrupted, decision.kind, decision.param);
      validate(Fnv1a64(corrupted) == stored.checksum,
               "Replica: partition checksum mismatch (corrupt storage unit)");
      return;
    }
  }
}

std::vector<Record> Replica::DecodePartitionRecords(
    std::size_t partition) const {
  require(partition < partitions_.size(),
          "Replica::DecodePartitionRecords: bad partition");
  MaybeInjectFault(partition);
  VerifyPartition(partition);
  const StoredPartition& stored = partitions_[partition];
  std::vector<Record> records =
      DecodePartition(stored.data, PartitionScheme(stored), stored.format);
  validate(records.size() == stored.num_records,
           "Replica: decoded record count mismatch");
  return records;
}

std::shared_ptr<const std::vector<Record>> Replica::CachedPartitionRecords(
    std::size_t partition, bool* cache_hit) const {
  PartitionCache& cache = PartitionCache::Global();
  if (cache.enabled()) {
    if (auto records = cache.Lookup(cache_id_, partition)) {
      if (cache_hit != nullptr) *cache_hit = true;
      return records;
    }
  }
  if (cache_hit != nullptr) *cache_hit = false;
  std::vector<Record> decoded = DecodePartitionRecords(partition);
  if (!cache.enabled())
    return std::make_shared<const std::vector<Record>>(std::move(decoded));
  return cache.Insert(cache_id_, partition, std::move(decoded));
}

std::vector<Record> Replica::ScanPartitionInRange(
    std::size_t partition, const STRange& query) const {
  return ScanPartitionInRange(partition, query,
                              simd::ZoneMapPruningEnabled(), nullptr);
}

std::vector<Record> Replica::ScanPartitionInRange(
    std::size_t partition, const STRange& query, bool prune_blocks,
    ScanCounters* counters, const CancelToken* cancel) const {
  require(partition < partitions_.size(),
          "Replica::ScanPartitionInRange: bad partition");
  MaybeInjectFault(partition);
  VerifyPartition(partition);
  const StoredPartition& stored = partitions_[partition];
  std::uint64_t total_records = 0;
  std::vector<Record> matches = DecodePartitionInRange(
      stored.data, PartitionScheme(stored), query, &total_records,
      stored.format, prune_blocks, counters, cancel);
  // An interrupted walk left before the end of the stream; the count it
  // covered is by construction short, not corrupt.
  if (counters == nullptr || !counters->interrupted)
    validate(total_records == stored.num_records,
             "Replica: decoded record count mismatch");
  return matches;
}

StoredPartition& Replica::MutablePartition(std::size_t i) {
  require(i < partitions_.size(), "Replica::MutablePartition: bad partition");
  verified_[i].store(0, std::memory_order_release);
  PartitionCache::Global().Invalidate(cache_id_, i);
  return partitions_[i];
}

void PartitionFaults::ThrowIfAny(const ReplicaConfig& replica) const {
  std::vector<std::size_t> faulty;
  std::string details;
  for (const Fault& fault : faults_) {
    if (fault.message.empty()) continue;
    faulty.push_back(fault.partition);
    details += " [p" + std::to_string(fault.partition) + ": " +
               fault.message + "]";
  }
  if (faulty.empty()) return;
  const std::string name = replica.Name();
  throw PartitionFaultError("Replica " + name + ": read faults on " +
                                std::to_string(faulty.size()) +
                                " partition(s):" + details,
                            name, std::move(faulty));
}

QueryResult Replica::Execute(const STRange& query, ThreadPool* pool,
                             obs::QueryProfile* profile) const {
  ScanOptions options;
  options.pool = pool;
  options.profile = profile;
  return Execute(query, options);
}

QueryResult Replica::Execute(const STRange& query,
                             const ScanOptions& options) const {
  ThreadPool* pool = options.pool;
  obs::QueryProfile* profile = options.profile;
  const bool prune =
      options.zone_map_pruning.value_or(simd::ZoneMapPruningEnabled());
  const std::vector<std::size_t> index_involved =
      index_.InvolvedPartitions(query);
  // Partition-level zone skip: the stored zone is the exact bounding
  // cuboid over the partition's records, tighter than the partitioning
  // cell the index tested, so a partition can survive the index and
  // still be provably empty for this query.
  std::vector<std::size_t> involved;
  std::size_t zone_pruned = 0;
  if (prune) {
    involved.reserve(index_involved.size());
    for (const std::size_t p : index_involved) {
      const StoredPartition& sp = partitions_[p];
      if (sp.has_zone && !query.Intersects(sp.zone)) {
        ++zone_pruned;
        continue;
      }
      involved.push_back(p);
    }
  } else {
    involved = index_involved;
  }
  // Excluded partitions (degraded serving around quarantined units) are
  // removed from the scan up front and reported missed.
  std::vector<std::size_t> excluded;
  if (options.exclude_partitions != nullptr &&
      !options.exclude_partitions->empty()) {
    std::vector<std::size_t> kept;
    kept.reserve(involved.size());
    for (const std::size_t p : involved) {
      if (std::binary_search(options.exclude_partitions->begin(),
                             options.exclude_partitions->end(), p)) {
        excluded.push_back(p);
      } else {
        kept.push_back(p);
      }
    }
    involved.swap(kept);
  }
  QueryResult result;

  const CancelToken* cancel = options.cancel;
  const bool use_cache = PartitionCache::Global().enabled();
  const bool profiling = profile != nullptr;
  std::vector<std::vector<Record>> matches(involved.size());
  std::vector<QueryStats> stats(involved.size());
  std::vector<ScanCounters> counters(involved.size());
  // One flag per involved partition: set when the scan never ran (cancel
  // fired before it) or was interrupted mid-partition. Either way the
  // partition counts wholly as missed.
  std::vector<std::uint8_t> skipped(involved.size(), 0);
  if (profiling)
    for (ScanCounters& c : counters) c.timed = true;
  // Sub-stage wall time per partition, merged single-threaded below so
  // the parallel scan never shares a profile accumulator.
  struct PartitionTimes {
    double probe_ms = 0.0, decode_ms = 0.0, filter_ms = 0.0;
  };
  std::vector<PartitionTimes> times(profiling ? involved.size() : 0);
  PartitionFaults faults(involved.size());
  const auto scan_one = [&](std::size_t k) {
    const std::size_t p = involved[k];
    if (cancel != nullptr && cancel->ShouldStop()) {
      skipped[k] = 1;
      return;
    }
    faults.Run(k, p, [&] {
      if (use_cache) {
        bool hit = false;
        const std::uint64_t t0 = profiling ? obs::MonotonicNanos() : 0;
        const auto records = CachedPartitionRecords(p, &hit);
        const std::uint64_t t1 = profiling ? obs::MonotonicNanos() : 0;
        stats[k].records_scanned = records->size();
        stats[k].bytes_read = hit ? 0 : partitions_[p].data.size();
        stats[k].cache_hits = hit ? 1 : 0;
        stats[k].cache_misses = hit ? 0 : 1;
        for (const Record& r : *records)
          if (query.Contains(r.Position())) matches[k].push_back(r);
        if (profiling) {
          const double lookup_ms = double(t1 - t0) * 1e-6;
          // A hit's latency is the probe itself; a miss's is dominated
          // by the decode (+ cache insert) behind the probe.
          (hit ? times[k].probe_ms : times[k].decode_ms) = lookup_ms;
          times[k].filter_ms = double(obs::MonotonicNanos() - t1) * 1e-6;
        }
      } else {
        // Fused decode-filter kernel: no intermediate full-partition
        // vector on this path.
        const std::uint64_t t0 = profiling ? obs::MonotonicNanos() : 0;
        matches[k] = ScanPartitionInRange(p, query, prune, &counters[k],
                                          cancel);
        if (profiling)
          times[k].decode_ms = double(obs::MonotonicNanos() - t0) * 1e-6;
        if (counters[k].interrupted) {
          // Partition-granular coverage: the prefix scanned before the
          // cancellation is discarded so `served` stays exact.
          skipped[k] = 1;
          matches[k].clear();
          return;
        }
        stats[k].records_scanned = partitions_[p].num_records;
        stats[k].bytes_read = partitions_[p].data.size();
      }
    });
  };
  // `workers` is the number of concurrent scan tasks; each walks the
  // involved list with stride `workers`, so the k-indexed merge below is
  // deterministic regardless of scheduling.
  std::size_t workers = involved.size();
  if (options.max_parallelism > 0)
    workers = std::min(workers, options.max_parallelism);
  if (pool != nullptr && workers > 1) {
    const std::size_t n = involved.size();
    pool->ParallelFor(workers, [&](std::size_t w) {
      for (std::size_t k = w; k < n; k += workers) scan_one(k);
    });
  } else {
    for (std::size_t k = 0; k < involved.size(); ++k) scan_one(k);
  }

  faults.ThrowIfAny(config_);

  // Coverage report: exact served/missed partition sets whenever the
  // scan was not complete (cancellation or exclusion).
  std::size_t served_count = 0;
  for (std::size_t k = 0; k < involved.size(); ++k)
    if (skipped[k] == 0) ++served_count;
  result.stats.partitions_scanned = served_count;
  if (served_count < involved.size() || !excluded.empty()) {
    result.truncated = true;
    result.served_partitions.reserve(served_count);
    result.missed_partitions.reserve(involved.size() - served_count +
                                     excluded.size());
    for (std::size_t k = 0; k < involved.size(); ++k) {
      if (skipped[k] == 0)
        result.served_partitions.push_back(involved[k]);
      else
        result.missed_partitions.push_back(involved[k]);
    }
    result.missed_partitions.insert(result.missed_partitions.end(),
                                    excluded.begin(), excluded.end());
    std::sort(result.missed_partitions.begin(),
              result.missed_partitions.end());
  }

  for (std::size_t k = 0; k < involved.size(); ++k) {
    if (skipped[k] != 0) continue;
    result.stats.records_scanned += stats[k].records_scanned;
    result.stats.bytes_read += stats[k].bytes_read;
    result.stats.cache_hits += stats[k].cache_hits;
    result.stats.cache_misses += stats[k].cache_misses;
    result.records.insert(result.records.end(), matches[k].begin(),
                          matches[k].end());
    if (profiling) {
      const std::uint64_t encoded = partitions_[involved[k]].data.size();
      profile->AddStage(obs::Stage::kCacheProbe, times[k].probe_ms,
                        stats[k].cache_hits != 0 ? encoded : 0);
      profile->AddStage(obs::Stage::kDecode, times[k].decode_ms,
                        stats[k].bytes_read);
      profile->AddStage(obs::Stage::kFilter, times[k].filter_ms);
      profile->AddStage(obs::Stage::kZoneMapPrune,
                        double(counters[k].prune_ns) * 1e-6);
      profile->AddStage(obs::Stage::kSimd,
                        double(counters[k].decode_ns) * 1e-6);
      profile->cache_hit_bytes += stats[k].cache_hits != 0 ? encoded : 0;
      profile->cache_miss_bytes += stats[k].bytes_read;
    }
  }
  std::uint64_t blocks_scanned = 0, blocks_pruned = 0;
  for (const ScanCounters& c : counters) {
    blocks_scanned += c.blocks_total - c.blocks_pruned;
    blocks_pruned += c.blocks_pruned;
  }
  if (profiling) {
    profile->partitions_touched += served_count;
    profile->partitions_skipped += partitions_.size() - involved.size();
    profile->partitions_zone_pruned += zone_pruned;
    profile->blocks_scanned += blocks_scanned;
    profile->blocks_pruned += blocks_pruned;
    profile->scan_engine =
        std::string(simd::ScanEngineName(simd::ActiveScanEngine()));
    profile->records_scanned += result.stats.records_scanned;
    profile->cache_hits += result.stats.cache_hits;
    profile->cache_misses += result.stats.cache_misses;
    if (pool != nullptr && workers > 1) profile->parallel_scan = true;
  }
  obs::MetricsRegistry& registry = obs::MetricsRegistry::global();
  if (registry.enabled()) {
    static obs::Counter* blocks_scanned_total =
        &registry.GetCounter("scan.blocks_scanned_total");
    static obs::Counter* blocks_pruned_total =
        &registry.GetCounter("scan.blocks_pruned_total");
    static obs::Counter* zone_pruned_total =
        &registry.GetCounter("scan.partitions_zone_pruned_total");
    static auto* engine_scans = [] {
      auto* counters = new std::array<obs::Counter*, 3>();
      for (std::uint8_t e = 0; e < 3; ++e)
        (*counters)[e] = &obs::MetricsRegistry::global().GetCounter(
            "scan.engine_scans_total",
            {{"engine", std::string(simd::ScanEngineName(
                            static_cast<simd::ScanEngine>(e)))}});
      return counters;
    }();
    blocks_scanned_total->Increment(blocks_scanned);
    blocks_pruned_total->Increment(blocks_pruned);
    zone_pruned_total->Increment(zone_pruned);
    (*engine_scans)[static_cast<std::uint8_t>(simd::ActiveScanEngine())]
        ->Increment();
  }
  return result;
}

void Replica::RestorePartition(std::size_t partition,
                               const std::vector<Record>& records) {
  require(partition < partitions_.size(),
          "Replica::RestorePartition: bad partition");
  StoredPartition& stored = partitions_[partition];
  storage_bytes_ -= stored.data.size();
  num_records_ -= stored.num_records;
  stored = EncodeStoredPartition(records, config_);
  storage_bytes_ += stored.data.size();
  num_records_ += stored.num_records;
  // Decodes cached under the pre-repair identity must never satisfy a
  // post-repair query: drop them and take a fresh process-unique id.
  const std::uint64_t old_id = cache_id_;
  PartitionCache::Global().InvalidateReplica(old_id, partitions_.size());
  InitCacheState(partitions_.size());
  ensure(cache_id_ != old_id,
         "Replica::RestorePartition: cache identity was not refreshed");
}

Dataset Replica::Reconstruct() const {
  Dataset dataset;
  for (std::size_t p = 0; p < partitions_.size(); ++p) {
    for (const Record& r : DecodePartitionRecords(p)) dataset.Append(r);
  }
  return dataset;
}

Replica Replica::FromParts(const ReplicaConfig& config,
                           const STRange& universe,
                           std::vector<STRange> ranges,
                           std::vector<StoredPartition> partitions) {
  require(ranges.size() == partitions.size(),
          "Replica::FromParts: range/partition count mismatch");
  require(ranges.size() == config.partitioning.TotalPartitions(),
          "Replica::FromParts: partition count does not match config");
  Replica replica;
  replica.config_ = config;
  replica.universe_ = universe;
  replica.index_ = PartitionIndex(std::move(ranges));
  replica.partitions_ = std::move(partitions);
  replica.InitCacheState(replica.partitions_.size());
  replica.storage_bytes_ = 0;
  replica.num_records_ = 0;
  for (const StoredPartition& p : replica.partitions_) {
    replica.storage_bytes_ += p.data.size();
    replica.num_records_ += p.num_records;
  }
  return replica;
}

Replica RecoverReplica(const Replica& source,
                       const ReplicaConfig& target_config, ThreadPool* pool) {
  return Replica::Build(source.Reconstruct(), target_config,
                        source.universe(), pool);
}

}  // namespace blot
