// Streaming ingestion on top of the (batch-built) replica set.
//
// BLOT systems are bulk-loaded — partition boundaries come from the data
// distribution — but location tracking data arrives continuously. The
// standard pattern (TrajStore's buffering, LSM-style stores) is a small
// unpartitioned in-memory delta alongside the partitioned replicas:
//
//   * Ingest() appends records to the delta (cheap, no re-partitioning);
//   * queries merge replica results with a delta scan (the delta is kept
//     small, so the extra scan is bounded);
//   * Compact() merges a full replica's records with the delta and
//     rebuilds every replica — the (amortized) heavy step, triggered by
//     a size threshold or explicitly.
//
// This module wraps BlotStore with exactly that lifecycle.
#ifndef BLOT_CORE_STREAMING_H_
#define BLOT_CORE_STREAMING_H_

#include <cstddef>

#include "core/store.h"

namespace blot {

class StreamingStore {
 public:
  // `compact_threshold`: delta size (records) at which Ingest triggers an
  // automatic compaction. 0 disables auto-compaction. The store needs a
  // full replica (built or loaded): it holds the compacted records.
  explicit StreamingStore(BlotStore store,
                          std::size_t compact_threshold = 100000,
                          ThreadPool* pool = nullptr);

  const BlotStore& store() const { return store_; }
  std::size_t DeltaSize() const { return delta_.size(); }
  std::uint64_t TotalRecords() const {
    return store_.replica(full_).NumRecords() + delta_.size();
  }
  std::size_t compactions() const { return compactions_; }

  // Appends one record. The record must lie within the store's universe.
  // Returns true if the append triggered a compaction.
  bool Ingest(const Record& record);

  // Routed range query over replicas plus a delta scan; results cover
  // both compacted and freshly ingested records. Non-const because the
  // underlying store may quarantine and self-heal partitions.
  BlotStore::RoutedResult Execute(const STRange& query,
                                  const CostModel& model);

  // Shared-scan batch over the replicas plus one delta pass covering all
  // queries; per-query results include freshly ingested records.
  BlotStore::RoutedBatchResult ExecuteBatch(std::span<const STRange> queries,
                                            const CostModel& model);

  // Merges the delta with a full replica's records and rebuilds every
  // replica with its existing configuration (full and partial alike).
  void Compact();

 private:
  BlotStore store_;
  std::size_t full_ = 0;  // a full replica of store_
  Dataset delta_;
  std::size_t compact_threshold_;
  std::size_t compactions_ = 0;
  ThreadPool* pool_;
};

}  // namespace blot

#endif  // BLOT_CORE_STREAMING_H_
