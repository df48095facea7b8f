// Shared-scan batch query execution.
//
// Analytical workloads issue many range queries at once — the paper's own
// example is grid-cell statistics ("users use an equal-sized grid to
// decompose the space and then conduct simple statistics for each grid
// cell", Section III-C1) — and neighbouring queries involve overlapping
// partitions. Executing the batch with one decode per involved partition
// divides the dominant cost (decompression) by the overlap factor, the
// classic shared-scan optimization.
#ifndef BLOT_BLOT_BATCH_H_
#define BLOT_BLOT_BATCH_H_

#include <span>
#include <vector>

#include "blot/replica.h"

namespace blot {

struct BatchResult {
  // per_query[i]: the records matching queries[i].
  std::vector<std::vector<Record>> per_query;
  // Accounting for the shared scan actually performed.
  QueryStats stats;
  // Sum of per-query involved-partition counts — what one-at-a-time
  // execution would have scanned. stats.partitions_scanned / this ratio
  // is the sharing factor.
  std::size_t naive_partition_scans = 0;
};

// Answers every query in `queries`, decoding each involved partition
// exactly once (in parallel when `pool` is non-null). Result order
// follows `queries`. Read faults are collected across every involved
// partition and rethrown as one PartitionFaultError naming each failing
// partition, exactly as Replica::Execute reports them.
BatchResult ExecuteBatch(const Replica& replica,
                         std::span<const STRange> queries,
                         ThreadPool* pool = nullptr);

}  // namespace blot

#endif  // BLOT_BLOT_BATCH_H_
