#include "blot/batch.h"

#include <algorithm>
#include <limits>
#include <utility>

#include "core/partition_cache.h"

namespace blot {

BatchResult ExecuteBatch(const Replica& replica,
                         std::span<const STRange> queries,
                         ThreadPool* pool) {
  BatchResult result;
  result.per_query.resize(queries.size());

  // Invert: partition -> queries interested in it. `slot` maps a
  // partition id to its position in the compact `work` list, so the
  // inversion stays O(total involvement) without an ordered map's
  // node allocations.
  constexpr std::uint32_t kUnseen = std::numeric_limits<std::uint32_t>::max();
  std::vector<std::uint32_t> slot(replica.NumPartitions(), kUnseen);
  std::vector<std::pair<std::size_t, std::vector<std::size_t>>> work;
  for (std::size_t q = 0; q < queries.size(); ++q) {
    const std::vector<std::size_t> involved =
        replica.index().InvolvedPartitions(queries[q]);
    result.naive_partition_scans += involved.size();
    for (std::size_t p : involved) {
      if (slot[p] == kUnseen) {
        slot[p] = static_cast<std::uint32_t>(work.size());
        work.emplace_back(p, std::vector<std::size_t>());
      }
      work[slot[p]].second.push_back(q);
    }
  }
  // Scan in ascending partition order so per-query record order matches
  // one-at-a-time execution.
  std::sort(work.begin(), work.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });

  // One decode per partition (served from the decoded-partition cache
  // when enabled); filter into every interested query.
  const bool use_cache = PartitionCache::Global().enabled();
  std::vector<std::vector<std::vector<Record>>> partial(
      work.size(), std::vector<std::vector<Record>>());
  std::vector<QueryStats> stats(work.size());
  PartitionFaults faults(work.size());
  const auto scan_one = [&](std::size_t k) {
    const auto& [p, query_ids] = work[k];
    faults.Run(k, p, [&] {
      bool hit = false;
      const std::shared_ptr<const std::vector<Record>> records =
          replica.CachedPartitionRecords(p, &hit);
      stats[k].records_scanned = records->size();
      stats[k].bytes_read = hit ? 0 : replica.partition(p).data.size();
      if (use_cache) {
        stats[k].cache_hits = hit ? 1 : 0;
        stats[k].cache_misses = hit ? 0 : 1;
      }
      partial[k].resize(query_ids.size());
      for (const Record& r : *records) {
        const STPoint position = r.Position();
        for (std::size_t j = 0; j < query_ids.size(); ++j)
          if (queries[query_ids[j]].Contains(position))
            partial[k][j].push_back(r);
      }
    });
  };
  if (pool != nullptr) {
    pool->ParallelFor(work.size(), scan_one);
  } else {
    for (std::size_t k = 0; k < work.size(); ++k) scan_one(k);
  }
  faults.ThrowIfAny(replica.config());

  result.stats.partitions_scanned = work.size();
  for (std::size_t k = 0; k < work.size(); ++k) {
    result.stats.records_scanned += stats[k].records_scanned;
    result.stats.bytes_read += stats[k].bytes_read;
    result.stats.cache_hits += stats[k].cache_hits;
    result.stats.cache_misses += stats[k].cache_misses;
    const auto& query_ids = work[k].second;
    for (std::size_t j = 0; j < query_ids.size(); ++j) {
      auto& out = result.per_query[query_ids[j]];
      out.insert(out.end(), partial[k][j].begin(), partial[k][j].end());
    }
  }
  return result;
}

}  // namespace blot
