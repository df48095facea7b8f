#include "core/streaming.h"

#include "util/error.h"

namespace blot {

StreamingStore::StreamingStore(BlotStore store,
                               std::size_t compact_threshold,
                               ThreadPool* pool)
    : store_(std::move(store)),
      compact_threshold_(compact_threshold),
      pool_(pool) {
  while (full_ < store_.NumReplicas() && !store_.IsFullReplica(full_))
    ++full_;
  require(full_ < store_.NumReplicas(),
          "StreamingStore: store needs a full replica");
}

bool StreamingStore::Ingest(const Record& record) {
  require(store_.universe().Contains(record.Position()),
          "StreamingStore::Ingest: record outside universe");
  delta_.Append(record);
  if (compact_threshold_ > 0 && delta_.size() >= compact_threshold_) {
    Compact();
    return true;
  }
  return false;
}

BlotStore::RoutedResult StreamingStore::Execute(
    const STRange& query, const CostModel& model) {
  BlotStore::RoutedResult routed = store_.Execute(query, model, pool_);
  // Fresh records live only in the delta; scan it linearly (bounded by
  // the compaction threshold).
  for (const Record& r : delta_.records()) {
    if (query.Contains(r.Position())) routed.result.records.push_back(r);
  }
  routed.result.stats.records_scanned += delta_.size();
  return routed;
}

BlotStore::RoutedBatchResult StreamingStore::ExecuteBatch(
    std::span<const STRange> queries, const CostModel& model) {
  BlotStore::RoutedBatchResult batch =
      store_.ExecuteBatch(queries, model, pool_);
  for (const Record& r : delta_.records()) {
    const STPoint position = r.Position();
    for (std::size_t q = 0; q < queries.size(); ++q)
      if (queries[q].Contains(position)) batch.per_query[q].push_back(r);
  }
  batch.stats.records_scanned += delta_.size();
  return batch;
}

void StreamingStore::Compact() {
  if (delta_.empty()) return;
  Dataset merged = store_.replica(full_).Reconstruct();
  merged.Append(delta_);

  BlotStore rebuilt(std::move(merged), store_.universe());
  for (std::size_t i = 0; i < store_.NumReplicas(); ++i) {
    const Replica& replica = store_.replica(i);
    if (store_.IsFullReplica(i)) {
      rebuilt.AddReplica(replica.config(), pool_);
    } else {
      rebuilt.AddPartialReplica(replica.config(), replica.universe(),
                                pool_);
    }
  }
  store_ = std::move(rebuilt);
  delta_ = Dataset();
  ++compactions_;
}

}  // namespace blot
