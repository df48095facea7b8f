// Per-query execution state, threaded through the whole execution path.
//
// Before the serving layer existed, BlotStore::Execute interleaved
// routing, scanning, failover and telemetry with ad-hoc locals; under N
// concurrent callers every piece of per-query state must be owned by
// exactly one query. QueryContext is that owner: the profile the scan
// kernels fill, the optional trace span, the attempt log the failover
// loop appends to, and a deterministic per-query RNG — everything that
// belongs to one query and nothing that is shared. The shared structures
// (HealthMap, PartitionCache, metrics registry, drift monitors) are
// internally synchronized; a context is not, because it never crosses
// queries.
//
// Contexts are cheap to construct on the query path: the profile is a
// flat struct and the RNG seeds from the query id, so no global RNG is
// contended. Routing, every attempt of the execution pipeline
// (BlotStore::Drive -> Attempt -> Replica::Execute) and its finish step
// all write into the same context, and BlotStore::Execute moves its
// pieces into the RoutedResult when the query finishes.
#ifndef BLOT_CORE_QUERY_CONTEXT_H_
#define BLOT_CORE_QUERY_CONTEXT_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "obs/profile.h"
#include "obs/trace.h"
#include "util/cancel.h"
#include "util/rng.h"

namespace blot {

// One execution attempt of a query: which replica was tried,
// what happened, and how long it took. RoutedResult carries the full
// log so a caller (or the serving layer's slow-query diagnostics) can
// reconstruct the query's path without re-reading the event log.
struct QueryAttempt {
  std::size_t replica_index = 0;
  std::string replica;      // config name of the attempted replica
  double ms = 0.0;          // wall time of this attempt
  bool success = false;
  std::string fault;        // error text when the attempt failed
};

// Everything owned by exactly one in-flight query.
class QueryContext {
 public:
  // Builds a context for a fresh query: assigns a process-unique query
  // id, derives the per-query RNG from it (deterministic across runs for
  // the same arrival order), and latches whether profiling is on so the
  // execution path checks one bool instead of re-probing the registry.
  static QueryContext ForQuery(obs::TraceSpan* trace) {
    static std::atomic<std::uint64_t> next_id{1};
    QueryContext ctx(next_id.fetch_add(1, std::memory_order_relaxed));
    ctx.trace = trace;
    ctx.profiling =
        obs::MetricsRegistry::global().enabled() || trace != nullptr;
    return ctx;
  }

  std::uint64_t query_id() const { return query_id_; }

  // Per-stage timings and counters, filled by routing, the scan kernels
  // and the execution pipeline (obs/profile.h).
  obs::QueryProfile profile;
  // Caller-owned trace span; null when tracing is off.
  obs::TraceSpan* trace = nullptr;
  // One entry per attempt, in launch order.
  std::vector<QueryAttempt> attempts;
  // Deterministic per-query randomness (event sampling, jitter). Seeded
  // from the query id, so two runs issuing the same queries in the same
  // order draw the same values.
  Rng rng{0};
  // MetricsRegistry::global().enabled() || trace != nullptr, latched at
  // construction.
  bool profiling = false;
  // Cap on partitions scanned concurrently for this query
  // (ScanOptions::max_parallelism); 0 = no cap beyond the pool's width.
  // Snapshotted from the store's setting when the query starts.
  std::size_t max_scan_parallelism = 0;
  // Cooperative cancellation for this query: carries the deadline (when
  // one is set) and is polled at failover-attempt, partition, and block
  // boundaries. Invalid (inert) when the caller set no deadline and
  // hedging is off, so undeadlined queries pay nothing.
  CancelToken cancel;
  // The caller's deadline in milliseconds (0 = none); the enforcing
  // clock lives inside `cancel`, this is kept for error reporting.
  double deadline_ms = 0.0;
  // When true, deadline expiry or unrecoverable partition loss yields a
  // partial RoutedResult with a coverage report instead of an error.
  bool allow_partial = false;
  // Hedged-read threshold in milliseconds (0 = hedging off): if the
  // primary attempt runs past max(hedge_ms, 2x the replica's expected
  // time), a backup attempt races it on the next-cheapest replica.
  double hedge_ms = 0.0;

 private:
  explicit QueryContext(std::uint64_t id) : rng(id), query_id_(id) {}

  std::uint64_t query_id_ = 0;
};

}  // namespace blot

#endif  // BLOT_CORE_QUERY_CONTEXT_H_
