// BlotStore: a BLOT storage system with diverse replicas (Figure 2).
//
// Holds the dataset's materialized replicas, routes each range query to
// the replica with the least estimated cost ("query cost estimation helps
// the system to determine which one of the existing replicas is supposed
// to have the least processing time for the issued query"), executes it
// for real, and recovers lost replicas from any healthy one.
//
// Fault tolerance (Section II-E, docs/robustness.md): the store tracks
// per-replica, per-partition health. A read fault during execution
// quarantines exactly the failing partitions and the query fails over to
// the next-cheapest covering replica; quarantined partitions are repaired
// from the other replicas (partition-granular, verified by a per-partition
// digest; full rebuild otherwise) per the configured FailoverPolicy. A query only fails — with
// a structured QueryFailedError naming the lost partitions — when every
// replica's copy of a needed partition is gone.
#ifndef BLOT_CORE_STORE_H_
#define BLOT_CORE_STORE_H_

#include <filesystem>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <span>
#include <string>
#include <vector>

#include "core/cost_model.h"
#include "core/drift.h"
#include "core/health.h"
#include "core/latency_map.h"
#include "core/query_context.h"
#include "obs/drift_monitor.h"
#include "obs/profile.h"
#include "obs/trace.h"
#include "util/error.h"
#include "util/thread_pool.h"

namespace blot {

// Every covering replica's copy of some partition the query needs is
// quarantined: the query cannot be answered until repair succeeds. Not a
// CorruptData — the store detected and contained the corruption; this is
// an availability failure, and it names exactly what is unavailable.
class QueryFailedError : public Error {
 public:
  struct Lost {
    std::size_t replica = 0;
    std::size_t partition = 0;
  };

  QueryFailedError(const std::string& what, std::vector<Lost> lost)
      : Error(what), lost_(std::move(lost)) {}

  // The quarantined (replica, partition) pairs that blocked the query.
  const std::vector<Lost>& lost() const { return lost_; }

 private:
  std::vector<Lost> lost_;
};

// The query's deadline expired before a complete answer was assembled
// and the caller did not opt into partial results. Reports how far the
// query got: attempts spent and the served/missed partition split of the
// furthest attempt, so callers can distinguish "barely missed" (one
// partition short) from "never started" (admission queue ate the whole
// budget).
class DeadlineExceededError : public Error {
 public:
  DeadlineExceededError(const std::string& what, double deadline_ms,
                        std::size_t attempts, std::size_t partitions_served,
                        std::size_t partitions_missed)
      : Error(what),
        deadline_ms_(deadline_ms),
        attempts_(attempts),
        partitions_served_(partitions_served),
        partitions_missed_(partitions_missed) {}

  double deadline_ms() const { return deadline_ms_; }
  std::size_t attempts() const { return attempts_; }
  // Partition coverage of the furthest attempt when the deadline hit.
  std::size_t partitions_served() const { return partitions_served_; }
  std::size_t partitions_missed() const { return partitions_missed_; }

 private:
  double deadline_ms_ = 0.0;
  std::size_t attempts_ = 0;
  std::size_t partitions_served_ = 0;
  std::size_t partitions_missed_ = 0;
};

// What the store does about quarantined partitions after a query.
enum class RepairMode {
  kNone,        // leave them quarantined; caller runs RepairQuarantined
  kSync,        // repair inline before Execute returns
  kBackground,  // enqueue repair on the query's ThreadPool
};

struct FailoverPolicy {
  // Maximum replicas tried per query (including the first).
  std::size_t max_attempts = 4;
  RepairMode repair = RepairMode::kSync;
  // Partitions repaired per sweep; 0 means every quarantined partition.
  std::size_t repair_budget = 0;
};

class BlotStore {
 public:
  // `universe` defaults to the dataset's bounding box. The dataset is
  // only the replicas' build input, held in memory and never persisted.
  explicit BlotStore(Dataset dataset,
                     std::optional<STRange> universe = std::nullopt);

  // Waits for outstanding background repairs.
  ~BlotStore();

  // Moves wait for the source's (and, on assignment, the target's)
  // outstanding background repairs first: repair tasks capture the
  // store's address, so transferring the state out from under a running
  // task would leave it dereferencing a gutted object. (The previously
  // defaulted moves did exactly that — see the regression test.) Moving
  // while queries are concurrently executing remains undefined, as for
  // any standard container.
  BlotStore(BlotStore&& other) noexcept;
  BlotStore& operator=(BlotStore&& other) noexcept;

  const STRange& universe() const { return universe_; }

  // Builds and adds a replica; returns its index. Rejects duplicates.
  // A loaded store reads the records from a replica covering them.
  std::size_t AddReplica(const ReplicaConfig& config,
                         ThreadPool* pool = nullptr);

  // Builds and adds a partial replica materializing only the records
  // inside `coverage` (Section VII's partial replication). Partial
  // replicas only serve queries fully contained in their coverage; at
  // least one full replica must exist before partials can be routed to.
  std::size_t AddPartialReplica(const ReplicaConfig& config,
                                const STRange& coverage,
                                ThreadPool* pool = nullptr);

  // True if replica `i` covers the whole universe.
  bool IsFullReplica(std::size_t i) const;

  std::size_t NumReplicas() const { return replicas_.size(); }
  const Replica& replica(std::size_t i) const;
  // Mutable replica access for failure injection and recovery tooling
  // (see Replica::MutablePartition); production query paths never use it.
  Replica& mutable_replica(std::size_t i);
  std::uint64_t TotalStorageBytes() const;

  // Policy reads/writes synchronize on the store's state mutex, so the
  // policy may be retuned while queries are in flight (each query sees
  // a consistent snapshot taken when it starts).
  FailoverPolicy failover_policy() const;
  void SetFailoverPolicy(const FailoverPolicy& policy);

  // Cap on partitions one query scans concurrently (Replica::ScanOptions
  // ::max_parallelism); 0 = no cap beyond the pool's width. Lets a
  // deployment bound per-query fan-out so one broad query cannot occupy
  // the whole scan pool. Synchronizes like the failover policy.
  std::size_t max_scan_parallelism() const;
  void SetMaxScanParallelism(std::size_t cap);

  // The per-replica, per-partition health map driving routing and repair.
  const HealthMap& health() const { return *health_; }

  // Per-replica latency EWMAs feeding hedged-read thresholds and brownout
  // deprioritization in routing (core/latency_map.h).
  const LatencyMap& latency() const { return *latency_; }

  // Continuous telemetry fed by every routed query: per-replica cost-
  // model error windows (cost_drift.alert events on threshold breach)
  // and a decayed live-workload estimate checked against the reference
  // workload (drift.workload_distance gauge, workload_drift.* events).
  const obs::CostDriftMonitor& cost_drift_monitor() const {
    return telemetry_->cost_drift;
  }
  // The live workload's distance from the reference (0 until enough
  // queries have been observed to form both).
  double WorkloadDriftDistance() const;
  // Installs the current live workload as the drift reference (e.g.
  // after replica reselection).
  void RebaseWorkloadReference();

  struct RoutedResult {
    QueryResult result;
    std::size_t replica_index = 0;
    double estimated_cost_ms = 0.0;   // the cost model's prediction (Eq. 7)
    double measured_cost_ms = 0.0;    // wall clock of the real execution
    std::size_t predicted_partitions = 0;  // Np from the routing sketch
    // Execution attempts spent, always attempt_log.size() (1 = the
    // first-choice replica succeeded).
    std::size_t attempts = 1;
    // True when the answer did not come from routing's first choice: a
    // failover, a hedged race the backup won, or partial serving.
    bool degraded = false;
    std::string served_by;  // config name of the serving replica
    // Process-unique id of this execution (QueryContext::query_id).
    std::uint64_t query_id = 0;
    // One entry per attempt, in launch order: failover, both sides of a
    // hedged race, and the partial-serving attempt alike.
    std::vector<QueryAttempt> attempt_log;
    // Per-stage breakdown of this query (docs/observability.md).
    // Populated when the global metrics registry is enabled or a trace
    // span was passed; all-zero otherwise.
    obs::QueryProfile profile;
    // True when this is a *partial* answer (ExecOptions::allow_partial):
    // `result.records` holds everything found in the served partitions and
    // `result.served_partitions` / `result.missed_partitions` carry the
    // exact coverage split. Never set without allow_partial.
    bool partial = false;
    // True when a backup attempt was raced against a slow primary
    // (ExecOptions::hedge_ms); hedge_backup_won says which attempt's
    // records were returned.
    bool hedged = false;
    bool hedge_backup_won = false;
  };

  // Per-call execution knobs beyond the query itself. The 4-argument
  // Execute overload is the everything-default spelling.
  struct ExecOptions {
    ThreadPool* pool = nullptr;
    obs::TraceSpan* trace = nullptr;
    // Wall-clock budget for the whole call, measured from entry
    // (0 = none). Expiry cancels in-flight scans cooperatively at
    // partition and block boundaries, then either throws
    // DeadlineExceededError or — with allow_partial — returns what was
    // found plus the coverage report.
    double deadline_ms = 0.0;
    // Opt into graceful degradation: deadline expiry or unrecoverable
    // partition loss yields a partial RoutedResult instead of throwing.
    bool allow_partial = false;
    // Hedged reads (0 = off): when the primary attempt exceeds
    // max(hedge_ms, 2x the primary replica's LatencyMap expectation), a
    // backup attempt races it on the next-cheapest covering replica; the
    // first complete answer wins and the loser is cancelled.
    double hedge_ms = 0.0;
  };

  // Routes `query` to the cheapest healthy replica under `model` and
  // executes it. Requires at least one replica. Read faults quarantine
  // the failing partitions and fail over to the next-cheapest covering
  // replica (up to FailoverPolicy::max_attempts); quarantined partitions
  // are then repaired per the policy. Throws QueryFailedError when no
  // healthy copy of a needed partition remains.
  //
  // When `trace` is non-null, a `route` child span plus one `execute`
  // child span per attempt are attached; when the global metrics registry
  // is enabled the same quantities feed the query.*, failover.* and
  // quarantine.* metrics (docs/observability.md, docs/robustness.md).
  RoutedResult Execute(const STRange& query, const CostModel& model,
                       ThreadPool* pool = nullptr,
                       obs::TraceSpan* trace = nullptr);

  // As above with the full knob set: deadline, partial-result opt-in and
  // hedged reads (see ExecOptions). Throws DeadlineExceededError when the
  // deadline expires without allow_partial.
  RoutedResult Execute(const STRange& query, const CostModel& model,
                       const ExecOptions& options);

  struct RoutedBatchResult {
    // per_query[i]: records matching queries[i].
    std::vector<std::vector<Record>> per_query;
    // replica_of[i]: replica each query was routed to.
    std::vector<std::size_t> replica_of;
    QueryStats stats;                   // shared-scan accounting
    std::size_t naive_partition_scans = 0;
    double measured_ms = 0.0;           // wall clock of the whole batch
    // Batch-level stage breakdown (route = routing all queries, execute
    // = the shared scans; fallback queries profile through Execute).
    // Populated when the global metrics registry is enabled.
    obs::QueryProfile profile;
  };

  // Routes every query to its cheapest healthy replica, then executes
  // each replica's group as one shared scan (each involved partition
  // decoded once per replica, blot/batch.h). A group whose shared scan
  // hits a read fault falls back to per-query failover-aware Execute for
  // its queries, so one bad storage unit degrades only that group.
  RoutedBatchResult ExecuteBatch(std::span<const STRange> queries,
                                 const CostModel& model,
                                 ThreadPool* pool = nullptr);

  // Everything routing decides about a query, computed in one pass so
  // execution doesn't re-derive the winner's cost or involved-partition
  // count.
  struct RoutingDecision {
    std::size_t replica_index = 0;
    double estimated_cost_ms = 0.0;        // the winner's Eq. 7 estimate
    std::size_t predicted_partitions = 0;  // Np from the routing sketch
  };

  // The replica `model` estimates cheapest for `query` among healthy
  // candidates (quarantined involvement excludes a replica; a browned-out
  // replica's cost is penalized), with the estimate and predicted
  // involvement that drove the choice. Throws QueryFailedError when
  // covering replicas exist but all are quarantined for this query.
  RoutingDecision RouteQueryDetailed(const STRange& query,
                                     const CostModel& model) const;

  // Index of the replica `model` estimates cheapest for `query`.
  std::size_t RouteQuery(const STRange& query, const CostModel& model) const;

  // Simulates losing replica `i` and rebuilding it from replica `source`
  // (diverse-replica recovery, Section II-E). Returns the number of
  // records restored. The rebuilt replica always carries a fresh
  // process-unique cache identity, so decodes cached before recovery can
  // never satisfy queries after it; its health map resets to all-ok.
  // When every partition of `i` has a digest, the source's records must
  // match their sum and count; otherwise it throws CorruptData and
  // leaves replica `i` as it was.
  std::uint64_t RecoverReplicaFrom(std::size_t i, std::size_t source,
                                   ThreadPool* pool = nullptr);

  // Partition-granular self-healing: re-encodes partition `partition` of
  // replica `target` from another replica's records — `source` when
  // given, otherwise every other covering replica in index order. The
  // records are the source's range scan of the partition's range minus
  // what the target's other partitions hold there (face ties), accepted
  // only when their count and multiset digest match the partition's.
  // Falls back to a full RecoverReplicaFrom rebuild when the partition
  // has no digest (loaded from a manifest before version 3), a
  // neighbouring partition of the target is unreadable too, or no source
  // verifies. Cost scales with the partition, not the dataset. Returns
  // the number of records restored; the repaired partition returns to ok
  // health. Throws when no healthy source can supply the records.
  std::uint64_t RecoverPartition(std::size_t target, std::size_t partition,
                                 std::optional<std::size_t> source = std::nullopt,
                                 ThreadPool* pool = nullptr);

  // Repairs up to `budget` quarantined partitions (0 = all), feeding the
  // repair.* metrics. Returns the number of quarantined partitions
  // returned to ok (a full rebuild counts every quarantined partition of
  // the rebuilt replica). Partitions whose repair fails stay quarantined.
  std::size_t RepairQuarantined(ThreadPool* pool = nullptr,
                                std::size_t budget = 0);

  // Blocks until background repairs scheduled by Execute complete.
  void WaitForRepairs();

  // Persists the store — a checksummed manifest plus every replica in its
  // own SegmentStore subdirectory, and no other copy of the records —
  // under `directory`, removing whatever an earlier Save left there that
  // this store does not have.
  void Save(const std::filesystem::path& directory) const;

  // Loads a store persisted by Save (store manifest v3 or v2). Throws
  // CorruptData on malformed or checksum-failing contents and
  // InvalidArgument when `directory` holds no store.
  static BlotStore Load(const std::filesystem::path& directory);

 private:
  explicit BlotStore(const STRange& universe) : universe_(universe) {}
  // Background repairs and replica mutation synchronize on `state_mutex`:
  // queries hold it shared, repair holds it unique. Boxed so BlotStore
  // stays movable.
  struct SyncState {
    std::shared_mutex state_mutex;
    std::mutex futures_mutex;
    std::vector<std::future<void>> repair_futures;
  };

  struct Ranking {
    std::vector<RoutingDecision> ranked;  // best first, never empty
    std::size_t covering = 0;             // replicas able to serve at all
  };
  // What one attempt on one replica produced (defined in store.cc).
  struct AttemptOutcome;

  // True when replica `i` may serve `query` (full, or a partial replica
  // whose coverage contains it).
  bool Covers(std::size_t i, const STRange& query) const;
  // The quarantined partitions of `replica` that `query` involves,
  // ascending; empty without a lookup when the replica is all ok.
  std::vector<std::size_t> LostPartitions(std::size_t replica,
                                          const STRange& query) const;
  // Health-aware candidate ranking; no locking (callers hold
  // state_mutex). Throws QueryFailedError when covering replicas exist
  // but all are quarantined for this query.
  Ranking RankCandidates(const STRange& query, const CostModel& model) const;
  // Builds the QueryFailedError for `query` from the current health map.
  QueryFailedError UnservableError(const STRange& query) const;

  // The one execution pipeline; caller holds state_mutex shared. Every
  // mode is a policy over the same walk down the ranking: a hedged read
  // races the first two candidates, failover tries the next one, and
  // partial serving is one more attempt around the quarantined
  // partitions. All per-query state lives in `ctx`.
  RoutedResult Drive(const STRange& query, const CostModel& model,
                     const FailoverPolicy& policy, ThreadPool* pool,
                     QueryContext& ctx,
                     std::shared_lock<std::shared_mutex>& lock);
  // The hedge policy: races Attempt on ranked[0] and, once that runs past
  // the hedge threshold, on ranked[1]. Releases `lock` while the race
  // runs (each attempt takes its own shared lock, so a queued writer
  // cannot wedge the coordinator between them) and re-takes it. Logs the
  // launched attempts, sets `served` to the winner (or to the furthest
  // deadline-cut attempt), and returns how many candidates it used.
  std::size_t Race(const STRange& query, const Ranking& ranking,
                   ThreadPool* pool, QueryContext& ctx,
                   std::shared_lock<std::shared_mutex>& lock,
                   std::optional<RoutedResult>& served);
  // The attempt primitive; caller holds state_mutex shared. Re-checks
  // quarantine (skipping the replica, or with `around_lost` excluding
  // the quarantined partitions), runs Replica::Execute and hands a read
  // fault to Fault().
  AttemptOutcome Attempt(const STRange& query, std::size_t replica,
                         ScanOptions options, bool around_lost);
  // Quarantines the partitions a read fault names, drops their cached
  // decodes and records the quarantine metrics and event.
  void Fault(std::size_t replica, const PartitionFaultError& error);
  // Appends one attempt to the query's log and trace and counts it in
  // failover.attempts_total.
  void LogAttempt(QueryContext& ctx, std::size_t replica,
                  const AttemptOutcome& outcome);
  // The deadline-and-loss step after the walk ended without a complete
  // answer: throws DeadlineExceededError or QueryFailedError, or, when
  // the caller allows partial answers, returns the partial result.
  RoutedResult Degrade(const STRange& query, const CostModel& model,
                       const Ranking& ranking,
                       std::optional<RoutedResult> served, ThreadPool* pool,
                       QueryContext& ctx);
  // Completes the returned result: attempt count, profile, trace
  // attributes and the query.* metrics.
  RoutedResult Finish(QueryContext& ctx, RoutedResult routed);
  // Per-policy repair scheduling after a query released the shared lock.
  void MaybeScheduleRepairs(ThreadPool* pool, const FailoverPolicy& policy);

  // Feeds one finished query's profile into the continuous-telemetry
  // consumers (per-stage histograms, cost-drift windows, workload
  // tracker).
  void ObserveQueryTelemetry(const STRange& query,
                             const obs::QueryProfile& profile);

  // What one recovery did: records re-encoded, and quarantined
  // partitions returned to ok.
  struct Healed {
    std::uint64_t records = 0;
    std::size_t partitions = 0;
  };
  // AddReplica and AddPartialReplica: builds a replica over the records
  // inside `coverage` and registers it for routing, health and latency.
  std::size_t Add(const ReplicaConfig& config, const STRange& coverage,
                  ThreadPool* pool);
  // Replica `source`'s records inside `range`, decoded from its storage.
  Dataset RecordsFrom(std::size_t source, const STRange& range) const;
  // Implementations that assume state_mutex is held unique.
  Healed RecoverReplicaFromLocked(std::size_t i, std::size_t source,
                                  ThreadPool* pool);
  Healed RecoverPartitionLocked(std::size_t target, std::size_t partition,
                                std::optional<std::size_t> source,
                                ThreadPool* pool);
  std::size_t RepairQuarantinedLocked(ThreadPool* pool, std::size_t budget);

  // Continuous-telemetry state, boxed so BlotStore stays movable.
  struct Telemetry {
    obs::CostDriftMonitor cost_drift;
    std::mutex workload_mutex;  // guards the three fields below
    WorkloadTracker workload;
    std::optional<DriftMonitor> workload_drift;  // set after warmup
    bool workload_alerting = false;
    // The live workload needs a few queries before a snapshot is
    // meaningful; the first snapshot becomes the drift reference.
    static constexpr std::size_t kWorkloadWarmup = 64;
    // Distance is recomputed every this many observations (snapshotting
    // the tracker is not free).
    static constexpr std::size_t kWorkloadCheckInterval = 32;
  };

  Dataset input_;  // build input; empty on a loaded store
  STRange universe_;
  std::vector<Replica> replicas_;
  std::vector<ReplicaSketch> sketches_;
  FailoverPolicy policy_;  // guarded by sync_->state_mutex
  std::size_t max_scan_parallelism_ = 0;  // guarded by sync_->state_mutex
  std::unique_ptr<HealthMap> health_ = std::make_unique<HealthMap>();
  std::unique_ptr<LatencyMap> latency_ = std::make_unique<LatencyMap>();
  std::unique_ptr<SyncState> sync_ = std::make_unique<SyncState>();
  std::unique_ptr<Telemetry> telemetry_ = std::make_unique<Telemetry>();
};

}  // namespace blot

#endif  // BLOT_CORE_STORE_H_
