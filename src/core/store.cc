#include "core/store.h"

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <string>
#include <utility>

#include "blot/batch.h"
#include "blot/segment_store.h"
#include "core/partition_cache.h"
#include "obs/event_log.h"
#include "obs/metrics.h"
#include "util/bytes.h"
#include "util/error.h"

namespace blot {
namespace {

// Renders a partition list as "3,17,42" for event fields. A mass
// quarantine can name hundreds of partitions; the field keeps the first
// few for orientation and summarizes the rest, so one incident never
// bloats the log.
std::string PartitionList(const std::vector<std::size_t>& partitions) {
  constexpr std::size_t kMaxListed = 16;
  std::string out;
  for (std::size_t i = 0; i < partitions.size() && i < kMaxListed; ++i) {
    if (!out.empty()) out += ",";
    out += std::to_string(partitions[i]);
  }
  if (partitions.size() > kMaxListed)
    out += ",+" + std::to_string(partitions.size() - kMaxListed) + " more";
  return out;
}

// The scan options every attempt of `ctx`'s query starts from.
ScanOptions ScanFor(QueryContext& ctx, ThreadPool* pool) {
  ScanOptions options;
  options.pool = pool;
  options.profile = ctx.profiling ? &ctx.profile : nullptr;
  options.max_parallelism = ctx.max_scan_parallelism;
  options.cancel = ctx.cancel.valid() ? &ctx.cancel : nullptr;
  return options;
}

// The RoutedResult of the attempt whose records are returned; Finish
// completes it. `degraded`: routing's first choice did not serve.
BlotStore::RoutedResult Served(QueryResult result, double ms,
                               const BlotStore::RoutingDecision& decision,
                               std::string replica, bool degraded) {
  BlotStore::RoutedResult routed;
  routed.result = std::move(result);
  routed.replica_index = decision.replica_index;
  routed.estimated_cost_ms = decision.estimated_cost_ms;
  routed.measured_cost_ms = ms;
  routed.predicted_partitions = decision.predicted_partitions;
  routed.degraded = degraded;
  routed.served_by = std::move(replica);
  return routed;
}

// fetched ⊖ held as multisets, in RecordKeyLess order (time first, which
// keeps a restored unit close to its time-sorted build order); nullopt
// when `held` is not contained in `fetched`. `held` must be sorted by
// RecordKeyLess.
std::optional<std::vector<Record>> MultisetDifference(
    std::vector<Record> fetched, const std::vector<Record>& held) {
  std::sort(fetched.begin(), fetched.end(), RecordKeyLess);
  std::vector<Record> rest;
  rest.reserve(fetched.size() - std::min(fetched.size(), held.size()));
  auto h = held.begin();
  for (const Record& r : fetched) {
    if (h != held.end() && RecordKeyLess(*h, r)) return std::nullopt;
    if (h != held.end() && !RecordKeyLess(r, *h)) {
      ++h;  // the neighbour holds this copy
      continue;
    }
    rest.push_back(r);
  }
  if (h != held.end()) return std::nullopt;
  return rest;
}

}  // namespace

BlotStore::BlotStore(Dataset dataset, std::optional<STRange> universe)
    : input_(std::move(dataset)) {
  require(!input_.empty(), "BlotStore: empty dataset");
  universe_ = universe.value_or(input_.BoundingBox());
  for (const Record& r : input_.records())
    require(universe_.Contains(r.Position()),
            "BlotStore: record outside universe");
}

BlotStore::~BlotStore() {
  if (sync_ != nullptr) WaitForRepairs();
}

BlotStore::BlotStore(BlotStore&& other) noexcept {
  // One transfer for both moves, so a new member cannot be moved by one
  // and forgotten by the other.
  *this = std::move(other);
}

BlotStore& BlotStore::operator=(BlotStore&& other) noexcept {
  if (this == &other) return *this;
  // Both sides drain: `other`'s tasks hold its address (about to be
  // gutted), and this store's tasks hold ours (whose state is about to
  // be replaced).
  if (sync_ != nullptr) WaitForRepairs();
  if (other.sync_ != nullptr) other.WaitForRepairs();
  input_ = std::move(other.input_);
  universe_ = other.universe_;
  replicas_ = std::move(other.replicas_);
  sketches_ = std::move(other.sketches_);
  policy_ = other.policy_;
  max_scan_parallelism_ = other.max_scan_parallelism_;
  health_ = std::move(other.health_);
  latency_ = std::move(other.latency_);
  sync_ = std::move(other.sync_);
  telemetry_ = std::move(other.telemetry_);
  return *this;
}

FailoverPolicy BlotStore::failover_policy() const {
  std::shared_lock lock(sync_->state_mutex);
  return policy_;
}

void BlotStore::SetFailoverPolicy(const FailoverPolicy& policy) {
  std::unique_lock lock(sync_->state_mutex);
  policy_ = policy;
}

std::size_t BlotStore::max_scan_parallelism() const {
  std::shared_lock lock(sync_->state_mutex);
  return max_scan_parallelism_;
}

void BlotStore::SetMaxScanParallelism(std::size_t cap) {
  std::unique_lock lock(sync_->state_mutex);
  max_scan_parallelism_ = cap;
}

void BlotStore::WaitForRepairs() {
  std::vector<std::future<void>> pending;
  {
    std::lock_guard lock(sync_->futures_mutex);
    pending.swap(sync_->repair_futures);
  }
  for (std::future<void>& f : pending) {
    try {
      f.get();
    } catch (...) {
      // Repair failures are already counted in repair.failed_total; a
      // background task must never take the store down.
    }
  }
}

std::size_t BlotStore::AddReplica(const ReplicaConfig& config,
                                  ThreadPool* pool) {
  return Add(config, universe_, pool);
}

std::size_t BlotStore::AddPartialReplica(const ReplicaConfig& config,
                                         const STRange& coverage,
                                         ThreadPool* pool) {
  require(universe_.Contains(coverage),
          "BlotStore::AddPartialReplica: coverage outside universe");
  require(!(coverage == universe_),
          "BlotStore::AddPartialReplica: coverage is the whole universe; "
          "use AddReplica");
  return Add(config, coverage, pool);
}

std::size_t BlotStore::Add(const ReplicaConfig& config,
                           const STRange& coverage, ThreadPool* pool) {
  std::unique_lock lock(sync_->state_mutex);
  for (const Replica& existing : replicas_)
    require(!(existing.config() == config &&
              existing.universe() == coverage),
            "BlotStore::AddReplica: duplicate replica " + config.Name());
  std::optional<Dataset> covered;
  if (!input_.empty()) {
    if (!(coverage == universe_))
      covered.emplace(input_.FilterByRange(coverage));
  } else {
    // A loaded store: the first covering replica that decodes cleanly.
    for (std::size_t r = 0; !covered && r < replicas_.size(); ++r) {
      if (!replicas_[r].universe().Contains(coverage)) continue;
      try {
        covered = RecordsFrom(r, coverage);
      } catch (const Error&) {}  // unreadable: try the next one
    }
    if (!covered)
      throw CorruptData("BlotStore::AddReplica: no readable replica holds "
                        "the records of " + config.Name());
  }
  replicas_.push_back(Replica::Build(covered ? *covered : input_, config,
                                     coverage, pool));
  sketches_.push_back(ReplicaSketch::FromReplica(replicas_.back()));
  health_->AddReplica(replicas_.back().NumPartitions());
  // Keep the latency map index-aligned: a loaded store's is empty (Load).
  if (latency_->NumReplicas() + 1 == replicas_.size()) latency_->AddReplica();
  return replicas_.size() - 1;
}

Dataset BlotStore::RecordsFrom(std::size_t source,
                               const STRange& range) const {
  return Dataset(replicas_[source].Reconstruct().FilterByRange(range));
}

bool BlotStore::IsFullReplica(std::size_t i) const {
  require(i < replicas_.size(), "BlotStore::IsFullReplica: bad index");
  return replicas_[i].universe() == universe_;
}

const Replica& BlotStore::replica(std::size_t i) const {
  require(i < replicas_.size(), "BlotStore::replica: bad index");
  return replicas_[i];
}

Replica& BlotStore::mutable_replica(std::size_t i) {
  require(i < replicas_.size(), "BlotStore::mutable_replica: bad index");
  return replicas_[i];
}

std::uint64_t BlotStore::TotalStorageBytes() const {
  std::uint64_t total = 0;
  for (const Replica& r : replicas_) total += r.StorageBytes();
  return total;
}

struct BlotStore::AttemptOutcome {
  QueryResult result;
  double ms = 0.0;
  // A needed partition was quarantined since ranking; nothing ran.
  bool skipped = false;
  // The partitions a read fault named (empty: no fault).
  std::vector<std::size_t> faulty;
  // Why the attempt produced no complete answer. A cancelled scan (a
  // deadline or a lost hedge) keeps its exact coverage in `result`.
  std::string error;

  bool complete() const { return !skipped && error.empty(); }
};

bool BlotStore::Covers(std::size_t i, const STRange& query) const {
  return IsFullReplica(i) || replicas_[i].universe().Contains(query);
}

std::vector<std::size_t> BlotStore::LostPartitions(
    std::size_t replica, const STRange& query) const {
  std::vector<std::size_t> lost;
  if (health_->AllOk(replica)) return lost;
  for (const std::size_t p :
       sketches_[replica].index.InvolvedPartitions(query))
    if (health_->Get(replica, p) == PartitionHealth::kQuarantined)
      lost.push_back(p);
  return lost;
}

BlotStore::Ranking BlotStore::RankCandidates(const STRange& query,
                                             const CostModel& model) const {
  Ranking out;
  // (adjusted cost, decision with the raw estimate): brownout penalties
  // steer the ordering but must not distort the reported estimate.
  std::vector<std::pair<double, RoutingDecision>> scored;
  for (std::size_t i = 0; i < sketches_.size(); ++i) {
    if (!Covers(i, query)) continue;
    ++out.covering;
    if (!health_->AllOk(i) &&
        health_->AnyQuarantined(i,
                                sketches_[i].index.InvolvedPartitions(query)))
      continue;
    const double cost = model.QueryCostMs(sketches_[i], query);
    // Brownout: a replica whose observed reads run far slower than its
    // peers' is deprioritized (not quarantined — slow is not corrupt).
    scored.push_back({cost * latency_->BrownoutPenalty(i),
                      {i, cost, sketches_[i].index.CountInvolved(query)}});
  }
  require(out.covering > 0,
          "BlotStore::RouteQuery: no replica can serve the query (add a "
          "full replica)");
  if (scored.empty()) throw UnservableError(query);
  std::sort(scored.begin(), scored.end(),
            [](const auto& a, const auto& b) {
              if (a.first != b.first) return a.first < b.first;
              return a.second.replica_index < b.second.replica_index;
            });
  out.ranked.reserve(scored.size());
  for (auto& [adjusted, decision] : scored) out.ranked.push_back(decision);
  return out;
}

QueryFailedError BlotStore::UnservableError(const STRange& query) const {
  std::vector<QueryFailedError::Lost> lost;
  std::string what =
      "BlotStore: query unservable — every covering replica's copy of a "
      "needed partition is quarantined:";
  for (std::size_t i = 0; i < replicas_.size(); ++i) {
    if (!Covers(i, query)) continue;
    for (const std::size_t p : LostPartitions(i, query)) {
      lost.push_back({i, p});
      what += " [" + replicas_[i].config().Name() + " partition " +
              std::to_string(p) + "]";
    }
  }
  if (lost.empty())
    what = "BlotStore: query unservable — all covering replicas failed";
  return QueryFailedError(what, std::move(lost));
}

BlotStore::RoutingDecision BlotStore::RouteQueryDetailed(
    const STRange& query, const CostModel& model) const {
  require(!replicas_.empty(), "BlotStore::RouteQuery: no replicas");
  std::shared_lock lock(sync_->state_mutex);
  return RankCandidates(query, model).ranked.front();
}

std::size_t BlotStore::RouteQuery(const STRange& query,
                                  const CostModel& model) const {
  return RouteQueryDetailed(query, model).replica_index;
}

BlotStore::AttemptOutcome BlotStore::Attempt(const STRange& query,
                                             std::size_t replica,
                                             ScanOptions options,
                                             bool around_lost) {
  AttemptOutcome out;
  // A fault since ranking (an earlier attempt, the other side of a
  // hedge, a concurrent query) may have quarantined a needed partition.
  const std::vector<std::size_t> lost = LostPartitions(replica, query);
  if (!lost.empty()) {
    if (!around_lost) {
      out.skipped = true;
      return out;
    }
    options.exclude_partitions = &lost;
  }
  const std::uint64_t start_ns = obs::MonotonicNanos();
  try {
    out.result = replicas_[replica].Execute(query, options);
    if (out.result.truncated && options.cancel != nullptr &&
        options.cancel->ShouldStop())
      out.error = "cancelled mid-scan";
  } catch (const PartitionFaultError& e) {
    Fault(replica, e);
    out.faulty = e.partitions();
    out.error = e.what();
  }
  out.ms = double(obs::MonotonicNanos() - start_ns) * 1e-6;
  // Only complete attempts teach the latency map: a cancelled scan's
  // wall time reflects the budget, not the replica's speed.
  if (out.complete())
    latency_->Observe(replica, out.result.stats.partitions_scanned, out.ms);
  return out;
}

void BlotStore::Fault(std::size_t replica, const PartitionFaultError& error) {
  std::size_t newly_quarantined = 0;
  for (const std::size_t p : error.partitions()) {
    if (health_->Quarantine(replica, p)) ++newly_quarantined;
    PartitionCache::Global().Invalidate(replicas_[replica].cache_id(), p);
  }
  const std::size_t active = health_->QuarantinedCount();
  auto& registry = obs::MetricsRegistry::global();
  if (registry.enabled()) {
    static obs::Counter& partitions_total =
        registry.GetCounter("quarantine.partitions_total");
    static obs::Gauge& active_gauge = registry.GetGauge("quarantine.active");
    partitions_total.Increment(newly_quarantined);
    active_gauge.Set(static_cast<double>(active));
  }
  obs::EventLog& log = obs::EventLog::Global();
  if (log.enabled() && newly_quarantined > 0) {
    log.Warn("quarantine", "partitions quarantined",
             {obs::Field("replica", replicas_[replica].config().Name()),
              obs::Field("partitions", PartitionList(error.partitions())),
              obs::Field("newly_quarantined", newly_quarantined),
              obs::Field("active_quarantined", active)});
  }
}

void BlotStore::LogAttempt(QueryContext& ctx, std::size_t replica,
                           const AttemptOutcome& outcome) {
  std::string name = replicas_[replica].config().Name();
  const std::size_t number = ctx.attempts.size() + 1;
  if (ctx.trace != nullptr) {
    obs::TraceSpan& span = ctx.trace->AddChild("execute");
    span.set_duration_ms(outcome.ms);
    span.AddAttribute("attempt", std::uint64_t{number});
    span.AddAttribute("replica", name);
    if (!outcome.error.empty()) {
      span.AddAttribute("fault", outcome.error);
    } else {
      const QueryStats& stats = outcome.result.stats;
      span.AddAttribute("partitions_scanned",
                        std::uint64_t{stats.partitions_scanned});
      span.AddAttribute("records_scanned", stats.records_scanned);
      span.AddAttribute("records_returned",
                        std::uint64_t{outcome.result.records.size()});
      span.AddAttribute("bytes_read", stats.bytes_read);
      if (PartitionCache::Global().enabled()) {
        span.AddAttribute("cache_hits", std::uint64_t{stats.cache_hits});
        span.AddAttribute("cache_misses", std::uint64_t{stats.cache_misses});
      }
    }
  }
  auto& registry = obs::MetricsRegistry::global();
  if (registry.enabled()) {
    static obs::Counter& attempts_total =
        registry.GetCounter("failover.attempts_total");
    attempts_total.Increment();
  }
  obs::EventLog& log = obs::EventLog::Global();
  if (!outcome.faulty.empty() && log.enabled()) {
    log.Warn("failover", "read fault; failing over to next-cheapest replica",
             {obs::Field("replica", name), obs::Field("attempt", number),
              obs::Field("faulty_partitions", PartitionList(outcome.faulty))});
  }
  ctx.attempts.push_back({replica, std::move(name), outcome.ms,
                          outcome.error.empty(), outcome.error});
}

BlotStore::RoutedResult BlotStore::Drive(
    const STRange& query, const CostModel& model,
    const FailoverPolicy& policy, ThreadPool* pool, QueryContext& ctx,
    std::shared_lock<std::shared_mutex>& lock) {
  obs::TraceSpan* route_span =
      ctx.trace != nullptr ? &ctx.trace->AddChild("route") : nullptr;
  const std::uint64_t route_start = ctx.profiling ? obs::MonotonicNanos() : 0;
  Ranking ranking;
  {
    obs::SpanTimer route_timer(route_span);
    ranking = RankCandidates(query, model);
  }
  if (ctx.profiling)
    ctx.profile.AddStage(obs::Stage::kRoute,
                         double(obs::MonotonicNanos() - route_start) * 1e-6);
  const std::vector<RoutingDecision>& ranked = ranking.ranked;
  if (route_span != nullptr) {
    route_span->AddAttribute("candidates", std::uint64_t{replicas_.size()});
    route_span->AddAttribute("healthy_candidates",
                             std::uint64_t{ranked.size()});
    route_span->AddAttribute(
        "replica", replicas_[ranked.front().replica_index].config().Name());
    route_span->AddAttribute("estimated_cost_ms",
                             ranked.front().estimated_cost_ms);
    route_span->AddAttribute(
        "predicted_partitions",
        std::uint64_t{ranked.front().predicted_partitions});
  }

  // `served` holds the first complete answer, or the deadline-cut attempt
  // that got furthest; `next` is the next candidate to try.
  std::optional<RoutedResult> served;
  std::size_t next = 0;
  if (ctx.hedge_ms > 0.0 && ranked.size() > 1)
    next = Race(query, ranking, pool, ctx, lock, served);
  const bool hedged = next == 2;
  for (; !served && next < ranked.size(); ++next) {
    // Deadline expiry ends the walk: starting another full attempt
    // cannot beat an already-blown budget.
    if (ctx.attempts.size() >= std::max<std::size_t>(policy.max_attempts, 1) ||
        ctx.cancel.ShouldStop())
      break;
    const std::size_t replica = ranked[next].replica_index;
    AttemptOutcome outcome =
        Attempt(query, replica, ScanFor(ctx, pool), /*around_lost=*/false);
    if (outcome.skipped) continue;
    LogAttempt(ctx, replica, outcome);
    if (!outcome.faulty.empty()) {
      // The failed attempt's wall time is failover overhead, not
      // execution of the serving replica.
      if (ctx.profiling)
        ctx.profile.AddStage(obs::Stage::kFailover, outcome.ms);
      continue;
    }
    served = Served(std::move(outcome.result), outcome.ms, ranked[next],
                    ctx.attempts.back().replica, next > 0);
  }

  RoutedResult routed =
      served && !served->result.truncated
          ? std::move(*served)
          : Degrade(query, model, ranking, std::move(served), pool, ctx);
  routed.hedged = hedged;
  return Finish(ctx, std::move(routed));
}

std::size_t BlotStore::Race(const STRange& query, const Ranking& ranking,
                            ThreadPool* pool, QueryContext& ctx,
                            std::shared_lock<std::shared_mutex>& lock,
                            std::optional<RoutedResult>& served) {
  struct Slot {
    bool done = false;
    AttemptOutcome outcome;
    obs::QueryProfile profile;
  };
  struct HedgeRace {
    std::mutex mutex;
    std::condition_variable cv;
    std::array<Slot, 2> slots;
    // Children of the query's token: each observes the deadline but is
    // cancelled alone, so cancelling the loser never touches the winner.
    std::array<CancelToken, 2> tokens;
  };
  auto race = std::make_shared<HedgeRace>();
  race->tokens = {ctx.cancel.Child(), ctx.cancel.Child()};
  // Everything is captured by value: a losing attempt may still run after
  // Execute returns (parked in repair_futures) and must not reference the
  // coordinator's frame.
  auto run = [this, race, query, scan = ScanFor(ctx, pool),
              profiling = ctx.profiling](std::size_t replica, std::size_t s) {
    Slot out;
    out.done = true;
    ScanOptions options = scan;
    options.cancel = &race->tokens[s];
    options.profile = profiling ? &out.profile : nullptr;
    try {
      std::shared_lock attempt_lock(sync_->state_mutex);
      out.outcome = Attempt(query, replica, options, /*around_lost=*/false);
    } catch (const std::exception& e) {
      out.outcome.error = e.what();
    }
    std::lock_guard<std::mutex> done_lock(race->mutex);
    race->slots[s] = std::move(out);
    race->cv.notify_all();
  };

  const std::vector<RoutingDecision>& ranked = ranking.ranked;
  // Hedge when the primary runs past the caller's floor or 2x its own
  // learned expectation, whichever is larger (a cold LatencyMap expects
  // 0 ms).
  const std::chrono::duration<double, std::milli> threshold(
      std::max(ctx.hedge_ms,
               2.0 * latency_->ExpectedMs(ranked[0].replica_index,
                                          ranked[0].predicted_partitions)));
  lock.unlock();
  std::array<std::future<void>, 2> futures;
  futures[0] = std::async(std::launch::async, run, ranked[0].replica_index,
                          std::size_t{0});
  std::size_t launched = 1;
  int winner = -1;
  std::array<Slot, 2> slots;
  {
    std::unique_lock<std::mutex> wait_lock(race->mutex);
    if (!race->cv.wait_for(wait_lock, threshold,
                           [&] { return race->slots[0].done; })) {
      launched = 2;
      futures[1] = std::async(std::launch::async, run,
                              ranked[1].replica_index, std::size_t{1});
    }
    // Resolved: someone won, or every launched attempt is done.
    race->cv.wait(wait_lock, [&] {
      for (std::size_t s = 0; s < launched; ++s) {
        if (race->slots[s].done && race->slots[s].outcome.complete()) {
          winner = static_cast<int>(s);
          return true;
        }
      }
      return race->slots[0].done && (launched == 1 || race->slots[1].done);
    });
    for (std::size_t s = 0; s < launched; ++s)
      slots[s] = std::move(race->slots[s]);
  }
  // First complete answer wins; the loser stops within one block (its
  // cache and quarantine effects stay valid).
  if (winner >= 0) race->tokens[1 - winner].Cancel(CancelReason::kHedgeLost);
  // A still-running loser is parked with the background repairs
  // (std::async futures block on destruction) and drained by
  // WaitForRepairs and the destructor.
  for (std::future<void>& f : futures) {
    if (!f.valid() ||
        f.wait_for(std::chrono::seconds(0)) == std::future_status::ready)
      continue;
    std::lock_guard<std::mutex> futures_lock(sync_->futures_mutex);
    sync_->repair_futures.push_back(std::move(f));
  }
  lock.lock();

  // Without a winner, the attempt a deadline cut furthest is the answer
  // (no attempt in the race excludes partitions, so truncated means cut).
  int chosen = winner;
  for (std::size_t s = 0; winner < 0 && s < launched; ++s)
    if (slots[s].outcome.result.truncated &&
        (chosen < 0 || slots[s].outcome.result.served_partitions.size() >
                           slots[chosen].outcome.result.served_partitions
                               .size()))
      chosen = static_cast<int>(s);
  for (std::size_t s = 0; s < launched; ++s) {
    AttemptOutcome& outcome = slots[s].outcome;
    if (outcome.skipped) continue;
    if (static_cast<int>(s) != chosen) {
      if (outcome.error.empty()) outcome.error = "hedge lost (cancelled)";
      if (slots[s].done && ctx.profiling)
        ctx.profile.AddStage(obs::Stage::kHedge, outcome.ms);
      LogAttempt(ctx, ranked[s].replica_index, outcome);
      continue;
    }
    LogAttempt(ctx, ranked[s].replica_index, outcome);
    if (ctx.profiling) ctx.profile.MergeScanFrom(slots[s].profile);
    served = Served(std::move(outcome.result), outcome.ms, ranked[s],
                    ctx.attempts.back().replica, s > 0);
    served->hedge_backup_won = s == 1;
  }

  auto& registry = obs::MetricsRegistry::global();
  if (registry.enabled() && launched == 2) {
    static obs::Counter& fired_total =
        registry.GetCounter("hedge.fired_total");
    fired_total.Increment();
    if (winner == 1) {
      static obs::Counter& backup_wins =
          registry.GetCounter("hedge.backup_wins_total");
      backup_wins.Increment();
    }
  }
  obs::EventLog& log = obs::EventLog::Global();
  if (log.enabled() && launched == 2 && winner >= 0) {
    log.Info("hedge",
             winner == 1 ? "backup attempt won the hedged race"
                         : "primary finished; backup cancelled",
             {obs::Field("primary",
                         replicas_[ranked[0].replica_index].config().Name()),
              obs::Field("backup",
                         replicas_[ranked[1].replica_index].config().Name()),
              obs::Field("winner_ms", slots[winner].outcome.ms)});
  }
  return launched;
}

BlotStore::RoutedResult BlotStore::Degrade(
    const STRange& query, const CostModel& model, const Ranking& ranking,
    std::optional<RoutedResult> served, ThreadPool* pool, QueryContext& ctx) {
  auto& registry = obs::MetricsRegistry::global();
  if (served || ctx.cancel.DeadlineExpired()) {
    if (registry.enabled()) {
      static obs::Counter& deadline_total =
          registry.GetCounter("query.deadline_exceeded_total");
      deadline_total.Increment();
    }
    if (!served) {
      // No attempt got anywhere: every involved partition of the best
      // candidate is missed.
      const RoutingDecision& best = ranking.ranked.front();
      QueryResult none;
      none.truncated = true;
      none.missed_partitions =
          sketches_[best.replica_index].index.InvolvedPartitions(query);
      served = Served(std::move(none), 0.0, best,
                      replicas_[best.replica_index].config().Name(), false);
    }
    const std::size_t done = served->result.served_partitions.size();
    const std::size_t missed = served->result.missed_partitions.size();
    if (!ctx.allow_partial) {
      throw DeadlineExceededError(
          "BlotStore: deadline of " + std::to_string(ctx.deadline_ms) +
              "ms exceeded after " + std::to_string(ctx.attempts.size()) +
              " attempt(s); scanned " + std::to_string(done) + " of " +
              std::to_string(done + missed) + " involved partitions",
          ctx.deadline_ms, ctx.attempts.size(), done, missed);
    }
  } else {
    if (registry.enabled()) {
      static obs::Counter& exhausted_total =
          registry.GetCounter("failover.exhausted_total");
      exhausted_total.Increment();
    }
    obs::EventLog& log = obs::EventLog::Global();
    if (log.enabled()) {
      log.Emit(obs::EventSeverity::kError, "failover.exhausted",
               "no healthy replica could serve the query",
               {obs::Field("attempts", ctx.attempts.size()),
                obs::Field("covering_replicas", ranking.covering)});
    }
    if (!ctx.allow_partial) throw UnservableError(query);
    // Graceful degradation is one more attempt: the covering replica
    // losing the fewest involved partitions (ties to the cheaper
    // estimate) scans around its quarantined ones. Even an
    // all-quarantined candidate stays eligible — for an opted-in caller
    // an empty answer with an honest coverage report beats an error.
    std::optional<RoutingDecision> best;
    std::size_t best_lost = 0;
    for (std::size_t i = 0; i < replicas_.size(); ++i) {
      if (!Covers(i, query)) continue;
      const std::size_t lost = LostPartitions(i, query).size();
      const double cost = model.QueryCostMs(sketches_[i], query);
      if (!best || std::pair(lost, cost) <
                       std::pair(best_lost, best->estimated_cost_ms)) {
        best = {i, cost, sketches_[i].index.CountInvolved(query)};
        best_lost = lost;
      }
    }
    AttemptOutcome outcome = Attempt(query, best->replica_index,
                                     ScanFor(ctx, pool), /*around_lost=*/true);
    LogAttempt(ctx, best->replica_index, outcome);
    // Even the degraded scan faulted: nothing is left to serve from.
    if (!outcome.faulty.empty()) throw UnservableError(query);
    served = Served(std::move(outcome.result), outcome.ms, *best,
                    ctx.attempts.back().replica, true);
    if (log.enabled() && served->result.truncated) {
      log.Warn("query.partial",
               "serving partial result around lost partitions",
               {obs::Field("replica", served->served_by),
                obs::Field("served", served->result.served_partitions.size()),
                obs::Field("missed",
                           PartitionList(served->result.missed_partitions))});
    }
  }
  return std::move(*served);
}

BlotStore::RoutedResult BlotStore::Finish(QueryContext& ctx,
                                          RoutedResult routed) {
  routed.attempts = ctx.attempts.size();
  routed.partial = routed.result.truncated;
  if (ctx.profiling) {
    ctx.profile.AddStage(obs::Stage::kExecute, routed.measured_cost_ms);
    ctx.profile.replica_index = routed.replica_index;
    ctx.profile.attempts = static_cast<std::uint32_t>(routed.attempts);
    ctx.profile.degraded = routed.degraded;
    ctx.profile.estimated_cost_ms = routed.estimated_cost_ms;
    ctx.profile.measured_cost_ms = routed.measured_cost_ms;
  }
  if (obs::TraceSpan* trace = ctx.trace; trace != nullptr) {
    trace->AddAttribute("replica", routed.served_by);
    trace->AddAttribute("estimated_cost_ms", routed.estimated_cost_ms);
    trace->AddAttribute("measured_cost_ms", routed.measured_cost_ms);
    trace->AddAttribute(
        "partitions_scanned",
        std::uint64_t{routed.result.stats.partitions_scanned});
    if (routed.degraded) {
      trace->AddAttribute("attempts", std::uint64_t{routed.attempts});
      trace->AddAttribute("degraded", std::string("true"));
    }
    if (routed.hedged) {
      trace->AddAttribute("hedged", std::string("true"));
      trace->AddAttribute(
          "hedge_backup_won",
          std::string(routed.hedge_backup_won ? "true" : "false"));
    }
    if (routed.partial) {
      trace->AddAttribute(
          "partial_served",
          std::uint64_t{routed.result.served_partitions.size()});
      trace->AddAttribute(
          "partial_missed",
          std::uint64_t{routed.result.missed_partitions.size()});
    }
  }
  auto& registry = obs::MetricsRegistry::global();
  if (!registry.enabled()) return routed;
  static obs::Counter& routed_total =
      registry.GetCounter("query.routed_total");
  static obs::Histogram& estimated_ms =
      registry.GetHistogram("query.estimated_cost_ms");
  static obs::Histogram& measured_ms =
      registry.GetHistogram("query.measured_ms");
  // Estimate-vs-actual cost error is unbounded above (the estimate models
  // a cluster environment, the measurement is this process), so it gets
  // wide percentage buckets instead of latency buckets.
  static obs::Histogram& cost_error_pct = registry.GetHistogram(
      "query.cost_error_pct", {},
      {1, 2, 5, 10, 25, 50, 75, 90, 100, 250, 500, 1000, 10000, 100000,
       1000000});
  static obs::Counter& np_predicted =
      registry.GetCounter("query.partitions_predicted_total");
  static obs::Counter& partitions_scanned =
      registry.GetCounter("query.partitions_scanned_total");
  static obs::Counter& records_scanned =
      registry.GetCounter("query.records_scanned_total");
  static obs::Counter& records_returned =
      registry.GetCounter("query.records_returned_total");
  static obs::Counter& bytes_read =
      registry.GetCounter("query.bytes_read_total");
  static obs::Counter& rerouted_total =
      registry.GetCounter("failover.queries_rerouted_total");
  static obs::Counter& partial_total =
      registry.GetCounter("query.partial_total");
  routed_total.Increment();
  registry.GetCounter("query.routed_total", {{"replica", routed.served_by}})
      .Increment();
  estimated_ms.Observe(routed.estimated_cost_ms);
  measured_ms.Observe(routed.measured_cost_ms);
  if (routed.estimated_cost_ms > 0)
    cost_error_pct.Observe(
        std::abs(routed.measured_cost_ms - routed.estimated_cost_ms) /
        routed.estimated_cost_ms * 100.0);
  np_predicted.Increment(routed.predicted_partitions);
  partitions_scanned.Increment(routed.result.stats.partitions_scanned);
  records_scanned.Increment(routed.result.stats.records_scanned);
  records_returned.Increment(routed.result.records.size());
  bytes_read.Increment(routed.result.stats.bytes_read);
  if (routed.degraded) rerouted_total.Increment();
  if (routed.partial) partial_total.Increment();
  return routed;
}

BlotStore::RoutedResult BlotStore::Execute(const STRange& query,
                                           const CostModel& model,
                                           ThreadPool* pool,
                                           obs::TraceSpan* trace) {
  return Execute(query, model, ExecOptions{.pool = pool, .trace = trace});
}

BlotStore::RoutedResult BlotStore::Execute(const STRange& query,
                                           const CostModel& model,
                                           const ExecOptions& options) {
  require(!replicas_.empty(), "BlotStore::RouteQuery: no replicas");
  require(options.deadline_ms >= 0.0 && options.hedge_ms >= 0.0,
          "BlotStore::Execute: negative deadline/hedge threshold");
  // All per-query state lives in the context; this function is
  // re-entrant under N concurrent callers (the serving layer's request
  // workers), who share only the internally synchronized structures.
  QueryContext ctx = QueryContext::ForQuery(options.trace);
  ctx.deadline_ms = options.deadline_ms;
  ctx.allow_partial = options.allow_partial;
  ctx.hedge_ms = options.hedge_ms;
  if (options.deadline_ms > 0.0)
    ctx.cancel = CancelToken::WithDeadline(options.deadline_ms);
  else if (options.hedge_ms > 0.0)
    ctx.cancel = CancelToken::Create();  // hedge losers need a live token
  ThreadPool* pool = options.pool;
  RoutedResult routed;
  FailoverPolicy policy;
  const std::uint64_t start_ns = ctx.profiling ? obs::MonotonicNanos() : 0;
  {
    std::shared_lock lock(sync_->state_mutex);
    policy = policy_;  // per-query snapshot; retunes never tear a query
    ctx.max_scan_parallelism = max_scan_parallelism_;
    routed = Drive(query, model, policy, pool, ctx, lock);
  }
  const std::uint64_t repair_start =
      ctx.profiling ? obs::MonotonicNanos() : 0;
  MaybeScheduleRepairs(pool, policy);
  if (ctx.profiling) {
    // Synchronous repair runs on this thread between the shared-lock
    // release and here; background repair contributes only the submit.
    ctx.profile.AddStage(
        obs::Stage::kRepair,
        double(obs::MonotonicNanos() - repair_start) * 1e-6);
    ctx.profile.total_ms =
        double(obs::MonotonicNanos() - start_ns) * 1e-6;
    ObserveQueryTelemetry(query, ctx.profile);
    if (options.trace != nullptr) ctx.profile.ExportToSpan(*options.trace);
  }
  routed.query_id = ctx.query_id();
  routed.attempt_log = std::move(ctx.attempts);
  routed.profile = std::move(ctx.profile);
  return routed;
}

void BlotStore::ObserveQueryTelemetry(const STRange& query,
                                      const obs::QueryProfile& profile) {
  obs::RecordProfile(profile);  // per-stage histograms (registry-gated)
  Telemetry& t = *telemetry_;
  t.cost_drift.Observe(profile);

  std::lock_guard lock(t.workload_mutex);
  t.workload.Observe(query.Size());
  const std::size_t n = t.workload.observations();
  if (!t.workload_drift.has_value()) {
    if (n >= Telemetry::kWorkloadWarmup)
      t.workload_drift.emplace(t.workload.Snapshot());
    return;
  }
  if (n % Telemetry::kWorkloadCheckInterval != 0) return;
  const Workload current = t.workload.Snapshot();
  const double distance = t.workload_drift->DistanceTo(current);
  auto& registry = obs::MetricsRegistry::global();
  if (registry.enabled())
    registry.GetGauge("drift.workload_distance").Set(distance);
  const bool drifted = t.workload_drift->HasDrifted(current);
  obs::EventLog& log = obs::EventLog::Global();
  if (log.enabled()) {
    if (drifted && !t.workload_alerting) {
      log.Warn("workload_drift.alert",
               "live workload drifted from the selection reference",
               {obs::Field("distance", distance),
                obs::Field("observations", n)});
    } else if (!drifted && t.workload_alerting) {
      log.Info("workload_drift.clear",
               "live workload back near the selection reference",
               {obs::Field("distance", distance),
                obs::Field("observations", n)});
    }
  }
  t.workload_alerting = drifted;
}

double BlotStore::WorkloadDriftDistance() const {
  Telemetry& t = *telemetry_;
  std::lock_guard lock(t.workload_mutex);
  if (!t.workload_drift.has_value() || t.workload.observations() == 0)
    return 0.0;
  return t.workload_drift->DistanceTo(t.workload.Snapshot());
}

void BlotStore::RebaseWorkloadReference() {
  Telemetry& t = *telemetry_;
  std::lock_guard lock(t.workload_mutex);
  t.workload_alerting = false;
  if (t.workload.observations() == 0) {
    t.workload_drift.reset();
    return;
  }
  t.workload_drift.emplace(t.workload.Snapshot());
}

void BlotStore::MaybeScheduleRepairs(ThreadPool* pool,
                                     const FailoverPolicy& policy) {
  if (policy.repair == RepairMode::kNone) return;
  if (health_->QuarantinedCount() == 0) return;
  if (policy.repair == RepairMode::kSync || pool == nullptr) {
    RepairQuarantined(pool, policy.repair_budget);
    return;
  }
  std::lock_guard lock(sync_->futures_mutex);
  const std::size_t budget = policy.repair_budget;
  sync_->repair_futures.push_back(pool->Submit([this, budget] {
    // try_to_lock: a repair task blocking on a query that is itself
    // waiting for pool workers would deadlock the pool; if the store is
    // busy the partitions stay quarantined and the next query
    // reschedules the repair.
    std::unique_lock lock(sync_->state_mutex, std::try_to_lock);
    if (!lock.owns_lock()) return;
    RepairQuarantinedLocked(nullptr, budget);
  }));
}

std::size_t BlotStore::RepairQuarantined(ThreadPool* pool,
                                         std::size_t budget) {
  std::unique_lock lock(sync_->state_mutex);
  return RepairQuarantinedLocked(pool, budget);
}

std::size_t BlotStore::RepairQuarantinedLocked(ThreadPool* pool,
                                               std::size_t budget) {
  auto& registry = obs::MetricsRegistry::global();
  const std::vector<HealthMap::Target> targets = health_->Quarantined();
  std::size_t attempted = 0;
  std::size_t repaired = 0;
  for (const HealthMap::Target& target : targets) {
    if (budget != 0 && attempted >= budget) break;
    // A whole-replica rebuild triggered by an earlier target may have
    // already healed (and counted) this one.
    if (health_->Get(target.replica, target.partition) !=
        PartitionHealth::kQuarantined)
      continue;
    ++attempted;
    try {
      repaired += RecoverPartitionLocked(target.replica, target.partition,
                                         std::nullopt, pool)
                      .partitions;
    } catch (const Error& e) {
      // No healthy source: the partition stays quarantined; queries keep
      // routing around it and a later repair pass retries.
      if (registry.enabled()) {
        static obs::Counter& failed_total =
            registry.GetCounter("repair.failed_total");
        failed_total.Increment();
      }
      if (obs::EventLog::Global().enabled()) {
        obs::EventLog::Global().Warn(
            "repair.failed", "partition repair failed; stays quarantined",
            {obs::Field("replica",
                        replicas_[target.replica].config().Name()),
             obs::Field("partition", target.partition),
             obs::Field("error", std::string(e.what()))});
      }
    }
  }
  if (registry.enabled()) {
    static obs::Gauge& active_gauge =
        registry.GetGauge("quarantine.active");
    active_gauge.Set(static_cast<double>(health_->QuarantinedCount()));
  }
  return repaired;
}

std::uint64_t BlotStore::RecoverPartition(std::size_t target,
                                          std::size_t partition,
                                          std::optional<std::size_t> source,
                                          ThreadPool* pool) {
  std::unique_lock lock(sync_->state_mutex);
  return RecoverPartitionLocked(target, partition, source, pool).records;
}

BlotStore::Healed BlotStore::RecoverPartitionLocked(
    std::size_t target, std::size_t partition,
    std::optional<std::size_t> source, ThreadPool* pool) {
  require(target < replicas_.size(),
          "BlotStore::RecoverPartition: bad replica index");
  require(!source.has_value() ||
              (*source < replicas_.size() && *source != target),
          "BlotStore::RecoverPartition: bad source index");
  Replica& rep = replicas_[target];
  require(partition < rep.NumPartitions(),
          "BlotStore::RecoverPartition: bad partition");
  const std::uint64_t start_ns = obs::MonotonicNanos();
  // Replicas to fetch from, in index order: `source` when given,
  // otherwise every other replica covering `range`.
  const auto sources_covering = [&](const STRange& range) {
    std::vector<std::size_t> sources;
    for (std::size_t r = 0; r < replicas_.size(); ++r)
      if (source.has_value()
              ? r == *source
              : r != target && replicas_[r].universe().Contains(range))
        sources.push_back(r);
    return sources;
  };

  // The lost unit holds exactly the records inside its closed range that
  // no other partition of this replica holds: ranges share faces, and the
  // partitioner splits ties on a face by position, so the neighbours'
  // face records are subtracted from what a source returns for the
  // range. The unit's digest and record count accept the result.
  const StoredPartition& lost = rep.partition(partition);
  const STRange needed = rep.index().Range(partition);
  std::string fallback;
  std::vector<Record> held;
  if (!lost.digest.has_value()) {
    fallback = "partition has no digest (manifest before version 3)";
  } else {
    const std::vector<std::size_t> self = {partition};
    ScanOptions others;
    others.pool = pool;
    others.exclude_partitions = &self;
    try {
      held = rep.Execute(needed, others).records;
    } catch (const PartitionFaultError& e) {
      Fault(target, e);
      fallback = "a neighbouring partition is unreadable";
    }
  }
  if (fallback.empty()) {
    std::sort(held.begin(), held.end(), RecordKeyLess);
    for (const std::size_t r : sources_covering(needed)) {
      std::optional<std::vector<Record>> expected;
      try {
        expected =
            MultisetDifference(replicas_[r].Execute(needed, pool).records, held);
      } catch (const PartitionFaultError& e) {
        // The source's own copies are bad: contain the damage and move on.
        Fault(r, e);
        continue;
      }
      if (!expected || expected->size() != lost.num_records ||
          MultisetDigest(*expected) != *lost.digest)
        continue;  // not this unit's records: try the next source
      const bool was_quarantined =
          health_->Get(target, partition) == PartitionHealth::kQuarantined;
      rep.RestorePartition(partition, *expected);
      sketches_[target] = ReplicaSketch::FromReplica(rep);
      health_->MarkOk(target, partition);
      const double repair_ms_elapsed =
          double(obs::MonotonicNanos() - start_ns) * 1e-6;
      auto& registry = obs::MetricsRegistry::global();
      if (registry.enabled()) {
        static obs::Counter& partitions_total =
            registry.GetCounter("repair.partitions_total");
        static obs::Counter& records_total =
            registry.GetCounter("repair.records_total");
        static obs::Histogram& repair_ms =
            registry.GetHistogram("repair.ms");
        partitions_total.Increment();
        records_total.Increment(expected->size());
        repair_ms.Observe(repair_ms_elapsed);
      }
      if (obs::EventLog::Global().enabled()) {
        obs::EventLog::Global().Info(
            "repair", "partition repaired from healthy replica",
            {obs::Field("replica", rep.config().Name()),
             obs::Field("partition", partition),
             obs::Field("source", replicas_[r].config().Name()),
             obs::Field("records", expected->size()),
             obs::Field("ms", repair_ms_elapsed)});
      }
      return {expected->size(), was_quarantined ? 1u : 0u};
    }
    fallback = "no source's records matched the partition digest";
  }

  // The one fallback: rebuild the whole replica from a covering source.
  auto& registry = obs::MetricsRegistry::global();
  if (registry.enabled()) {
    static obs::Counter& full_rebuilds =
        registry.GetCounter("repair.full_rebuilds_total");
    full_rebuilds.Increment();
  }
  if (obs::EventLog::Global().enabled()) {
    obs::EventLog::Global().Warn(
        "repair.full_rebuild",
        "partition not repairable on its own; rebuilding whole replica",
        {obs::Field("replica", rep.config().Name()),
         obs::Field("partition", partition),
         obs::Field("reason", fallback)});
  }
  const std::vector<std::size_t> sources = sources_covering(rep.universe());
  require(!sources.empty(),
          "BlotStore::RecoverPartition: no replica covers the target");
  for (const std::size_t r : sources) {
    try {
      return RecoverReplicaFromLocked(target, r, pool);
    } catch (const Error&) {
      continue;  // unreadable, or contradicts the digests: try the next
    }
  }
  throw CorruptData("BlotStore::RecoverPartition: full rebuild of replica " +
                    rep.config().Name() + " failed from every source");
}

BlotStore::RoutedBatchResult BlotStore::ExecuteBatch(
    std::span<const STRange> queries, const CostModel& model,
    ThreadPool* pool) {
  const std::uint64_t start_ns = obs::MonotonicNanos();
  auto& registry = obs::MetricsRegistry::global();
  const bool profiling = registry.enabled();
  RoutedBatchResult result;
  result.per_query.resize(queries.size());
  result.replica_of.resize(queries.size());

  // Queries whose group's shared scan failed; retried one-by-one through
  // Execute after the shared lock is released.
  std::vector<std::size_t> fallback;
  const auto add_stats = [&result](const QueryStats& stats) {
    result.stats.partitions_scanned += stats.partitions_scanned;
    result.stats.records_scanned += stats.records_scanned;
    result.stats.bytes_read += stats.bytes_read;
    result.stats.cache_hits += stats.cache_hits;
    result.stats.cache_misses += stats.cache_misses;
  };
  std::uint64_t route_done_ns = start_ns;
  std::uint64_t scans_done_ns = start_ns;
  {
    std::shared_lock lock(sync_->state_mutex);
    // Group queries by routed replica, preserving original indices. The
    // replica count is small, so a flat vector indexed by replica id
    // replaces the ordered map (allocator churn on large batches).
    std::vector<std::vector<std::size_t>> groups(replicas_.size());
    for (std::size_t q = 0; q < queries.size(); ++q) {
      const std::size_t replica =
          RankCandidates(queries[q], model).ranked.front().replica_index;
      result.replica_of[q] = replica;
      groups[replica].push_back(q);
    }
    if (profiling) route_done_ns = obs::MonotonicNanos();
    for (std::size_t replica = 0; replica < groups.size(); ++replica) {
      const std::vector<std::size_t>& query_ids = groups[replica];
      if (query_ids.empty()) continue;
      std::vector<STRange> group;
      group.reserve(query_ids.size());
      for (std::size_t q : query_ids) group.push_back(queries[q]);
      try {
        BatchResult batch =
            ::blot::ExecuteBatch(replicas_[replica], group, pool);
        for (std::size_t j = 0; j < query_ids.size(); ++j)
          result.per_query[query_ids[j]] = std::move(batch.per_query[j]);
        add_stats(batch.stats);
        result.naive_partition_scans += batch.naive_partition_scans;
        // Fallback queries are counted by Execute; count the shared-scan
        // ones here.
        if (profiling) {
          static obs::Counter& routed_total =
              registry.GetCounter("query.routed_total");
          routed_total.Increment(query_ids.size());
          registry
              .GetCounter("query.routed_total",
                          {{"replica", replicas_[replica].config().Name()}})
              .Increment(query_ids.size());
        }
      } catch (const PartitionFaultError& e) {
        // The shared scan names its failing partitions: quarantine
        // exactly those, then answer the group's queries one by one.
        Fault(replica, e);
        fallback.insert(fallback.end(), query_ids.begin(), query_ids.end());
      }
    }
    if (profiling) scans_done_ns = obs::MonotonicNanos();
  }

  for (const std::size_t q : fallback) {
    RoutedResult routed = Execute(queries[q], model, pool);
    result.per_query[q] = std::move(routed.result.records);
    result.replica_of[q] = routed.replica_index;
    add_stats(routed.result.stats);
    result.naive_partition_scans += routed.result.stats.partitions_scanned;
  }
  const std::uint64_t end_ns = obs::MonotonicNanos();
  result.measured_ms = double(end_ns - start_ns) * 1e-6;

  if (profiling) {
    // Batch-level stage breakdown: route = ranking every query, execute =
    // the shared per-replica scans, failover = the one-by-one retries
    // (those queries also produced their own full profiles via Execute).
    obs::QueryProfile& profile = result.profile;
    profile.AddStage(obs::Stage::kRoute,
                     double(route_done_ns - start_ns) * 1e-6);
    profile.AddStage(obs::Stage::kExecute,
                     double(scans_done_ns - route_done_ns) * 1e-6,
                     result.stats.bytes_read);
    if (!fallback.empty())
      profile.AddStage(obs::Stage::kFailover,
                       double(end_ns - scans_done_ns) * 1e-6);
    profile.partitions_touched = result.stats.partitions_scanned;
    profile.records_scanned = result.stats.records_scanned;
    profile.cache_hits = result.stats.cache_hits;
    profile.cache_misses = result.stats.cache_misses;
    profile.cache_miss_bytes = result.stats.bytes_read;
    profile.parallel_scan = pool != nullptr;
    profile.measured_cost_ms = result.measured_ms;
    profile.total_ms = result.measured_ms;
  }

  if (profiling) {
    static obs::Counter& batches_total =
        registry.GetCounter("query.batches_total");
    static obs::Counter& batch_queries =
        registry.GetCounter("query.batch_queries_total");
    static obs::Counter& partitions_scanned =
        registry.GetCounter("query.batch_partitions_scanned_total");
    static obs::Counter& scans_saved =
        registry.GetCounter("query.batch_shared_scans_saved_total");
    static obs::Histogram& batch_ms =
        registry.GetHistogram("query.batch_measured_ms");
    batches_total.Increment();
    batch_queries.Increment(queries.size());
    partitions_scanned.Increment(result.stats.partitions_scanned);
    scans_saved.Increment(result.naive_partition_scans -
                          result.stats.partitions_scanned);
    batch_ms.Observe(result.measured_ms);
  }
  return result;
}

namespace {

// Store manifest versions. v2 (before the replicas were the whole store)
// also carried the checksum of a dataset.bin copy of every record; Load
// skips that checksum and never opens the file, and Save deletes it.
constexpr std::uint64_t kStoreMagicV2 = 0x325252544F4C42ull;  // "BLOTRR2"
constexpr std::uint64_t kStoreMagic = 0x335252544F4C42ull;    // "BLOTRR3"
const char* kStoreManifest = "store.blot";
const char* kStoreDatasetV2 = "dataset.bin";

std::string ReplicaDirName(std::size_t i) {
  char name[32];
  std::snprintf(name, sizeof(name), "replica_%03zu", i);
  return name;
}

}  // namespace

void BlotStore::Save(const std::filesystem::path& directory) const {
  namespace fs = std::filesystem;
  fs::create_directories(directory);
  for (std::size_t i = 0; i < replicas_.size(); ++i)
    SegmentStore::Save(replicas_[i], directory / ReplicaDirName(i));

  ByteWriter manifest;
  manifest.PutU64(kStoreMagic);
  PutRange(manifest, universe_);
  manifest.PutVarint(replicas_.size());
  manifest.PutU64(Fnv1a64(manifest.buffer()));  // see ReadManifestBody
  WriteFileAtomically(directory / kStoreManifest, manifest.buffer());

  // Once the new manifest is in place, drop what an earlier, larger or
  // version-2 store left behind.
  fs::remove(directory / kStoreDatasetV2);
  for (std::size_t i = replicas_.size();
       fs::exists(directory / ReplicaDirName(i)); ++i)
    fs::remove_all(directory / ReplicaDirName(i));
}

BlotStore BlotStore::Load(const std::filesystem::path& directory) {
  require(std::filesystem::exists(directory / kStoreManifest),
          "BlotStore::Load: no store manifest in " + directory.string());
  const Bytes body = ReadManifestBody(directory / kStoreManifest);
  ByteReader manifest(body);
  const std::uint64_t magic = manifest.GetU64();
  validate(magic == kStoreMagic || magic == kStoreMagicV2,
           "BlotStore::Load: bad store magic");
  BlotStore store(GetRange(manifest));
  const std::uint64_t num_replicas = manifest.GetVarint();
  if (magic == kStoreMagicV2) manifest.GetU64();  // dataset.bin checksum
  validate(manifest.AtEnd(), "BlotStore::Load: trailing manifest bytes");
  for (std::uint64_t i = 0; i < num_replicas; ++i) {
    Replica replica = SegmentStore::Load(directory / ReplicaDirName(i));
    validate(store.universe_.Contains(replica.universe()),
             "BlotStore::Load: replica outside store universe");
    store.replicas_.push_back(std::move(replica));
    store.sketches_.push_back(
        ReplicaSketch::FromReplica(store.replicas_.back()));
    store.health_->AddReplica(store.replicas_.back().NumPartitions());
    // Unlike AddReplica, the replica is not registered with latency_, so
    // a loaded store routes without brownout penalties. Registering it
    // changes routing; that waits for the cost-model calibration work,
    // where routing changes are measured.
  }
  return store;
}

std::uint64_t BlotStore::RecoverReplicaFrom(std::size_t i, std::size_t source,
                                            ThreadPool* pool) {
  std::unique_lock lock(sync_->state_mutex);
  return RecoverReplicaFromLocked(i, source, pool).records;
}

BlotStore::Healed BlotStore::RecoverReplicaFromLocked(std::size_t i,
                                                      std::size_t source,
                                                      ThreadPool* pool) {
  require(i < replicas_.size() && source < replicas_.size(),
          "BlotStore::RecoverReplicaFrom: bad index");
  require(i != source, "BlotStore::RecoverReplicaFrom: source == target");
  // The source must cover everything the lost replica stored: any full
  // replica recovers anything; a partial replica can only recover
  // replicas whose universe lies within its coverage.
  const STRange target_universe = replicas_[i].universe();
  require(replicas_[source].universe().Contains(target_universe),
          "BlotStore::RecoverReplicaFrom: source does not cover target");
  const ReplicaConfig config = replicas_[i].config();
  const Dataset covered = RecordsFrom(source, target_universe);
  // Every replica holds the same records, so when the lost replica's
  // units all carry digests their sum is the digest the source's records
  // must have: a source that contradicts it is not used.
  std::optional<std::uint64_t> expected = 0;
  for (std::size_t p = 0; expected && p < replicas_[i].NumPartitions(); ++p) {
    const auto& digest = replicas_[i].partition(p).digest;
    expected = digest ? std::optional(*expected + *digest) : std::nullopt;
  }
  if (expected && (covered.size() != replicas_[i].NumRecords() ||
                   MultisetDigest(covered.records()) != *expected))
    throw CorruptData("BlotStore::RecoverReplicaFrom: the records of " +
                      replicas_[source].config().Name() +
                      " contradict the digests of " + config.Name());
  // The lost replica's storage is discarded; drop its cached decodes
  // eagerly rather than letting them age out of the LRU.
  const std::uint64_t old_cache_id = replicas_[i].cache_id();
  PartitionCache::Global().InvalidateReplica(old_cache_id,
                                             replicas_[i].NumPartitions());
  replicas_[i] = Replica::Build(covered, config, target_universe, pool);
  // A decode cached before recovery must never satisfy a query after it:
  // the rebuilt replica's cache identity is process-unique and fresh.
  ensure(replicas_[i].cache_id() != old_cache_id,
         "BlotStore::RecoverReplicaFrom: rebuilt replica kept its old "
         "cache identity");
  sketches_[i] = ReplicaSketch::FromReplica(replicas_[i]);
  const std::size_t quarantined = health_->CountsFor(i).quarantined;
  health_->ResetReplica(i, replicas_[i].NumPartitions());
  if (obs::EventLog::Global().enabled()) {
    obs::EventLog::Global().Info(
        "repair.replica_rebuilt", "replica rebuilt from healthy source",
        {obs::Field("replica", config.Name()),
         obs::Field("source", replicas_[source].config().Name()),
         obs::Field("records", replicas_[i].NumRecords())});
  }
  return {replicas_[i].NumRecords(), quarantined};
}

}  // namespace blot
