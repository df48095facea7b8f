// Fault-tolerant execution latency: what failover and repair cost.
//
// Four measured paths over the same query stream on a two-replica store:
//   healthy   — no faults, injector disarmed; the routing baseline.
//   armed-p0  — injector armed with probability 0: the per-read cost of
//               the injection hook itself (the disarmed hook is a single
//               relaxed atomic load and is part of `healthy`).
//   failover  — the routed replica's copies of the query's partitions are
//               corrupted first; Execute pays the failed attempt, the
//               quarantine bookkeeping, and the retry on the survivor
//               (RepairMode::kNone, repair excluded from the timing).
//   sync-heal — same corruption, RepairMode::kSync: Execute additionally
//               repairs the quarantined partitions inline before
//               returning (the self-healing worst case). Adjacent
//               corrupted units make each other's repair fall back to
//               rebuilding the whole replica.
// Plus a repair-throughput measurement: partitions/s and records/s for
// RecoverPartition over a fully corrupted replica. With every unit
// corrupted, the first repair finds its neighbours unreadable too and
// takes the whole-replica fallback (docs/robustness.md); the remaining
// calls then repair healthy units one partition at a time.
//
// Every path is timed with one estimator: each query runs kPasses times
// (re-corrupted before each faulted pass) and the median pass is its
// time. A path's ms/query is the mean of those medians; an overhead
// ratio is the median over queries of the per-query ratio to the healthy
// median, so one slow pass or one whole-replica rebuild cannot swing it.
//
// Writes machine-readable results to BENCH_failover.json (or argv[1],
// schema blot.bench.v1). The overhead ratios (failover_overhead_x,
// sync_heal_overhead_x) are machine-independent and tracked; raw
// per-query timings are untracked metrics. Consistency bar: every path
// must match the healthy record counts.
#include <chrono>
#include <cstdio>
#include <numeric>
#include <optional>
#include <string>
#include <vector>

#include "bench_common.h"
#include "core/fault_injection.h"
#include "core/store.h"
#include "util/stats.h"

using namespace blot;

namespace {

double MsSince(const std::chrono::steady_clock::time_point& start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

// Flips a byte in the middle of each non-empty unit the query will read
// on the replica it routes to now; returns how many units were corrupted.
// Units the zone map skips are left alone: the query would never detect
// them, and a later repair would find them corrupt.
std::size_t CorruptRouted(BlotStore& store, const CostModel& model,
                          const STRange& query) {
  const std::size_t replica = store.RouteQuery(query, model);
  std::size_t corrupted = 0;
  for (const std::size_t p :
       store.replica(replica).index().InvolvedPartitions(query)) {
    const StoredPartition& stored = store.replica(replica).partition(p);
    if (stored.data.empty() ||
        (stored.has_zone && !query.Intersects(stored.zone)))
      continue;
    StoredPartition& unit = store.mutable_replica(replica).MutablePartition(p);
    unit.data[unit.data.size() / 2] ^= 0x5A;
    ++corrupted;
  }
  return corrupted;
}

// Median over `passes` of the wall time of `run`; `prepare` runs untimed
// before each pass and returns false to skip the query (nothing timed).
template <typename Prepare, typename Run>
std::optional<double> MedianMs(int passes, Prepare prepare, Run run) {
  std::vector<double> ms;
  for (int pass = 0; pass < passes; ++pass) {
    if (!prepare()) return std::nullopt;
    const auto start = std::chrono::steady_clock::now();
    run();
    ms.push_back(MsSince(start));
  }
  return Percentile(std::move(ms), 50.0);
}

double Mean(const std::vector<double>& values) {
  return std::accumulate(values.begin(), values.end(), 0.0) /
         static_cast<double>(values.size());
}

}  // namespace

int main(int argc, char** argv) {
  const std::string json_path =
      bench::OutputPath(argc, argv, "BENCH_failover.json");

  constexpr std::size_t kRecords = 60000;
  constexpr std::size_t kQueries = 48;

  Dataset dataset = bench::MakeSample(kRecords);
  const std::size_t num_records = dataset.size();
  const STRange universe = bench::PaperUniverse();
  ThreadPool pool(4);
  BlotStore store(std::move(dataset), universe);
  const std::size_t rep_row = store.AddReplica(
      {{.spatial_partitions = 16, .temporal_partitions = 8},
       EncodingScheme::FromName("ROW-SNAPPY")},
      &pool);
  const std::size_t rep_col = store.AddReplica(
      {{.spatial_partitions = 64, .temporal_partitions = 16},
       EncodingScheme::FromName("COL-GZIP")},
      &pool);
  std::printf("store: %s + %s over %zu records\n",
              store.replica(rep_row).config().Name().c_str(),
              store.replica(rep_col).config().Name().c_str(), num_records);

  const CostModel model{EnvironmentModel::LocalHadoop()};
  Rng rng(20140623);
  std::vector<STRange> queries;
  for (std::size_t i = 0; i < kQueries; ++i)
    queries.push_back(SampleQueryInstance(
        {{universe.Width() * 0.15, universe.Height() * 0.15,
          universe.Duration() * 0.25}},
        universe, rng));

  FailoverPolicy no_repair;
  no_repair.repair = RepairMode::kNone;
  store.SetFailoverPolicy(no_repair);

  constexpr int kPasses = 5;
  const auto always = [] { return true; };

  // --- healthy baseline ------------------------------------------------
  std::vector<std::size_t> healthy_counts(queries.size(), 0);
  std::vector<double> healthy(queries.size());
  for (std::size_t i = 0; i < queries.size(); ++i)
    healthy[i] = *MedianMs(kPasses, always, [&] {
      healthy_counts[i] =
          store.Execute(queries[i], model, &pool).result.records.size();
    });

  // --- armed injector that never fires: the hook's own overhead --------
  FaultPlan noop_plan;
  noop_plan.probability = 0.0;
  noop_plan.max_fires_per_target = 0;
  FaultInjector::Global().Arm(noop_plan);
  std::vector<double> armed(queries.size());
  for (std::size_t i = 0; i < queries.size(); ++i)
    armed[i] = *MedianMs(kPasses, always,
                         [&] { store.Execute(queries[i], model, &pool); });
  FaultInjector::Global().Disarm();

  // --- failover: corrupt the routed replica, time only Execute ---------
  // Repair before each pass (untimed) resets the data and the health map
  // so every pass pays the full first-attempt-fails path. Queries whose
  // routed replica holds no non-empty unit they read are skipped.
  std::vector<std::size_t> faulted;  // queries both faulted paths time
  std::vector<double> failover;
  std::vector<double> failover_x;
  std::size_t failover_mismatches = 0;
  for (std::size_t i = 0; i < queries.size(); ++i) {
    const std::optional<double> ms = MedianMs(
        kPasses,
        [&] {
          store.RepairQuarantined(&pool);
          return CorruptRouted(store, model, queries[i]) > 0;
        },
        [&] {
          const auto routed = store.Execute(queries[i], model, &pool);
          if (routed.result.records.size() != healthy_counts[i])
            ++failover_mismatches;
        });
    if (!ms) continue;
    faulted.push_back(i);
    failover.push_back(*ms);
    failover_x.push_back(*ms / healthy[i]);
  }
  store.RepairQuarantined(&pool);

  // --- sync self-healing: Execute repairs inline ------------------------
  FailoverPolicy sync_policy;
  sync_policy.repair = RepairMode::kSync;
  store.SetFailoverPolicy(sync_policy);
  std::vector<double> heal;
  std::vector<double> heal_x;
  std::size_t heal_mismatches = 0;
  for (const std::size_t i : faulted) {
    const std::optional<double> ms = MedianMs(
        kPasses, [&] { return CorruptRouted(store, model, queries[i]) > 0; },
        [&] {
          const auto routed = store.Execute(queries[i], model, &pool);
          if (routed.result.records.size() != healthy_counts[i])
            ++heal_mismatches;
        });
    if (!ms) continue;
    heal.push_back(*ms);
    heal_x.push_back(*ms / healthy[i]);
  }
  store.SetFailoverPolicy(no_repair);

  // --- repair throughput: every unit corrupted, so the first repair -----
  // --- rebuilds the whole replica (its neighbours are unreadable) -------
  std::vector<std::size_t> broken;
  for (std::size_t p = 0; p < store.replica(rep_col).NumPartitions(); ++p) {
    StoredPartition& unit = store.mutable_replica(rep_col).MutablePartition(p);
    if (unit.data.empty()) continue;
    unit.data[unit.data.size() / 3] ^= 0xFF;
    broken.push_back(p);
  }
  std::uint64_t records_restored = 0;
  const auto repair_start = std::chrono::steady_clock::now();
  for (const std::size_t p : broken)
    records_restored += store.RecoverPartition(rep_col, p, rep_row, &pool);
  const double repair_ms = MsSince(repair_start);
  const std::size_t repaired = broken.size();

  if (failover.empty() || heal.empty()) {
    std::printf("no query faulted: nothing to compare\n");
    return 1;
  }
  const double per_query_healthy = Mean(healthy);
  const double per_query_armed = Mean(armed);
  const double per_query_failover = Mean(failover);
  const double per_query_heal = Mean(heal);
  const double failover_overhead = Percentile(failover_x, 50.0);
  const double heal_overhead = Percentile(heal_x, 50.0);
  std::vector<double> armed_x;
  for (std::size_t i = 0; i < queries.size(); ++i)
    armed_x.push_back(armed[i] / healthy[i]);
  const double armed_overhead = Percentile(armed_x, 50.0);
  bench::PrintRule('-', 64);
  std::printf("%-26s %12s %14s\n", "path", "ms/query", "median ratio");
  bench::PrintRule('-', 64);
  std::printf("%-26s %12.3f %13.2fx\n", "healthy", per_query_healthy, 1.0);
  std::printf("%-26s %12.3f %13.2fx\n", "armed injector (p=0)",
              per_query_armed, armed_overhead);
  std::printf("%-26s %12.3f %13.2fx\n", "failover (no repair)",
              per_query_failover, failover_overhead);
  std::printf("%-26s %12.3f %13.2fx\n", "failover + sync heal",
              per_query_heal, heal_overhead);
  bench::PrintRule('-', 64);
  std::printf(
      "repair: %zu partitions (%llu records) in %.1f ms "
      "(%.0f partitions/s, %.0f records/s)\n",
      repaired, static_cast<unsigned long long>(records_restored), repair_ms,
      repair_ms > 0 ? 1000.0 * repaired / repair_ms : 0.0,
      repair_ms > 0 ? 1000.0 * records_restored / repair_ms : 0.0);
  std::printf(
      "  (every unit corrupted: the first repair reads unreadable "
      "neighbours and rebuilds the whole replica)\n");

  bench::BenchReport report("micro_failover");
  report.Metric("healthy_ms_per_query", per_query_healthy);
  report.Metric("armed_noop_ms_per_query", per_query_armed);
  report.Metric("failover_ms_per_query", per_query_failover);
  report.Metric("sync_heal_ms_per_query", per_query_heal);
  report.Metric("failover_overhead_x", failover_overhead, /*tracked=*/true);
  report.Metric("sync_heal_overhead_x", heal_overhead, /*tracked=*/true);
  report.Metric("repair_ms", repair_ms);
  report.Metric("repair_partitions_per_s",
                repair_ms > 0 ? 1000.0 * repaired / repair_ms : 0.0);
  report.Info("dataset_records", static_cast<std::uint64_t>(num_records));
  report.Info("queries", static_cast<std::uint64_t>(queries.size()));
  report.Info("faulted_queries", static_cast<std::uint64_t>(failover.size()));
  report.Info("passes_per_query", static_cast<std::uint64_t>(kPasses));
  report.Info("repair_partitions", static_cast<std::uint64_t>(repaired));
  report.Info("repair_records", records_restored);
  if (!report.Write(json_path)) return 1;
  std::printf("wrote %s\n", json_path.c_str());

  const bool consistent = failover_mismatches == 0 && heal_mismatches == 0 &&
                          store.health().QuarantinedCount() == 0;
  std::printf("result consistency across paths: %s\n",
              consistent ? "YES" : "NO");
  return consistent ? 0 : 1;
}
