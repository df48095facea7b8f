// blotload: macro-benchmark driver for the serving layer (src/serve).
//
// Replays a synthetic query workload against a QueryServer in two modes:
//
//   closed loop — C client threads each issue Submit+get back-to-back for
//     the phase duration, once per worker-thread count in --threads. The
//     headline tracked metric is the throughput scaling from 1 to 8
//     request workers: with --io-ms emulating the storage round-trip of
//     the paper's remote environments, queries overlap their waits and
//     the ratio is machine-independent (it measures the scheduler, not
//     the host's core count).
//
//   open loop — a dispatcher offers queries at a fixed rate (a multiple
//     of the server's nominal capacity) against a small admission budget;
//     the server must shed the excess with structured OverloadedError
//     while every admitted query completes. Tracked: the shed rate.
//
//   latency faults — the deterministic fault injector arms heavy-tailed
//     (pareto) per-target read stalls and the workload replays twice
//     under a per-query deadline with graceful degradation on: once with
//     hedged reads off, once on. Tracked: the hedging-off deadline miss
//     rate, and the p99 improvement hedging buys at equal correctness
//     (docs/robustness.md).
//
// Correctness bar: every admitted query's record count must match the
// single-threaded reference count for its query shape, in every phase;
// shed queries are counted, never wrong; a partial result may only
// undercount, never fabricate records. Exit 0 only when consistent.
//
// Results go to BENCH_serving.json (or --out, schema blot.bench.v1) for
// scripts/bench_tripwire.py. Usage:
//
//   blotload [--out path] [--mode all|closed|open|latency] [--records N]
//            [--shapes K] [--threads 1,8] [--clients C] [--duration-s S]
//            [--io-ms MS] [--overload-factor F] [--max-inflight N]
//            [--cache-mb MB] [--seed S]
//            [--deadline-ms D] [--hedge-ms H]
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_common.h"
#include "core/fault_injection.h"
#include "core/partition_cache.h"
#include "core/store.h"
#include "serve/server.h"
#include "tools/flags.h"
#include "util/stats.h"

using namespace blot;

namespace {

struct PhaseResult {
  double elapsed_s = 0.0;
  std::uint64_t completed = 0;
  std::vector<double> latencies_ms;

  double Qps() const {
    return elapsed_s > 0 ? double(completed) / elapsed_s : 0.0;
  }
};

double SecondsSince(const std::chrono::steady_clock::time_point& start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

// C clients hammer the server back-to-back for `duration_s`. Record
// counts are checked against `expected` (one entry per query shape);
// mismatches are counted in `mismatches`.
PhaseResult RunClosedLoop(serve::QueryServer& server,
                          const std::vector<STRange>& queries,
                          const std::vector<std::size_t>& expected,
                          std::size_t clients, double duration_s,
                          std::atomic<std::uint64_t>& mismatches) {
  PhaseResult phase;
  std::atomic<std::size_t> next_query{0};
  std::atomic<bool> stop{false};
  std::vector<std::vector<double>> per_client_ms(clients);
  std::vector<std::thread> threads;
  threads.reserve(clients);
  const auto start = std::chrono::steady_clock::now();
  for (std::size_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      auto& ms = per_client_ms[c];
      while (!stop.load(std::memory_order_relaxed)) {
        const std::size_t i =
            next_query.fetch_add(1, std::memory_order_relaxed) %
            queries.size();
        const auto t0 = std::chrono::steady_clock::now();
        const auto routed = server.Execute(queries[i]);
        ms.push_back(SecondsSince(t0) * 1000.0);
        if (routed.result.records.size() != expected[i])
          mismatches.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::duration<double>(duration_s));
  stop.store(true, std::memory_order_relaxed);
  for (auto& t : threads) t.join();
  phase.elapsed_s = SecondsSince(start);
  for (auto& ms : per_client_ms) {
    phase.completed += ms.size();
    phase.latencies_ms.insert(phase.latencies_ms.end(), ms.begin(), ms.end());
  }
  return phase;
}

struct LatencyLegResult {
  std::uint64_t total = 0;
  std::uint64_t misses = 0;  // partial results + deadline errors
  std::vector<double> latencies_ms;

  double MissRatePct() const {
    return total > 0 ? 100.0 * double(misses) / double(total) : 0.0;
  }
};

// Replays every query shape `rounds` times under a deadline with
// graceful degradation on. A query that came back partial (or threw
// DeadlineExceededError from the admission queue) counts as a deadline
// miss; a partial may only undercount its shape's reference result.
LatencyLegResult RunLatencyLeg(serve::QueryServer& server,
                               const std::vector<STRange>& queries,
                               const std::vector<std::size_t>& expected,
                               std::size_t clients, std::size_t rounds,
                               std::atomic<std::uint64_t>& mismatches) {
  LatencyLegResult leg;
  leg.total = queries.size() * rounds;
  std::atomic<std::size_t> next{0};
  std::atomic<std::uint64_t> misses{0};
  std::vector<std::vector<double>> per_client_ms(clients);
  std::vector<std::thread> threads;
  threads.reserve(clients);
  for (std::size_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      auto& ms = per_client_ms[c];
      for (;;) {
        const std::size_t n = next.fetch_add(1, std::memory_order_relaxed);
        if (n >= leg.total) break;
        const std::size_t i = n % queries.size();
        const auto t0 = std::chrono::steady_clock::now();
        try {
          const auto routed = server.Execute(queries[i]);
          ms.push_back(SecondsSince(t0) * 1000.0);
          if (routed.partial) {
            misses.fetch_add(1, std::memory_order_relaxed);
            if (routed.result.records.size() > expected[i])
              mismatches.fetch_add(1, std::memory_order_relaxed);
          } else if (routed.result.records.size() != expected[i]) {
            mismatches.fetch_add(1, std::memory_order_relaxed);
          }
        } catch (const DeadlineExceededError&) {
          ms.push_back(SecondsSince(t0) * 1000.0);
          misses.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  leg.misses = misses.load();
  for (auto& ms : per_client_ms)
    leg.latencies_ms.insert(leg.latencies_ms.end(), ms.begin(), ms.end());
  return leg;
}

int Usage() {
  std::fprintf(
      stderr,
      "usage: blotload [--out path] [--mode all|closed|open|latency]\n"
      "                [--records N] [--shapes K] [--threads 1,8]\n"
      "                [--clients C] [--duration-s S] [--io-ms MS]\n"
      "                [--overload-factor F] [--max-inflight N]\n"
      "                [--cache-mb MB] [--seed S] [--deadline-ms D]\n"
      "                [--hedge-ms H]\n"
      "\n"
      "exit codes: 0 every admitted result consistent, 1 mismatch or\n"
      "            error, 2 usage/invalid argument\n");
  return 2;
}

int Run(int argc, char** argv) {
  if (argc > 1 && std::string(argv[1]) == "--help") return Usage();
  tools::Flags flags(argc, argv, 1,
                     {"out", "mode", "records", "shapes", "threads",
                      "clients", "duration-s", "io-ms", "overload-factor",
                      "max-inflight", "cache-mb", "seed", "deadline-ms",
                      "hedge-ms"});
  const std::string out = flags.GetString("out", "BENCH_serving.json");
  const std::string mode = flags.GetString("mode", "all");
  require(mode == "all" || mode == "closed" || mode == "open" ||
              mode == "latency",
          "--mode must be all, closed, open or latency");
  const std::size_t records = std::size_t(flags.GetInt("records", 20000));
  const std::size_t shapes = std::size_t(flags.GetInt("shapes", 64));
  const double duration_s = flags.GetDouble("duration-s", 1.5);
  const double io_ms = flags.GetDouble("io-ms", 5.0);
  const double overload_factor = flags.GetDouble("overload-factor", 4.0);
  const std::size_t max_inflight_overload =
      std::size_t(flags.GetInt("max-inflight", 16));
  const std::uint64_t cache_mb = flags.GetUint64("cache-mb", 64);
  const std::uint64_t seed = flags.GetUint64("seed", 20140623);
  const double deadline_ms = flags.GetDouble("deadline-ms", 45.0);
  const double hedge_ms = flags.GetDouble("hedge-ms", 10.0);
  require(deadline_ms > 0.0, "--deadline-ms must be > 0");
  require(hedge_ms > 0.0, "--hedge-ms must be > 0");
  std::vector<std::size_t> worker_counts;
  for (const double w : tools::SplitDoubles(flags.GetString("threads", "1,8")))
    worker_counts.push_back(std::size_t(w));
  require(!worker_counts.empty(), "--threads needs at least one count");

  // A warm partition cache keeps per-query CPU small relative to the
  // emulated I/O wait, so closed-loop scaling measures the scheduler.
  PartitionCache::Global().Configure(cache_mb << 20);

  Dataset dataset = bench::MakeSample(records);
  const std::size_t num_records = dataset.size();
  const STRange universe = bench::PaperUniverse();
  BlotStore store(Dataset(dataset), universe);
  {
    ThreadPool build_pool(2, "build");
    store.AddReplica({{.spatial_partitions = 16, .temporal_partitions = 8},
                      EncodingScheme::FromName("ROW-SNAPPY")},
                     &build_pool);
    store.AddReplica({{.spatial_partitions = 64, .temporal_partitions = 16},
                      EncodingScheme::FromName("COL-GZIP")},
                     &build_pool);
  }
  // The latency-fault legs build their own store per leg, from the same
  // dataset: routing state (health, latency EWMAs) must start cold and
  // identical in both legs for the hedging comparison to be fair. The
  // replica pair is deliberately near-peer (same partitioning, different
  // encoding): hedging races the next-cheapest *covering* replica, and a
  // backup can only win the race when its cost is comparable — with the
  // stall maps independent per replica name, a stalled primary partition
  // is almost always healthy on the peer.
  const auto build_latency_store = [&dataset, &universe] {
    BlotStore lat_store(Dataset(dataset), universe);
    ThreadPool build_pool(2, "build");
    lat_store.AddReplica(
        {{.spatial_partitions = 16, .temporal_partitions = 8},
         EncodingScheme::FromName("ROW-SNAPPY")},
        &build_pool);
    lat_store.AddReplica(
        {{.spatial_partitions = 16, .temporal_partitions = 8},
         EncodingScheme::FromName("COL-SNAPPY")},
        &build_pool);
    return lat_store;
  };
  const CostModel model{EnvironmentModel::LocalHadoop()};

  // Query shapes: mid-size ranges sampled deterministically, so every
  // phase replays the same pool and counts are comparable across phases.
  Rng rng(seed);
  std::vector<STRange> queries;
  queries.reserve(shapes);
  for (std::size_t i = 0; i < shapes; ++i)
    queries.push_back(SampleQueryInstance(
        {{universe.Width() * 0.08, universe.Height() * 0.08,
          universe.Duration() * 0.15}},
        universe, rng));

  // Single-threaded reference counts (also warms the cache).
  std::vector<std::size_t> expected(queries.size(), 0);
  for (std::size_t i = 0; i < queries.size(); ++i)
    expected[i] = store.Execute(queries[i], model).result.records.size();

  std::printf("blotload: %zu records, %zu query shapes, io %.1f ms\n",
              num_records, queries.size(), io_ms);

  bench::BenchReport report("serving");
  report.Info("dataset_records", std::uint64_t(num_records));
  report.Info("query_shapes", std::uint64_t(queries.size()));
  report.Metric("io_ms", io_ms);
  std::atomic<std::uint64_t> mismatches{0};

  // ---- closed loop: throughput vs request-worker count ----------------
  std::vector<std::pair<std::size_t, double>> qps_by_workers;
  if (mode == "all" || mode == "closed") {
    bench::PrintRule('-', 70);
    std::printf("%-10s %10s %10s %10s %10s %10s\n", "workers", "qps",
                "p50 ms", "p95 ms", "p99 ms", "queries");
    bench::PrintRule('-', 70);
    for (const std::size_t workers : worker_counts) {
      serve::ServerOptions options;
      options.worker_threads = workers;
      options.simulate_io_ms = io_ms;
      // Clients and admission sized so the server is never the client's
      // bottleneck and nothing sheds in this phase.
      const std::size_t clients = std::max<std::size_t>(16, 2 * workers);
      options.max_inflight = clients + workers;
      serve::QueryServer server(store, model, options);
      PhaseResult phase = RunClosedLoop(server, queries, expected, clients,
                                        duration_s, mismatches);
      server.Drain();
      const auto stats = server.stats();
      ensure(stats.shed == 0, "closed loop must not shed");
      const double p50 = Percentile(phase.latencies_ms, 50);
      const double p95 = Percentile(phase.latencies_ms, 95);
      const double p99 = Percentile(phase.latencies_ms, 99);
      std::printf("%-10zu %10.1f %10.2f %10.2f %10.2f %10llu\n", workers,
                  phase.Qps(), p50, p95, p99,
                  static_cast<unsigned long long>(phase.completed));
      const std::string suffix = "_w" + std::to_string(workers);
      report.Metric("closed_loop_qps" + suffix, phase.Qps());
      report.Metric("closed_loop_p50_ms" + suffix, p50);
      report.Metric("closed_loop_p95_ms" + suffix, p95);
      report.Metric("closed_loop_p99_ms" + suffix, p99);
      qps_by_workers.emplace_back(workers, phase.Qps());
    }
    const auto [min_it, max_it] = std::minmax_element(
        qps_by_workers.begin(), qps_by_workers.end(),
        [](const auto& a, const auto& b) { return a.first < b.first; });
    if (min_it != max_it && min_it->second > 0) {
      const double speedup = max_it->second / min_it->second;
      std::printf("scaling %zu -> %zu workers: %.2fx\n", min_it->first,
                  max_it->first, speedup);
      // The acceptance ratio the tripwire tracks; keep the stable name
      // for the default 1-vs-8 sweep.
      if (min_it->first == 1 && max_it->first == 8)
        report.Metric("closed_loop_scaling_8v1_speedup", speedup,
                      /*tracked=*/true);
      else
        report.Metric("closed_loop_scaling_speedup", speedup);
    }
  }

  // ---- open loop: offered load beyond capacity must shed, not fail ----
  if (mode == "all" || mode == "open") {
    serve::ServerOptions options;
    options.worker_threads = 8;
    options.simulate_io_ms = io_ms;
    options.max_inflight = max_inflight_overload;
    serve::QueryServer server(store, model, options);
    // Nominal capacity: each worker holds one query for at least io_ms.
    const double capacity_qps =
        double(options.worker_threads) * 1000.0 / std::max(io_ms, 0.1);
    const double offered_qps = overload_factor * capacity_qps;
    const auto interval =
        std::chrono::duration<double>(1.0 / offered_qps);
    std::vector<std::future<BlotStore::RoutedResult>> futures;
    std::vector<std::size_t> admitted_query_of;
    std::uint64_t offered = 0;
    double retry_after_sum = 0.0;
    std::uint64_t retry_after_count = 0;
    const auto start = std::chrono::steady_clock::now();
    auto next_send = start;
    while (SecondsSince(start) < duration_s) {
      std::this_thread::sleep_until(next_send);
      next_send += std::chrono::duration_cast<
          std::chrono::steady_clock::duration>(interval);
      const std::size_t i = offered % queries.size();
      ++offered;
      try {
        futures.push_back(server.Submit(queries[i]));
        admitted_query_of.push_back(i);
      } catch (const serve::OverloadedError& e) {
        retry_after_sum += e.retry_after_ms();
        ++retry_after_count;
      }
    }
    for (std::size_t f = 0; f < futures.size(); ++f) {
      const auto routed = futures[f].get();
      if (routed.result.records.size() != expected[admitted_query_of[f]])
        mismatches.fetch_add(1, std::memory_order_relaxed);
    }
    server.Drain();
    const auto stats = server.stats();
    const double shed_rate_pct =
        stats.submitted > 0
            ? 100.0 * double(stats.shed) / double(stats.submitted)
            : 0.0;
    bench::PrintRule('-', 70);
    std::printf(
        "open loop: offered %.0f qps (%.1fx capacity), admitted %llu, "
        "shed %llu (%.1f%%), mean retry-after %.1f ms\n",
        offered_qps, overload_factor,
        static_cast<unsigned long long>(stats.admitted),
        static_cast<unsigned long long>(stats.shed), shed_rate_pct,
        retry_after_count > 0 ? retry_after_sum / double(retry_after_count)
                              : 0.0);
    ensure(stats.failed == 0, "admitted queries must not fail");
    report.Metric("open_loop_offered_qps", offered_qps);
    report.Metric("open_loop_admitted", double(stats.admitted));
    report.Metric("open_loop_shed", double(stats.shed));
    // Lower is better ("_pct"): under fixed 4x overload the shed rate
    // must stay near its structural 1 - 1/F value; a rise means admitted
    // queries got slower or admission broke.
    report.Metric("overload_shed_rate_pct", shed_rate_pct, /*tracked=*/true);
    report.Metric("open_loop_mean_retry_after_ms",
                  retry_after_count > 0
                      ? retry_after_sum / double(retry_after_count)
                      : 0.0);
    report.Info("overload_factor", std::uint64_t(overload_factor));
    report.Info("overload_max_inflight", std::uint64_t(max_inflight_overload));
  }

  // ---- latency faults: deadlines + hedged reads under pareto stalls ----
  if (mode == "all" || mode == "latency") {
    // Stalls are injected at the partition *read* boundary, which a warm
    // decoded-partition cache never crosses — run this leg uncached.
    PartitionCache::Global().Configure(0);
    // The hedge/deadline counters only tick while the registry is on;
    // both legs pay the same (tiny) profiling overhead, so the ratio
    // between them is unaffected.
    auto& registry = obs::MetricsRegistry::global();
    registry.set_enabled(true);
    obs::Counter& hedge_fired = registry.GetCounter("hedge.fired_total");
    obs::Counter& hedge_wins =
        registry.GetCounter("hedge.backup_wins_total");
    // Rare-but-harsh brownouts: a few percent of the storage units
    // stall, a deterministic few catastrophically (up to 4x the
    // deadline). That shape is what hedging wins against — a stalled
    // primary races a backup replica whose units are healthy with high
    // probability. Keeping stalls rare also keeps the LatencyMap EWMA
    // near the healthy baseline, so the 2x-expected hedge trigger fires
    // on genuine outliers instead of sliding up with a uniformly slow
    // fleet (where a backup would not help anyway).
    FaultPlan plan;
    plan.seed = seed ^ 0x6c6174656e6379ULL;
    plan.probability = 0.04;
    plan.kinds = {FaultKind::kLatency};
    plan.max_fires_per_target = 0;  // a stall persists until repaired
    plan.latency_dist = FaultPlan::LatencyDist::kPareto;
    plan.latency_min = 5.0;
    plan.latency_max = 400.0;

    // Fixed replay (not time-bound) so both legs run the identical
    // query sequence against the identical deterministic stall map.
    const std::size_t rounds = 4;
    const std::size_t lat_clients = 4;
    bench::PrintRule('-', 70);
    std::printf("%-10s %10s %10s %10s %10s %10s\n", "hedging", "queries",
                "miss %", "p50 ms", "p95 ms", "p99 ms");
    bench::PrintRule('-', 70);
    double p99_off = 0.0, p99_on = 0.0;
    const std::uint64_t fired_before = hedge_fired.value();
    const std::uint64_t wins_before = hedge_wins.value();
    for (const bool hedged : {false, true}) {
      // Re-arm per leg: fire/read counters reset, so the second leg sees
      // the same per-target stalls as the first. A fresh store per leg
      // resets the routing feedback (latency EWMAs, brownout penalties)
      // the same way — otherwise the first leg's observations would let
      // the second leg route around every stall it is meant to hedge.
      BlotStore lat_store = build_latency_store();  // before Arm
      FaultInjector::Global().Arm(plan);
      serve::ServerOptions options;
      options.worker_threads = lat_clients;
      options.max_inflight = 2 * lat_clients;
      options.default_deadline_ms = deadline_ms;
      options.allow_partial = true;
      options.hedge_ms = hedged ? hedge_ms : 0.0;
      serve::QueryServer server(lat_store, model, options);
      const LatencyLegResult leg = RunLatencyLeg(
          server, queries, expected, lat_clients, rounds, mismatches);
      server.Drain();
      const double p50 = Percentile(leg.latencies_ms, 50);
      const double p95 = Percentile(leg.latencies_ms, 95);
      const double p99 = Percentile(leg.latencies_ms, 99);
      (hedged ? p99_on : p99_off) = p99;
      std::printf("%-10s %10llu %10.1f %10.2f %10.2f %10.2f\n",
                  hedged ? "on" : "off",
                  static_cast<unsigned long long>(leg.total),
                  leg.MissRatePct(), p50, p95, p99);
      const std::string suffix = hedged ? "_hedged" : "";
      report.Metric("latency_fault_p50_ms" + suffix, p50);
      report.Metric("latency_fault_p99_ms" + suffix, p99);
      if (hedged) {
        report.Metric("deadline_miss_rate_hedged_pct", leg.MissRatePct());
      } else {
        // Lower is better ("_pct"): how often the unhedged store blows a
        // deadline under the fixed pareto stall plan.
        report.Metric("deadline_miss_rate_pct", leg.MissRatePct(),
                      /*tracked=*/true);
      }
    }
    FaultInjector::Global().Disarm();
    const std::uint64_t fired = hedge_fired.value() - fired_before;
    const std::uint64_t wins = hedge_wins.value() - wins_before;
    // Higher is better: p99 ratio of hedging off over on at equal
    // correctness — the tail latency the backup attempt buys back.
    const double improvement = p99_on > 0.0 ? p99_off / p99_on : 1.0;
    std::printf("hedge p99 improvement: %.2fx (deadline %.0f ms, hedge "
                "after %.0f ms; %llu hedges fired, %llu backup wins)\n",
                improvement, deadline_ms, hedge_ms,
                static_cast<unsigned long long>(fired),
                static_cast<unsigned long long>(wins));
    report.Metric("hedge_fired", double(fired));
    report.Metric("hedge_backup_wins", double(wins));
    report.Metric("hedge_p99_improvement", improvement, /*tracked=*/true);
    report.Metric("latency_fault_deadline_ms", deadline_ms);
    report.Metric("latency_fault_hedge_ms", hedge_ms);
  }

  const std::uint64_t bad = mismatches.load();
  report.Metric("result_mismatches", double(bad));
  if (!report.Write(out)) return 1;
  std::printf("wrote %s\n", out.c_str());
  std::printf("admitted-result consistency: %s\n", bad == 0 ? "YES" : "NO");
  return bad == 0 ? 0 : 1;
}

}  // namespace

// Exit codes as in blotctl: a usage error prints the usage and exits 2,
// any other failure exits 1; nothing escapes main.
int main(int argc, char** argv) {
  try {
    return Run(argc, argv);
  } catch (const InvalidArgument& e) {
    std::fprintf(stderr, "invalid argument: %s\n", e.what());
    return Usage();
  } catch (const Error& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  } catch (const std::exception& e) {
    // Foreign exceptions here are malformed numeric flags (std::stod and
    // friends), i.e. caller errors.
    std::fprintf(stderr, "invalid argument: %s\n", e.what());
    return Usage();
  }
}
