// blotbench command line: one run of one workload (perfbench/README.md).
//
//   blotbench --workload scan-mixed|hot-small|build-repair --seed N
//             [--seconds S] [--trace 0|1] [--records N] [--work-dir DIR]
//             [--perturb-answer]
//
// Prints the environment stamp, the input-property report and one
// `metric <name> <value> <unit>` line per metric, then, as the last line, a
// JSON object {"correct", "attempted", "failed", "metrics"}.
//
// Exit codes: 0 every answer matched the oracle and no operation failed;
// 1 a mismatch or a failed operation; 2 usage error; 3 the run could not be
// made (unoptimised build, internal error).
#include <cmath>
#include <cstdio>
#include <cstdint>
#include <optional>
#include <string>
#include <thread>

#include "bench.h"
#include "codec/simd/dispatch.h"
#include "core/partition_cache.h"
#include "simenv/environment.h"

#ifndef BLOTBENCH_BUILD_TYPE
#define BLOTBENCH_BUILD_TYPE "unknown"
#endif

namespace blotbench {
namespace {

using blot::BlotStore;
using blot::PartitionCache;
using blot::Percentile;
using blot::STRange;

#if defined(__OPTIMIZE__) && defined(NDEBUG)
constexpr bool kOptimizedBuild = true;
#else
constexpr bool kOptimizedBuild = false;
#endif

// Build-repair: passes over its cases replayed after each repair. Ten
// passes fill the ten latency windows (LoopStats) of a single iteration,
// each window about one pass.
constexpr std::size_t kVerifyPasses = 10;
// Set-ups per untraced run; setup_s is their median.
constexpr std::size_t kSetupRepeats = 3;

constexpr const char* kUsage =
    "usage: blotbench --workload scan-mixed|hot-small|build-repair --seed N\n"
    "                 [--seconds S] [--trace 0|1] [--records N]\n"
    "                 [--work-dir DIR] [--perturb-answer]\n"
    "\n"
    "  --seconds S       measured seconds, 1..600 (default 10)\n"
    "  --trace 0|1       0: end-to-end metrics; 1: traced per-layer metrics\n"
    "  --records N       dataset size, 10000..20000000 (default 1000000)\n"
    "  --work-dir DIR    scratch directory (default .bench_build/perfbench)\n"
    "  --perturb-answer  self-test: corrupt one checked answer; the run\n"
    "                    must then fail (exit 1)\n";

struct UsageError {
  std::string message;
};

std::uint64_t ParseUint(const std::string& flag, const std::string& text,
                        std::uint64_t lo, std::uint64_t hi) {
  std::uint64_t value = 0;
  bool ok = !text.empty() && text.size() <= 20;
  for (const char c : text) {
    if (c < '0' || c > '9') {
      ok = false;
      break;
    }
    const std::uint64_t digit = std::uint64_t(c - '0');
    if (value > (UINT64_MAX - digit) / 10) {
      ok = false;
      break;
    }
    value = value * 10 + digit;
  }
  if (!ok || value < lo || value > hi)
    throw UsageError{"bad value for --" + flag + ": '" + text + "' (want " +
                     std::to_string(lo) + ".." + std::to_string(hi) + ")"};
  return value;
}

Options ParseOptions(int argc, char** argv) {
  Options options;
  options.work_dir = ".bench_build/perfbench";
  bool have_workload = false;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    if (flag == "--help" || flag == "-h") throw UsageError{""};
    if (flag.rfind("--", 0) != 0)
      throw UsageError{"unexpected argument: " + flag};
    flag = flag.substr(2);
    if (flag == "perturb-answer") {
      options.perturb_answer = true;
      continue;
    }
    std::optional<std::string> value;
    if (const std::size_t eq = flag.find('='); eq != std::string::npos) {
      value = flag.substr(eq + 1);
      flag = flag.substr(0, eq);
    }
    const bool known = flag == "workload" || flag == "seed" ||
                       flag == "seconds" || flag == "trace" ||
                       flag == "records" || flag == "work-dir";
    if (!known) throw UsageError{"unknown flag: --" + flag};
    if (!value) {
      if (i + 1 >= argc) throw UsageError{"flag --" + flag + " needs a value"};
      value = argv[++i];
    }
    if (flag == "workload") {
      options.workload_name = *value;
      if (*value == "scan-mixed") {
        options.workload = Workload::kScanMixed;
      } else if (*value == "hot-small") {
        options.workload = Workload::kHotSmall;
      } else if (*value == "build-repair") {
        options.workload = Workload::kBuildRepair;
      } else {
        throw UsageError{"unknown workload: " + *value};
      }
      have_workload = true;
    } else if (flag == "seed") {
      options.seed = ParseUint(flag, *value, 0, UINT64_MAX);
      have_seed = true;
    } else if (flag == "seconds") {
      options.seconds = int(ParseUint(flag, *value, 1, 600));
    } else if (flag == "trace") {
      options.trace = ParseUint(flag, *value, 0, 1) == 1;
    } else if (flag == "records") {
      options.records = ParseUint(flag, *value, 10'000, 20'000'000);
    } else {
      if (value->empty()) throw UsageError{"empty --work-dir"};
      options.work_dir = *value;
    }
  }
  if (!have_workload) throw UsageError{"--workload is required"};
  if (!have_seed) throw UsageError{"--seed is required"};
  return options;
}

void PrintEnvironment(const Options& options) {
  std::string replicas = "[";
  for (std::size_t i = 0; i < kNumReplicas; ++i)
    replicas += std::string(i ? ", " : "") + "\"" + kReplicaSchemes[i] + "\"";
  replicas += "]";
  JsonObject env;
  env.Str("build_type", BLOTBENCH_BUILD_TYPE)
      .Str("compiler", __VERSION__)
      .Str("scan_engine", std::string(blot::simd::ScanEngineName(
                              blot::simd::ActiveScanEngine())))
      .Num("nproc", std::thread::hardware_concurrency())
      .Num("records", double(options.records))
      .Raw("replicas", replicas)
      .Str("routing_model", blot::EnvironmentModel::LocalHadoop().name())
      .Num("clients", double(TimedClients(options.workload)))
      .Num("request_workers", double(kClients))
      .Num("scan_threads", 0)
      .Num("simulate_io_ms", 0);
  std::printf("environment %s\n", env.str().c_str());
}

// Hot-small's cache: the decoded bytes of every partition a segment's cases
// scan on their routed replicas, the largest over the segments, and a
// budget of twice that.
struct CacheSizing {
  std::uint64_t working_set_bytes = 0;
  std::uint64_t budget_bytes = 0;
};

CacheSizing SizeCache(const BlotStore& store, const Inputs& inputs) {
  CacheSizing sizing;
  const std::size_t length = inputs.cases.size() / inputs.segments;
  for (std::size_t k = 0; k < inputs.segments; ++k) {
    std::vector<std::vector<bool>> seen(kNumReplicas);
    std::uint64_t bytes = 0;
    for (std::size_t i = k * length; i < (k + 1) * length; ++i) {
      const STRange& range = inputs.cases[i].range;
      const std::size_t r =
          store.RouteQueryDetailed(range, RoutingModel()).replica_index;
      const blot::Replica& replica = store.replica(r);
      seen[r].resize(replica.NumPartitions(), false);
      for (const std::size_t p : replica.index().InvolvedPartitions(range)) {
        const blot::StoredPartition& unit = replica.partition(p);
        if (seen[r][p] || (unit.has_zone && !unit.zone.Intersects(range)))
          continue;
        seen[r][p] = true;
        bytes += unit.num_records * sizeof(blot::Record) +
                 PartitionCache::kPerEntryOverheadBytes;
      }
    }
    sizing.working_set_bytes = std::max(sizing.working_set_bytes, bytes);
  }
  sizing.budget_bytes =
      std::max<std::uint64_t>(2 * sizing.working_set_bytes, 8u << 20);
  return sizing;
}

std::string ShapeMix(const Inputs& inputs, const LoopResult& loop) {
  std::vector<std::size_t> scheduled(inputs.shape_names.size(), 0);
  for (const std::uint32_t i : inputs.schedule) ++scheduled[inputs.cases[i].shape];
  double total_ms = 0;
  for (const double ms : loop.shape_ms) total_ms += ms;
  std::vector<std::vector<double>> latencies(inputs.shape_names.size());
  for (std::size_t i = 0; i < loop.latencies_ms.size(); ++i)
    latencies[loop.shape_of[i]].push_back(loop.latencies_ms[i]);
  std::string out = "[";
  for (std::size_t s = 0; s < inputs.shape_names.size(); ++s) {
    JsonObject shape;
    shape.Str("shape", inputs.shape_names[s])
        .Num("schedule_share",
             double(scheduled[s]) / double(inputs.schedule.size()))
        .Num("completed", double(latencies[s].size()))
        // A rare shape may not complete in a short run: no p50 then.
        .Num("p50_ms", latencies[s].empty() ? NAN
                                            : Percentile(latencies[s], 50))
        .Num("time_share", total_ms > 0 && s < loop.shape_ms.size()
                               ? loop.shape_ms[s] / total_ms : 0.0);
    out += (s ? ", " : "") + shape.str();
  }
  return out + "]";
}

std::string Distribution(const std::vector<double>& values) {
  double sum = 0;
  for (const double v : values) sum += v;
  JsonObject d;
  d.Num("n", double(values.size()))
      .Num("min", Percentile(values, 0))
      .Num("p50", Percentile(values, 50))
      .Num("p90", Percentile(values, 90))
      .Num("p99", Percentile(values, 99))
      .Num("max", Percentile(values, 100))
      .Num("mean", sum / double(values.size()));
  return d.str();
}

// Removes the persisted store when the run ends, however it ends.
struct StoreDirGuard {
  std::filesystem::path dir;
  ~StoreDirGuard() {
    std::error_code ignored;
    std::filesystem::remove_all(dir, ignored);
  }
};

int Run(const Options& options, Clock::time_point process_start) {
  PrintEnvironment(options);
  std::filesystem::create_directories(options.work_dir);
  const StoreDirGuard guard{options.work_dir /
                            ("store-" + options.workload_name)};
  const std::filesystem::path& store_dir = guard.dir;

  Checker checker(options.perturb_answer);
  StoreSamples samples;
  std::vector<double> setup_s;
  Inputs inputs;
  std::optional<BlotStore> store;
  std::vector<CorruptTarget> targets;
  CacheSizing cache;
  const std::size_t setups = options.trace ? 1 : kSetupRepeats;
  for (std::size_t k = 0; k < setups; ++k) {
    store.reset();
    inputs = Inputs{};
    PartitionCache::Global().Configure(0);
    const Clock::time_point start = k == 0 ? process_start : Clock::now();
    inputs = MakeInputs(options);
    {
      const BlotStore built = BuildStore(inputs, samples);
      store.emplace(SaveAndLoad(built, store_dir, samples));
    }
    targets = PickCorruptTargets(*store, inputs, options.seed);
    if (options.workload == Workload::kHotSmall) {
      cache = SizeCache(*store, inputs);
      PartitionCache::Global().Configure(cache.budget_bytes);
    }
    setup_s.push_back(SecondsSince(start));
  }
  const double records = double(inputs.dataset.size());
  const double setup_rss_mb = PeakRssMb();

  JsonObject props;
  props.Num("seed", double(options.seed))
      .Str("workload", options.workload_name)
      .Num("cases", double(inputs.cases.size()))
      .Num("schedule_length", double(inputs.schedule.size()))
      .Num("schedule_segments", double(inputs.segments))
      .Num("corrupt_targets", double(targets.size()))
      .Num("setup_repeats", double(setups));
  if (options.workload == Workload::kHotSmall)
    props.Num("cache_budget_bytes", double(cache.budget_bytes))
        .Num("cache_working_set_bytes", double(cache.working_set_bytes));

  MetricSet metrics;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  if (options.trace) {
    metrics = RunTraced(options, *store, inputs, targets, samples, store_dir,
                        checker,
                        options.work_dir / ("spans-" + options.workload_name +
                                            ".jsonl"),
                        props);
  } else {
    LoopResult loop;
    if (options.workload == Workload::kBuildRepair) {
      store.reset();
      const auto begin = Clock::now();
      do {
        BlotStore fresh = [&] {
          const BlotStore built = BuildStore(inputs, samples);
          return SaveAndLoad(built, store_dir, samples);
        }();
        RepairStep(fresh, inputs, targets, checker, samples);
        // One pass over the cases first, as the read workloads warm up, so
        // the routing feedback (LatencyMap) has settled before timing.
        RunClosedLoop(fresh, inputs, inputs.schedule, checker,
                      CallPath::kServer, kClients, 0.0,
                      inputs.schedule.size());
        Append(loop, RunClosedLoop(fresh, inputs, inputs.schedule, checker,
                                   CallPath::kServer, kClients, 0.0,
                                   kVerifyPasses * inputs.schedule.size()));
      } while (SecondsSince(begin) < options.seconds);
    } else {
      PartitionCache::Stats cs;
      for (std::size_t k = 0; k < inputs.segments; ++k) {
        const std::size_t start =
            WarmUp(options, *store, inputs, checker,
                   TimedClients(options.workload), k);
        PartitionCache::Global().ResetStats();
        Append(loop, RunClosedLoop(*store, inputs, ScheduleSegment(inputs, k),
                                   checker, TimedPath(options.workload),
                                   TimedClients(options.workload),
                                   double(options.seconds) / inputs.segments,
                                   0, start));
        const PartitionCache::Stats segment = PartitionCache::Global().stats();
        cs.hits += segment.hits;
        cs.misses += segment.misses;
        cs.evictions += segment.evictions;
        cs.bytes = std::max(cs.bytes, segment.bytes);
      }
      if (options.workload == Workload::kHotSmall)
        props.Num("cache_hit_ratio", cs.HitRatio())
            .Num("cache_evictions", double(cs.evictions))
            .Num("cache_resident_bytes_max", double(cs.bytes))
            .Num("fully_cached_share",
                 double(loop.fully_cached) / double(loop.latencies_ms.size()));
      // The repair step runs on a freshly loaded copy with the cache off,
      // as on every workload.
      PartitionCache::Global().Configure(0);
      store.reset();
      BlotStore probe = LoadStore(store_dir, samples);
      RepairStep(probe, inputs, targets, checker, samples);
    }
    checker.Op(!samples.failover_ms.empty(), "no query failed over");
    const LoopStats stats = SummarizeLoop(loop);
    props.Raw("shape_mix", ShapeMix(inputs, loop))
        .Raw("records_returned", Distribution(loop.returned_per_query))
        .Num("examined_per_returned",
             double(loop.records_scanned) /
                 double(std::max<std::uint64_t>(loop.records_returned, 1)))
        .Num("latency_samples", double(loop.latencies_ms.size()))
        .Num("latency_windows", double(stats.windows))
        .Num("p99_samples_beyond_per_window",
             double(SamplesBeyond(stats.window_samples, 0.99)))
        .Num("failover_samples", double(samples.failover_ms.size()))
        .Num("peak_rss_run_mb", PeakRssMb());

    std::vector<double> build_rates;
    for (const double s : samples.build_s)
      build_rates.push_back(records * kNumReplicas / s / 1000.0);
    metrics.Set("qps", stats.qps, "1/s");
    metrics.Set("p50_ms", stats.p50_ms, "ms");
    metrics.Set("p99_ms", stats.p99_ms, "ms");
    metrics.Set("setup_s", Percentile(setup_s, 50), "s");
    metrics.Set("rss_mb", setup_rss_mb, "MiB");
    metrics.Set("build_krec_per_s", Percentile(build_rates, 50), "krec/s");
    metrics.Set("disk_bytes_per_record",
                Percentile(samples.disk_bytes, 50) / records, "B/record");
    metrics.Set("load_s", Percentile(samples.load_s, 50), "s");
    metrics.Set("recover_s", Percentile(samples.recover_s, 50), "s");
    metrics.Set("failover_p50_ms", Percentile(samples.failover_ms, 50), "ms");
  }
  attempted = checker.ops();
  failed = checker.errors() + checker.mismatches();
  const bool correct = checker.mismatches() == 0;
  props.Num("error_pct",
            attempted ? 100.0 * double(checker.errors()) / double(attempted)
                      : 0.0)
      .Num("mismatches", double(checker.mismatches()));
  std::printf("properties %s\n", props.str().c_str());
  metrics.Print();
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(std::max<std::uint64_t>(attempted, 1)),
              static_cast<unsigned long long>(failed),
              metrics.ToJson().c_str());
  std::fflush(stdout);
  return correct && failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace blotbench

int main(int argc, char** argv) {
  const auto process_start = blotbench::Clock::now();
  blotbench::Options options;
  try {
    options = blotbench::ParseOptions(argc, argv);
  } catch (const blotbench::UsageError& e) {
    if (!e.message.empty())
      std::fprintf(stderr, "blotbench: %s\n", e.message.c_str());
    std::fputs(blotbench::kUsage, stderr);
    return 2;
  }
  if (!blotbench::kOptimizedBuild) {
    std::fprintf(stderr,
                 "blotbench: refusing a timed run from an unoptimised build "
                 "(build type %s); configure with -DCMAKE_BUILD_TYPE=Release\n",
                 BLOTBENCH_BUILD_TYPE);
    return 3;
  }
  try {
    return blotbench::Run(options, process_start);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "blotbench: %s\n", e.what());
    return 3;
  }
}
