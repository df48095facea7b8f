// Google-Benchmark glue for the BENCH_<name>.json writer.
//
// The gbench micro benches (micro_codec, micro_storage,
// micro_access_paths, micro_metrics_overhead) report through the same
// BenchReport schema as the handwritten ones: a CaptureReporter keeps
// every run's per-iteration timings (and user counters) while still
// printing the normal console table, and RunAndReport() folds them into
// BENCH_<name>.json after the benchmarks finish. With
// --benchmark_repetitions, each benchmark is captured once, as the
// `median` aggregate of its repetitions (with or without
// --benchmark_report_aggregates_only). A bench can pass a `finish` hook
// to derive tracked ratio metrics from the captured runs; such a bench
// fails (exit 1) when its report ends up with no tracked metric.
#ifndef BLOT_BENCH_GBENCH_CAPTURE_H_
#define BLOT_BENCH_GBENCH_CAPTURE_H_

#include <benchmark/benchmark.h>

#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.h"

namespace blot::bench {

class CaptureReporter : public benchmark::ConsoleReporter {
 public:
  struct Sample {
    std::string name;  // full run name including args, e.g. "BM_Scan/0/1"
    double real_ns = 0;  // per iteration
    double cpu_ns = 0;   // per iteration
    std::vector<std::pair<std::string, double>> counters;
  };

  void ReportRuns(
      const std::vector<benchmark::BenchmarkReporter::Run>& runs) override {
    for (const auto& run : runs) {
      if (run.error_occurred) continue;
      const bool median =
          run.run_type == benchmark::BenchmarkReporter::Run::RT_Aggregate &&
          run.aggregate_name == "median";
      if (run.run_type !=
              benchmark::BenchmarkReporter::Run::RT_Iteration &&
          !median)
        continue;
      const double iters =
          run.iterations > 0 ? static_cast<double>(run.iterations) : 1.0;
      Sample sample;
      // The run name without an aggregate suffix, so a median is found
      // under the same name as a single run.
      sample.name = run.run_name.str();
      // A median replaces the repetitions it summarizes (reported
      // before it, unless only aggregates are reported).
      if (median)
        std::erase_if(samples_, [&](const Sample& s) {
          return s.name == sample.name;
        });
      // Accumulated times are seconds regardless of the display unit.
      sample.real_ns = run.real_accumulated_time / iters * 1e9;
      sample.cpu_ns = run.cpu_accumulated_time / iters * 1e9;
      for (const auto& [name, counter] : run.counters)
        sample.counters.emplace_back(name,
                                     static_cast<double>(counter.value));
      samples_.push_back(std::move(sample));
    }
    benchmark::ConsoleReporter::ReportRuns(runs);
  }

  const std::vector<Sample>& samples() const { return samples_; }

  // Per-iteration real time of the run named exactly `name` (the median
  // over repetitions when they ran), or -1 when it did not run (filtered
  // out, errored).
  double RealNs(const std::string& name) const {
    for (const Sample& s : samples_)
      if (s.name == name) return s.real_ns;
    return -1.0;
  }

  // User counter `counter` of the run named exactly `name`, or -1 when
  // the run or the counter is missing.
  double Counter(const std::string& name, const std::string& counter) const {
    for (const Sample& s : samples_) {
      if (s.name != name) continue;
      for (const auto& [key, value] : s.counters)
        if (key == counter) return value;
    }
    return -1.0;
  }

  // Every captured run becomes an untracked metric pair
  // `<run>:real_ns` / `<run>:cpu_ns` plus its user counters.
  void Export(BenchReport& report) const {
    for (const Sample& s : samples_) {
      report.Metric(s.name + ":real_ns", s.real_ns);
      report.Metric(s.name + ":cpu_ns", s.cpu_ns);
      for (const auto& [name, value] : s.counters)
        report.Metric(s.name + ":" + name, value);
    }
  }

 private:
  std::vector<Sample> samples_;
};

// Shared gbench main body. A leading positional argument overrides the
// default output path (same convention as the handwritten benches); the
// remaining flags go to gbench as usual.
inline int RunAndReport(int argc, char** argv, const char* bench_name,
                        const char* default_json,
                        void (*finish)(const CaptureReporter&,
                                       BenchReport&) = nullptr) {
  std::string path = default_json;
  if (argc > 1 && argv[1][0] != '-') {
    path = argv[1];
    for (int i = 1; i + 1 < argc; ++i) argv[i] = argv[i + 1];
    --argc;
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  CaptureReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  BenchReport report(bench_name);
  reporter.Export(report);
  if (finish != nullptr) finish(reporter, report);
  if (!report.Write(path)) return 1;
  std::printf("wrote %s\n", path.c_str());
  if (finish != nullptr && !report.HasTrackedMetric()) {
    std::fprintf(stderr,
                 "%s: no tracked metric in %s (the runs it is derived "
                 "from were filtered out or failed)\n",
                 bench_name, path.c_str());
    return 1;
  }
  return 0;
}

}  // namespace blot::bench

#endif  // BLOT_BENCH_GBENCH_CAPTURE_H_
