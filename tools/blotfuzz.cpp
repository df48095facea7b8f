// blotfuzz — long-running differential soak for the diverse-replica
// store.
//
// Each round is one seeded iteration of the differential harness
// (src/testing/differential.h): an adversarial dataset, a seed-chosen
// replica set, and every execution path — fused scan, naive scan, cache
// cold/warm, routed, failover-degraded, self-healed — checked
// against the brute-force oracle, plus the metamorphic relations.
//
// On any mismatch it prints a one-line repro command:
//
//   MISMATCH check=replica-execute[KD4xT4/ROW-GZIP] iter=17 seed=1234 ...
//     repro: blotfuzz --seed=1234 --rounds=1 --queries=8 --replicas=3 ...
//
// Running that command replays exactly the failing iteration (round 0
// under base seed S runs with seed S itself).
//
// `--inject-faults=SPEC` arms the deterministic fault injector each
// round (seed derived from the round's seed); with failover on, every
// routed query must still match the oracle (the paper's chaos-
// equivalence claim). Add `--no-repair` to disable failover and repair:
// injected faults then surface as mismatches, which is how the harness
// proves its own detection and repro machinery works end to end.
//
// Exit codes: 0 clean, 1 mismatches found, 2 usage error, 3 internal
// failure (the harness itself broke — NOT a differential mismatch).
#include <cstdio>
#include <iostream>
#include <string>

#include "core/fault_injection.h"
#include "obs/event_log.h"
#include "testing/differential.h"
#include "tools/flags.h"

namespace blot::tools {
namespace {

int Usage() {
  std::fprintf(
      stderr,
      "usage: blotfuzz [--seed S] [--rounds N] [--queries N] [--replicas N]\n"
      "                [--cache-bytes N] [--max-records N]\n"
      "                [--inject-faults SPEC] [--no-repair]\n"
      "                [--hedge-ms MS] [--deadline-ms MS] [--quiet]\n"
      "                [--event-log FILE]\n"
      "\n"
      "  --seed S           base seed (default 1); round 0 runs seed S\n"
      "                     itself, so a printed repro line replays exactly\n"
      "  --rounds N         seeded iterations to run (default 100)\n"
      "  --queries N        queries per round (default 8)\n"
      "  --replicas N       replicas per round (default 3)\n"
      "  --cache-bytes N    decoded-partition cache budget for the cache-on\n"
      "                     checks (default 4 MiB; 0 skips them)\n"
      "  --max-records N    dataset size cap per round (default 384)\n"
      "  --inject-faults S  arm the deterministic fault injector each round\n"
      "                     (grammar: docs/robustness.md); store-level\n"
      "                     checks only\n"
      "  --no-repair        disable failover and repair: injected faults\n"
      "                     surface as reproducible mismatches\n"
      "  --hedge-ms MS      with faults armed: also run every query hedged\n"
      "                     (backup attempt races a slow primary); the\n"
      "                     winning answer must stay bit-identical to the\n"
      "                     oracle\n"
      "  --deadline-ms MS   with faults armed: also run every query under\n"
      "                     this deadline with partial results allowed;\n"
      "                     partial coverage must match the oracle on the\n"
      "                     served partitions exactly\n"
      "  --quiet            only print mismatches and the final summary\n"
      "  --event-log FILE   append structured JSONL events (soak.start,\n"
      "                     soak.mismatch with seed/round/repro, quarantine/\n"
      "                     failover/repair, soak.summary); view with\n"
      "                     blotmon\n");
  return 2;
}

int Run(int argc, char** argv) {
  const Flags flags(argc, argv, 1,
                    {"seed", "rounds", "queries", "replicas", "cache-bytes",
                     "max-records", "inject-faults", "event-log", "hedge-ms",
                     "deadline-ms"},
                    {"no-repair", "quiet"});

  blot::testing::DifferentialOptions options;
  // Repro seeds come from IterationSeed() and span the full uint64
  // range, so --seed must not go through a signed parse.
  options.seed = flags.GetUint64("seed", 1);
  options.iterations = static_cast<std::size_t>(flags.GetInt("rounds", 100));
  options.queries_per_iteration =
      static_cast<std::size_t>(flags.GetInt("queries", 8));
  options.replicas_per_iteration =
      static_cast<std::size_t>(flags.GetInt("replicas", 3));
  options.cache_budget_bytes =
      flags.GetUint64("cache-bytes", std::uint64_t{4} << 20);
  options.profile.max_records =
      static_cast<std::size_t>(flags.GetUint64("max-records", 384));
  if (flags.Has("inject-faults"))
    options.fault_plan = ParseFaultSpec(flags.GetString("inject-faults"));
  options.failover_enabled = !flags.Has("no-repair");
  options.hedge_ms = flags.GetDouble("hedge-ms", 0.0);
  options.deadline_ms = flags.GetDouble("deadline-ms", 0.0);
  if (options.hedge_ms < 0.0 || options.deadline_ms < 0.0)
    throw blot::InvalidArgument(
        "blotfuzz: --hedge-ms and --deadline-ms must be >= 0");
  if ((options.hedge_ms > 0.0 || options.deadline_ms > 0.0) &&
      !options.fault_plan.has_value())
    throw blot::InvalidArgument(
        "blotfuzz: --hedge-ms/--deadline-ms need --inject-faults (the "
        "hedged and deadline legs only run with faults armed)");

  const bool quiet = flags.Has("quiet");
  if (!quiet)
    std::cout << "blotfuzz: seed=" << options.seed
              << " rounds=" << options.iterations
              << " queries/round=" << options.queries_per_iteration
              << " replicas/round=" << options.replicas_per_iteration
              << (options.fault_plan.has_value() ? " (faults armed)" : "")
              << (options.hedge_ms > 0.0 ? " (hedged leg)" : "")
              << (options.deadline_ms > 0.0 ? " (deadline leg)" : "")
              << (options.failover_enabled ? "" : " (failover disabled)")
              << std::endl;

  // --event-log FILE: a structured JSONL mirror of the run — soak.start /
  // soak.summary bracket the store's own quarantine/failover/repair
  // events and every soak.mismatch (with its repro command), so blotmon
  // can post-mortem a soak as one incident timeline.
  auto& elog = blot::obs::EventLog::Global();
  if (flags.Has("event-log")) {
    elog.OpenSink(flags.GetString("event-log"));
    elog.Info("soak.start", "blotfuzz soak starting",
              {blot::obs::Field("seed", options.seed),
               blot::obs::Field("rounds", options.iterations),
               blot::obs::Field("queries_per_round",
                                options.queries_per_iteration),
               blot::obs::Field("replicas_per_round",
                                options.replicas_per_iteration),
               blot::obs::Field("faults_armed",
                                options.fault_plan.has_value() ? "true"
                                                               : "false"),
               blot::obs::Field("failover_enabled",
                                options.failover_enabled ? "true"
                                                         : "false")});
  }

  const blot::testing::DifferentialReport report =
      blot::testing::RunDifferential(options, &std::cout);

  std::cout << "blotfuzz: " << report.iterations << " rounds, "
            << report.queries_checked << " queries, " << report.checks_run
            << " checks, " << report.mismatches.size() << " mismatches ("
            << report.encodings_covered.size() << " encodings, "
            << report.partitionings_covered.size() << " partitionings)"
            << std::endl;
  if (elog.has_sink()) {
    elog.Emit(report.ok() ? blot::obs::EventSeverity::kInfo
                          : blot::obs::EventSeverity::kError,
              "soak.summary", "blotfuzz soak finished",
              {blot::obs::Field("rounds", report.iterations),
               blot::obs::Field("queries", report.queries_checked),
               blot::obs::Field("checks", report.checks_run),
               blot::obs::Field("mismatches", report.mismatches.size())});
    elog.CloseSink();
  }
  return report.ok() ? 0 : 1;
}

}  // namespace
}  // namespace blot::tools

int main(int argc, char** argv) {
  try {
    return blot::tools::Run(argc, argv);
  } catch (const blot::InvalidArgument& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return blot::tools::Usage();
  } catch (const std::exception& e) {
    // Exit 1 is reserved for genuine differential mismatches; an
    // unexpected Error (or any stray std::exception) is the harness
    // itself failing, which CI must be able to tell apart.
    std::fprintf(stderr, "internal error: %s\n", e.what());
    return 3;
  }
}
