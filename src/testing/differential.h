// The metamorphic + differential correctness harness.
//
// One iteration is a pure function of one 64-bit seed: it generates an
// adversarial dataset and query batch (testing/generator.h), builds a
// seed-chosen set of diverse replicas over it, and checks every execution
// path the system offers against the brute-force oracle
// (testing/oracle.h) and against each other:
//
//   differential — per replica: fused-scan Execute, naive full-decode
//     scan over all partitions, cache-cold and cache-warm Execute;
//     store-routed Execute; failover-degraded execution (involved
//     partitions of the routed replica corrupted) and the self-healed
//     store afterwards — all must return the oracle's record multiset
//     exactly.
//
//   metamorphic — relations that must hold without knowing the answer:
//     splitting a query along an axis and unioning the halves equals the
//     whole; all replica pairs agree; cost-model estimates are finite,
//     non-negative, and monotone when a query grows.
//
// Every check failure is reported as a Mismatch carrying the iteration
// seed and a one-line repro command for the blotfuzz tool. Iterations are
// single-threaded by design: the fault injector's per-target fire budgets
// are consumed in execution order, so parallel scans would make injected
// faults land nondeterministically.
#ifndef BLOT_TESTING_DIFFERENTIAL_H_
#define BLOT_TESTING_DIFFERENTIAL_H_

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>
#include <vector>

#include "core/fault_injection.h"
#include "testing/generator.h"

namespace blot::testing {

struct DifferentialOptions {
  std::uint64_t seed = 1;
  std::size_t iterations = 1;
  std::size_t queries_per_iteration = 8;
  // Replicas built per iteration; encodings and partitionings are drawn
  // seed-deterministically so a long run covers all 7 encodings and
  // several partitionings.
  std::size_t replicas_per_iteration = 3;
  // Budget for the cache-on differential check (0 skips it).
  std::uint64_t cache_budget_bytes = std::uint64_t{4} << 20;
  bool check_metamorphic = true;
  // Corrupt-the-routed-replica failover check (needs >= 2 replicas).
  bool check_failover = true;
  DatasetProfile profile;

  // When set, the global FaultInjector is armed for every iteration with
  // this plan, its seed re-derived from the iteration seed. Only
  // store-level routed checks run (direct replica paths would see the
  // injected faults without failover protection and drown the report).
  std::optional<FaultPlan> fault_plan;
  // With faults armed: false disables failover and repair
  // (max_attempts=1, RepairMode::kNone), so injected faults surface as
  // mismatches — the harness's own failure detection, reproducible from
  // the printed seed.
  bool failover_enabled = true;
  // Hedged chaos leg (> 0, needs faults armed and >= 2 replicas): each
  // query is additionally executed with ExecOptions::hedge_ms set, so a
  // stalled primary races a backup attempt. The winning answer must stay
  // bit-identical to the oracle whichever attempt produced it. The race
  // means *which* attempt consumes a target's fire budget is no longer a
  // pure function of the seed — the correctness contract (oracle match or
  // structured QueryFailedError) is what this leg pins down, not the
  // fault landing sites.
  double hedge_ms = 0.0;
  // Deadline chaos leg (> 0, needs faults armed): each query is
  // additionally executed with this deadline and allow_partial set. A
  // full result must match the oracle exactly; a partial result must
  // match the oracle restricted to the served partitions — verified by
  // clean-decoding exactly those partitions of the serving replica under
  // FaultInjector::Suspend, so the fault campaign's budgets are not
  // perturbed.
  double deadline_ms = 0.0;
};

// One check that diverged from the oracle (or threw).
struct Mismatch {
  std::uint64_t iteration_seed = 0;
  std::size_t iteration = 0;
  std::string check;   // e.g. "replica-execute[KD4xT4/ROW-GZIP]"
  std::string query;   // the query range, ToString()
  std::string detail;  // diff summary or exception text
  std::string repro;   // one-line blotfuzz command reproducing it
};

struct DifferentialReport {
  std::size_t iterations = 0;
  std::size_t queries_checked = 0;
  std::size_t checks_run = 0;
  std::vector<Mismatch> mismatches;
  // Distinct encoding-scheme and partitioning names exercised, sorted.
  std::vector<std::string> encodings_covered;
  std::vector<std::string> partitionings_covered;

  bool ok() const { return mismatches.empty(); }
};

// The seed of iteration `iteration` under base seed `seed`. Iteration 0
// uses the base seed itself, so `blotfuzz --seed=<iteration_seed>
// --rounds=1` replays exactly the failing iteration.
std::uint64_t IterationSeed(std::uint64_t seed, std::size_t iteration);

// The one-line repro command embedded in every Mismatch.
std::string ReproCommand(const DifferentialOptions& options,
                         std::uint64_t iteration_seed);

// Runs the harness. When `log` is non-null, prints one line per
// mismatch as it is found plus a progress line every 50 iterations.
// Restores global state (fault injector disarmed, cache disabled) on
// return, including on exception.
DifferentialReport RunDifferential(const DifferentialOptions& options,
                                   std::ostream* log = nullptr);

}  // namespace blot::testing

#endif  // BLOT_TESTING_DIFFERENTIAL_H_
