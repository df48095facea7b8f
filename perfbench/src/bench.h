// blotbench: the end-to-end benchmark of a BLOT store (perfbench/README.md).
//
// One process runs one named workload against a three-replica store it
// builds from the synthetic taxi generator and a seed. Every answer is
// checked against testing::Oracle. An untraced run (--trace 0) reports the
// end-to-end metrics; a traced run (--trace 1) replays the same queries from
// one client, splits each query's time into the layers' self times (its
// RoutedResult::profile), times the benchmark's own calls into each layer's
// public functions, and reports the per-layer metrics.
#ifndef BLOT_PERFBENCH_BENCH_H_
#define BLOT_PERFBENCH_BENCH_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <span>
#include <string>
#include <vector>

#include "blot/dataset.h"
#include "blot/replica.h"
#include "core/cost_model.h"
#include "core/store.h"
#include "serve/server.h"
#include "util/range.h"
#include "util/stats.h"

namespace blotbench {

enum class Workload { kScanMixed, kHotSmall, kBuildRepair };

struct Options {
  Workload workload = Workload::kScanMixed;
  std::string workload_name;
  std::uint64_t seed = 0;
  int seconds = 10;
  bool trace = false;
  std::size_t records = 1'000'000;
  // Scratch space for the persisted store and the span file.
  std::filesystem::path work_dir;
  // Self-test: drop one record from one checked answer, which must make
  // the run fail its oracle check.
  bool perturb_answer = false;
};

// The three diverse replicas every run builds, and the replica
// RecoverReplicaFrom rebuilds (from replica 0).
inline constexpr const char* kReplicaSchemes[] = {
    "KD64xT16/COL-GZIP", "KD16xT64/ROW-SNAPPY", "KD256xT8/COL-LZMA"};
inline constexpr std::size_t kNumReplicas = 3;
inline constexpr std::size_t kRecoverVictim = 1;
inline constexpr std::size_t kRecoverSource = 0;
// Client threads of the closed loop (but see TimedClients), request workers
// of the server and threads of the build pool.
inline constexpr std::size_t kClients = 4;
// Partitions corrupted, and recoveries of the victim, per repair step.
inline constexpr std::size_t kCorruptedPartitions = 8;
inline constexpr std::size_t kRecoveries = 5;

std::vector<blot::ReplicaConfig> ReplicaConfigs();
// kClients request workers, no scan pool, no emulated I/O.
blot::serve::ServerOptions ServingOptions();
// The routing model `blotctl store-query` uses by default.
blot::CostModel RoutingModel();

// Order-independent digest of a record multiset: equal multisets give
// equal digests in any order.
struct Digest {
  std::uint64_t count = 0;
  std::uint64_t sum = 0;
  std::uint64_t sum_sq = 0;

  void Add(const blot::Record& r);
  friend bool operator==(const Digest&, const Digest&) = default;
};
Digest DigestOf(std::span<const blot::Record> records);

struct QueryCase {
  blot::STRange range;
  std::size_t shape = 0;  // index into Inputs::shape_names
  Digest expected;        // the oracle's answer
};

// Everything a run derives from its seed.
struct Inputs {
  blot::Dataset dataset;
  blot::STRange universe;
  std::vector<std::string> shape_names;
  std::vector<QueryCase> cases;
  // Replay order of the timed loop, as indices into `cases`. Scan-mixed
  // holds a fixed count of each shape per 10,000 queries and hot-small
  // draws cells by their Zipf weight, both evenly interleaved; build-repair
  // replays every case once, shuffled.
  std::vector<std::uint32_t> schedule;
  // `cases` and `schedule` split into this many equal consecutive segments
  // (hot-small: one per draw of the hotspot mix), each schedule segment
  // indexing its own cases. The timed loop replays them in turn, each for
  // an equal share of the measured time.
  std::size_t segments = 1;
  // Hot-small: the Zipf weight of each cell rank.
  std::vector<double> cell_weights;
  // Small and mid-size cases (Section V-C's q3, q4 and q6) the repair step
  // draws its targets from; build-repair's `cases` are the same set.
  std::vector<QueryCase> repair_cases;
};

// Generates the dataset, the workload's query cases with their oracle
// answers (testing::Oracle), and the replay schedule.
Inputs MakeInputs(const Options& options);
// The (replica, partition, repair case) triples one repair step corrupts
// and then replays: cases routed to a non-victim replica, each the first in
// replay order to scan its partition.
struct CorruptTarget {
  std::size_t replica = 0;
  std::size_t partition = 0;
  std::uint32_t case_index = 0;  // into Inputs::repair_cases
};
std::vector<CorruptTarget> PickCorruptTargets(const blot::BlotStore& store,
                                              const Inputs& inputs,
                                              std::uint64_t seed);

// Counts the run's operations, the ones that failed (threw), and the
// answers that disagree with the oracle. Thread-safe.
class Checker {
 public:
  explicit Checker(bool perturb_first) : perturb_(perturb_first) {}
  // One query answered: true when `records` is the oracle's answer for `c`.
  bool Check(const QueryCase& c, std::span<const blot::Record> records);
  // One non-query operation; `ok` false counts as a mismatch.
  void Op(bool ok, const char* what);
  // One operation that threw.
  void Error(const char* what);

  std::uint64_t ops() const { return ops_.load(); }
  std::uint64_t errors() const { return errors_.load(); }
  std::uint64_t mismatches() const { return mismatches_.load(); }

 private:
  void Report(const char* kind, const char* what);

  std::atomic<bool> perturb_;
  std::atomic<std::uint64_t> ops_{0};
  std::atomic<std::uint64_t> errors_{0};
  std::atomic<std::uint64_t> mismatches_{0};
};

// ---------------------------------------------------------------------------
// Measurement helpers.

using Clock = std::chrono::steady_clock;
inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}
inline double MsSince(Clock::time_point start) {
  return SecondsSince(start) * 1000.0;
}
// Percentiles are blot::Percentile (util/stats.h), which throws on an
// empty sample: a metric with no samples fails the run.
// Samples strictly above the q-quantile, by nearest rank.
std::size_t SamplesBeyond(std::size_t n, double q);
// Peak resident set of this process, MiB.
double PeakRssMb();
// Bytes of every regular file under `dir`.
std::uint64_t DirectoryBytes(const std::filesystem::path& dir);

// Metric name -> (value, unit), printed in insertion order.
class MetricSet {
 public:
  void Set(const std::string& name, double value, const std::string& unit);
  std::string ToJson() const;
  void Print() const;  // one "metric <name> <value> <unit>" line each

 private:
  std::vector<std::pair<std::string, std::pair<double, std::string>>> items_;
};

// Free-form report lines (environment stamp, input properties) printed as
// `<tag> {json}` before the result line.
class JsonObject {
 public:
  JsonObject& Num(const std::string& key, double value);
  JsonObject& Str(const std::string& key, const std::string& value);
  JsonObject& Raw(const std::string& key, const std::string& json);
  std::string str() const { return "{" + body_ + "}"; }

 private:
  void Key(const std::string& key);
  std::string body_;
};

// ---------------------------------------------------------------------------
// Store lifecycle (phases.cc).

struct StoreSamples {
  std::vector<double> build_s;
  std::vector<double> load_s;
  std::vector<double> disk_bytes;
  std::vector<double> dataset_file_bytes;
  std::vector<double> recover_s;
  std::vector<double> failover_ms;
  std::vector<double> attempts;  // RoutedResult::attempts of replayed cases
};

// Builds the three replicas with a kClients-thread pool.
blot::BlotStore BuildStore(const Inputs& inputs, StoreSamples& samples);
// Saves `store` under `dir` (replacing what was there) and loads it back.
blot::BlotStore SaveAndLoad(const blot::BlotStore& store,
                            const std::filesystem::path& dir,
                            StoreSamples& samples);
// One repair step on `store`: RecoverReplicaFrom(victim, source) kRecoveries
// times, then corrupt each target's partition through MutablePartition and
// replay the target cases one at a time through a QueryServer (detect,
// quarantine, fail over, sync repair). Checks every answer and that no
// partition is left quarantined.
void RepairStep(blot::BlotStore& store, const Inputs& inputs,
                const std::vector<CorruptTarget>& targets, Checker& checker,
                StoreSamples& samples);

// Closed-loop replay through a QueryServer.
struct LoopResult {
  double elapsed_s = 0.0;
  std::vector<double> latencies_ms;
  // Completion time of each latency sample, seconds into the loop (loops
  // appended later continue the clock).
  std::vector<double> done_s;
  std::vector<std::uint32_t> shape_of;  // each sample's shape
  std::uint64_t fully_cached = 0;  // answered without a cache miss
  std::uint64_t records_returned = 0;
  std::uint64_t records_scanned = 0;
  std::vector<double> returned_per_query;
  std::vector<double> shape_ms;  // summed latency per shape
  std::size_t next = 0;  // schedule position after the loop
};
// Throughput and latency of a loop as the medians over up to kWindows
// windows of consecutive completions, each of at least kWindowSamples
// samples (so each window's p99 has ten samples beyond it). A stall of the
// host that hits one window then moves the run's figures little.
struct LoopStats {
  double qps = 0.0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  std::size_t windows = 0;
  std::size_t window_samples = 0;
};
inline constexpr std::size_t kWindows = 10;
inline constexpr std::size_t kWindowSamples = 1000;
LoopStats SummarizeLoop(const LoopResult& loop);
// Adds `from`'s samples and counts to `into` (elapsed times add up).
void Append(LoopResult& into, const LoopResult& from);
// How a closed-loop client issues its queries.
enum class CallPath {
  kServer,  // QueryServer::Execute: admission, hand-off to a request worker
  kStore,   // BlotStore::Execute on the client's own thread
};
// The timed loops of scan-mixed and build-repair go through the server.
// Hot-small calls the store: its queries take tens of microseconds, so the
// server's thread hand-offs make its throughput follow the host's
// scheduling noise (runs through the server differed by more than 40%).
// Its traced run still measures the server.
inline CallPath TimedPath(Workload workload) {
  return workload == Workload::kHotSmall ? CallPath::kStore
                                         : CallPath::kServer;
}
// Client threads of a read workload's timed loop. Hot-small runs two. Its
// p99 is a few tens of microseconds; with four busy clients on a shared
// 4-vCPU host it followed the other tenants' load (interquartile range 17%
// and 25% of the median over sets of five and ten seeds), with two 6%.
inline std::size_t TimedClients(Workload workload) {
  return workload == Workload::kHotSmall ? 2 : kClients;
}
// `clients` threads replay `schedule` (indices into inputs.cases) from
// position `start` until `seconds` pass or, when `max_queries` > 0, until
// that many queries were issued.
LoopResult RunClosedLoop(blot::BlotStore& store, const Inputs& inputs,
                         const std::vector<std::uint32_t>& schedule,
                         Checker& checker, CallPath path, std::size_t clients,
                         double seconds, std::size_t max_queries,
                         std::size_t start = 0);

// Loads the store saved under `dir`, adding a load_s sample.
blot::BlotStore LoadStore(const std::filesystem::path& dir,
                          StoreSamples& samples);

// The traced run (layers.cc): one client replays the first schedule
// segment, first untraced and then traced, with a span per query that holds
// each layer's self time; then layer probes on sampled partitions and a
// repair step. Returns the per-layer metrics and writes the spans to
// `span_file`.
MetricSet RunTraced(const Options& options, blot::BlotStore& store,
                    const Inputs& inputs,
                    const std::vector<CorruptTarget>& targets,
                    const StoreSamples& setup_samples,
                    const std::filesystem::path& store_dir, Checker& checker,
                    const std::filesystem::path& span_file,
                    JsonObject& properties);

// Schedule segment `k` (Inputs::segments).
std::vector<std::uint32_t> ScheduleSegment(const Inputs& inputs,
                                           std::size_t k);
// Warm-up before the timed loop of schedule segment `k`: hot-small clears
// the cache and fills it with every case of the segment once; the other
// workloads replay one second of the schedule. Returns the position in the
// segment the timed loop starts from.
std::size_t WarmUp(const Options& options, blot::BlotStore& store,
                   const Inputs& inputs, Checker& checker,
                   std::size_t clients, std::size_t k);

}  // namespace blotbench

#endif  // BLOT_PERFBENCH_BENCH_H_
