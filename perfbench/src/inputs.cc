// Seeded inputs of every workload and their oracle answers.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <numeric>
#include <thread>

#include "bench.h"
#include "bench/bench_common.h"
#include "core/workload.h"
#include "gen/taxi_generator.h"
#include "simenv/environment.h"
#include "testing/oracle.h"
#include "util/error.h"
#include "util/rng.h"

namespace blotbench {

using blot::BlotStore;
using blot::Record;
using blot::Rng;
using blot::STRange;

namespace {

// Query cases per shape (scan-mixed).
constexpr std::size_t kCasesPerShape = 64;
// Hot-small: the repository's hotspot mix (bench/micro_partition_cache.cpp,
// docs/performance.md): 64 distinct cells drawn with Zipf exponent 1.1.
// Under that skew the hottest cell takes a quarter of the queries, so one
// draw of the cells decides a run's figures: between seeds, qps differed
// by 43% (interquartile range over median), reruns of one seed by 1-12%.
// A run therefore replays kHotDraws independent draws of the mix in turn,
// each for an equal share of the measured time, and measures the mix
// rather than one draw of it.
constexpr std::size_t kHotCells = 64;
constexpr double kZipfExponent = 1.1;
constexpr std::size_t kHotDraws = 64;
// "The last days of the month": cells are anchored on records of this
// trailing window.
constexpr double kHotWindowDays = 4.0;
// Scan-mixed: queries of each shape q1..q8 per 10,000, chosen so that each
// shape takes about an eighth of the run time (shape latencies measured on
// a 4-core host, Release build): the full scan is rare, the tiny ranges
// common, and no shape dominates.
constexpr std::size_t kScanMixedCounts[] = {382, 1280, 3709, 638,
                                            3171, 797, 19, 4};
// Hot-small schedule length per draw.
constexpr std::size_t kHotScheduleLength = 8192;

std::uint64_t Mix(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

template <typename T>
std::uint64_t Bits(T value) {
  std::uint64_t out = 0;
  static_assert(sizeof(T) <= sizeof(out));
  std::memcpy(&out, &value, sizeof(T));
  return out;
}

// Fixed-size instances of `size` placed uniformly (Section IV-B).
void AddShape(Inputs& inputs, const std::string& name,
              const blot::RangeSize& size, std::size_t count, Rng& rng) {
  const std::size_t shape = inputs.shape_names.size();
  inputs.shape_names.push_back(name);
  for (std::size_t i = 0; i < count; ++i)
    inputs.cases.push_back(
        {blot::SampleQueryInstance({size}, inputs.universe, rng), shape, {}});
}

void MakeScanMixedCases(Inputs& inputs, Rng& rng) {
  const blot::Workload shapes =
      blot::bench::WildlyVariedWorkload(inputs.universe);
  for (std::size_t s = 0; s < shapes.size(); ++s)
    AddShape(inputs, "q" + std::to_string(s + 1),
             shapes.queries()[s].query.size, kCasesPerShape, rng);
}

// Hot cells: ~1%-per-dimension ranges centred on records from the last days
// of the month, so cells sit where the fleet is dense. Each draw holds
// kHotCells cells in Zipf rank order; the rank is the case's shape.
void MakeHotSmallCases(Inputs& inputs, Rng& rng) {
  const STRange& u = inputs.universe;
  const blot::RangeSize size{u.Width() * 0.01, u.Height() * 0.01,
                             u.Duration() * 0.01};
  const double window_start = u.t_max() - kHotWindowDays * 86400.0;
  std::vector<std::size_t> recent;
  const auto& records = inputs.dataset.records();
  for (std::size_t i = 0; i < records.size(); ++i)
    if (double(records[i].time) >= window_start) recent.push_back(i);
  blot::require(!recent.empty(), "no records in the hot window");
  for (std::size_t rank = 0; rank < kHotCells; ++rank) {
    inputs.shape_names.push_back("rank" + std::to_string(rank + 1));
    inputs.cell_weights.push_back(
        1.0 / std::pow(double(rank + 1), kZipfExponent));
  }
  inputs.segments = kHotDraws;
  for (std::size_t draw = 0; draw < kHotDraws; ++draw)
    for (std::size_t rank = 0; rank < kHotCells; ++rank) {
      const Record& anchor = records[recent[rng.NextUint64(recent.size())]];
      const blot::STPoint centre{
          anchor.x, anchor.y,
          std::min(double(anchor.time), u.t_max() - size.t / 2)};
      inputs.cases.push_back({STRange::FromCentroid(size, centre), rank, {}});
    }
}

// The small and mid-size shapes of Section V-C, cheap enough to replay
// after every rebuild: 64 x `scale` cases each of q4 and q6 and four times
// as many of q3. With q3 at two thirds of the replay, p50 falls inside q3's
// latencies rather than in the gap between q3 and the larger shapes, where
// it would jump between runs.
void MakeRepairShapes(Inputs& inputs, Rng& rng, std::size_t scale) {
  const blot::Workload shapes =
      blot::bench::WildlyVariedWorkload(inputs.universe);
  for (const auto& [s, count] : {std::pair{2u, 256u}, {3u, 64u}, {5u, 64u}})
    AddShape(inputs, "q" + std::to_string(s + 1),
             shapes.queries()[s].query.size, count * scale, rng);
}

// Oracle answers of every case, in parallel.
// A case repeating the previous case's range (the full scan, whose every
// instance is the universe) reuses its answer. Every case lies inside the
// cases' joint time span, so the oracle holds only the records inside it:
// the answers are the same, and cases that all fall at the end of the month
// (hot-small) scan a fraction of the dataset.
void ComputeExpected(const blot::Dataset& dataset,
                     std::vector<QueryCase*> cases) {
  double t_lo = INFINITY;
  double t_hi = -INFINITY;
  for (const QueryCase* c : cases) {
    t_lo = std::min(t_lo, c->range.t_min());
    t_hi = std::max(t_hi, c->range.t_max());
  }
  std::vector<Record> candidates;
  for (const Record& r : dataset.records())
    if (double(r.time) >= t_lo && double(r.time) <= t_hi)
      candidates.push_back(r);
  const blot::testing::Oracle oracle(std::move(candidates));
  std::vector<QueryCase*> distinct;
  for (std::size_t i = 0; i < cases.size(); ++i)
    if (i == 0 || !(cases[i]->range == cases[i - 1]->range))
      distinct.push_back(cases[i]);
  std::atomic<std::size_t> next{0};
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kClients; ++t)
    threads.emplace_back([&] {
      for (std::size_t i = next++; i < distinct.size(); i = next++)
        distinct[i]->expected =
            DigestOf(oracle.RangeQuery(distinct[i]->range));
    });
  for (auto& t : threads) t.join();
  for (std::size_t i = 1; i < cases.size(); ++i)
    if (cases[i]->range == cases[i - 1]->range)
      cases[i]->expected = cases[i - 1]->expected;
}

// A replay order holding shape i exactly counts[i] times, each shape's
// entries evenly spread (smooth weighted round robin), so any window of the
// schedule has the same mix. Each shape cycles through its cases in a
// seeded order.
std::vector<std::uint32_t> Interleave(
    const std::vector<std::size_t>& counts,
    std::vector<std::vector<std::uint32_t>> members, Rng& rng) {
  std::size_t total = 0;
  for (const std::size_t c : counts) total += c;
  for (auto& m : members) std::shuffle(m.begin(), m.end(), rng);
  std::vector<std::int64_t> credit(counts.size(), 0);
  std::vector<std::size_t> used(counts.size(), 0);
  std::vector<std::uint32_t> schedule;
  for (std::size_t k = 0; k < total; ++k) {
    std::size_t pick = 0;
    for (std::size_t i = 0; i < counts.size(); ++i) {
      credit[i] += std::int64_t(counts[i]);
      if (credit[i] > credit[pick]) pick = i;
    }
    credit[pick] -= std::int64_t(total);
    schedule.push_back(members[pick][used[pick]++ % members[pick].size()]);
  }
  return schedule;
}

// Integer counts summing to `total`, proportional to `weights` (largest
// remainder).
std::vector<std::size_t> Apportion(const std::vector<double>& weights,
                                   std::size_t total) {
  const double sum = std::accumulate(weights.begin(), weights.end(), 0.0);
  std::vector<std::size_t> counts(weights.size());
  std::vector<std::pair<double, std::size_t>> remainders;
  std::size_t assigned = 0;
  for (std::size_t i = 0; i < weights.size(); ++i) {
    const double exact = double(total) * weights[i] / sum;
    counts[i] = static_cast<std::size_t>(exact);
    assigned += counts[i];
    remainders.push_back({exact - double(counts[i]), i});
  }
  std::sort(remainders.rbegin(), remainders.rend());
  for (std::size_t k = 0; assigned < total; ++k, ++assigned)
    ++counts[remainders[k % remainders.size()].second];
  return counts;
}

// Fills inputs.schedule (see Inputs::schedule).
void MakeSchedule(Workload workload, Inputs& inputs, Rng& rng) {
  std::vector<std::vector<std::uint32_t>> members(inputs.shape_names.size());
  for (std::uint32_t i = 0; i < inputs.cases.size(); ++i)
    members[inputs.cases[i].shape].push_back(i);
  switch (workload) {
    case Workload::kScanMixed:
      inputs.schedule = Interleave(
          {std::begin(kScanMixedCounts), std::end(kScanMixedCounts)},
          std::move(members), rng);
      break;
    case Workload::kHotSmall: {
      // One Zipf-weighted segment per draw, over that draw's cells.
      const std::vector<std::size_t> counts =
          Apportion(inputs.cell_weights, kHotScheduleLength);
      for (std::size_t draw = 0; draw < inputs.segments; ++draw) {
        std::vector<std::vector<std::uint32_t>> cells(kHotCells);
        for (std::size_t rank = 0; rank < kHotCells; ++rank)
          cells[rank] = {std::uint32_t(draw * kHotCells + rank)};
        const std::vector<std::uint32_t> part =
            Interleave(counts, std::move(cells), rng);
        inputs.schedule.insert(inputs.schedule.end(), part.begin(),
                               part.end());
      }
      break;
    }
    case Workload::kBuildRepair:
      inputs.schedule.resize(inputs.cases.size());
      std::iota(inputs.schedule.begin(), inputs.schedule.end(), 0u);
      std::shuffle(inputs.schedule.begin(), inputs.schedule.end(), rng);
      break;
  }
}

}  // namespace

std::vector<blot::ReplicaConfig> ReplicaConfigs() {
  const std::size_t grids[kNumReplicas][2] = {{64, 16}, {16, 64}, {256, 8}};
  std::vector<blot::ReplicaConfig> configs;
  for (std::size_t i = 0; i < kNumReplicas; ++i) {
    const std::string name = kReplicaSchemes[i];
    blot::ReplicaConfig config;
    config.partitioning.spatial_partitions = grids[i][0];
    config.partitioning.temporal_partitions = grids[i][1];
    config.encoding =
        blot::EncodingScheme::FromName(name.substr(name.find('/') + 1));
    blot::require(config.Name() == name, "replica config mismatch: " + name);
    configs.push_back(config);
  }
  return configs;
}

blot::CostModel RoutingModel() {
  return blot::CostModel{blot::EnvironmentModel::LocalHadoop()};
}

void Digest::Add(const Record& r) {
  std::uint64_t h = Mix(r.oid);
  h = Mix(h ^ Bits(r.time));
  h = Mix(h ^ Bits(r.x));
  h = Mix(h ^ Bits(r.y));
  h = Mix(h ^ Bits(r.speed) ^ (std::uint64_t(r.heading) << 32));
  h = Mix(h ^ r.status ^ (std::uint64_t(r.passengers) << 8) ^
          (std::uint64_t(r.fare_cents) << 16));
  ++count;
  sum += h;
  sum_sq += Mix(h);
}

Digest DigestOf(std::span<const Record> records) {
  Digest digest;
  for (const Record& r : records) digest.Add(r);
  return digest;
}

bool Checker::Check(const QueryCase& c, std::span<const Record> records) {
  ops_.fetch_add(1);
  if (!records.empty() && perturb_.exchange(false))
    records = records.subspan(1);
  if (DigestOf(records) == c.expected) return true;
  mismatches_.fetch_add(1);
  Report("mismatch", "answer differs from the oracle");
  return false;
}

void Checker::Op(bool ok, const char* what) {
  ops_.fetch_add(1);
  if (ok) return;
  mismatches_.fetch_add(1);
  Report("check failed", what);
}

void Checker::Error(const char* what) {
  ops_.fetch_add(1);
  errors_.fetch_add(1);
  Report("error", what);
}

void Checker::Report(const char* kind, const char* what) {
  // The first few failures are enough to diagnose a run.
  static std::atomic<int> reported{0};
  if (reported.fetch_add(1) < 5) std::fprintf(stderr, "%s: %s\n", kind, what);
}

Inputs MakeInputs(const Options& options) {
  Inputs inputs;
  blot::TaxiFleetConfig fleet;
  fleet.seed = options.seed;
  fleet.num_taxis = 1000;
  fleet.samples_per_taxi = (options.records + fleet.num_taxis - 1) /
                           fleet.num_taxis;
  inputs.dataset = blot::GenerateTaxiFleet(fleet);
  inputs.universe = fleet.Universe();
  Rng rng(Mix(options.seed ^ 0xB10Bull));
  switch (options.workload) {
    case Workload::kScanMixed: MakeScanMixedCases(inputs, rng); break;
    case Workload::kHotSmall: MakeHotSmallCases(inputs, rng); break;
    // Build-repair's p99 lies in the tail of its mid-size cases, so each
    // run draws many of them: the tail then is not a handful of cases.
    case Workload::kBuildRepair: MakeRepairShapes(inputs, rng, 4); break;
  }
  const auto expect = [&](std::vector<QueryCase>& cases) {
    std::vector<QueryCase*> pointers;
    for (QueryCase& c : cases) pointers.push_back(&c);
    ComputeExpected(inputs.dataset, std::move(pointers));
  };
  expect(inputs.cases);
  if (options.workload == Workload::kBuildRepair) {
    inputs.repair_cases = inputs.cases;
  } else {
    Inputs repair;
    repair.universe = inputs.universe;
    MakeRepairShapes(repair, rng, 1);
    inputs.repair_cases = std::move(repair.cases);
    expect(inputs.repair_cases);
  }
  MakeSchedule(options.workload, inputs, rng);
  return inputs;
}

std::vector<CorruptTarget> PickCorruptTargets(const BlotStore& store,
                                              const Inputs& inputs,
                                              std::uint64_t seed) {
  // Candidate cases in a seeded order. A case qualifies when its routed
  // replica is not the recovery victim (recovery re-encodes the victim,
  // whose partitions then only repair by full rebuild) and it scans a
  // partition that no earlier chosen case touches: replayed in order, each
  // case is then the first to read its corrupted partition.
  const std::vector<QueryCase>& cases = inputs.repair_cases;
  std::vector<std::uint32_t> order(cases.size());
  std::iota(order.begin(), order.end(), 0u);
  Rng rng(Mix(seed ^ 0xFA11ull));
  std::shuffle(order.begin(), order.end(), rng);
  std::vector<CorruptTarget> targets;
  std::vector<std::vector<std::size_t>> touched;  // per chosen target
  for (const std::uint32_t i : order) {
    if (targets.size() == kCorruptedPartitions) break;
    const STRange& range = cases[i].range;
    if (cases[i].expected.count == 0) continue;
    const std::size_t r =
        store.RouteQueryDetailed(range, RoutingModel()).replica_index;
    if (r == kRecoverVictim) continue;
    const blot::Replica& replica = store.replica(r);
    const std::vector<std::size_t> involved =
        replica.index().InvolvedPartitions(range);
    const auto scanned =
        std::find_if(involved.begin(), involved.end(), [&](std::size_t p) {
          const blot::StoredPartition& unit = replica.partition(p);
          return !unit.has_zone || unit.zone.Intersects(range);
        });
    if (scanned == involved.end()) continue;
    bool fresh = true;
    for (std::size_t t = 0; t < targets.size(); ++t)
      if (targets[t].replica == r &&
          std::find(touched[t].begin(), touched[t].end(), *scanned) !=
              touched[t].end())
        fresh = false;
    if (!fresh) continue;
    targets.push_back({r, *scanned, i});
    touched.push_back(involved);
  }
  blot::require(!targets.empty(), "no case routes to a corruptible partition");
  return targets;
}

}  // namespace blotbench
