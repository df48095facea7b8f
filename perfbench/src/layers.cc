// The traced run: per-layer metrics measured at each layer's public calls.
//
// One client replays the workload's schedule twice: untraced (the baseline
// for the tracing overhead, and the cache counters), then traced. A traced
// query is one QueryServer::Execute with the metrics registry on, so the
// store fills the query's RoutedResult::profile. The benchmark's span
// around that call and the profile of the same execution give every
// layer's self time:
//
//   serve    span - profile.total_ms             (admission, hand-off)
//   store    total_ms - route - execute          (locks, health, failover)
//   route    route stage                         (RankCandidates)
//   replica  execute - cache_probe - decode - index
//   index    PartitionIndex::InvolvedPartitions  (the benchmark's call)
//   cache    cache_probe stage                   (cache hits)
//   codec    decode - zone_map_prune - simd      (verify + decompress; a
//                                                 cache miss's whole decode)
//   layout   zone_map_prune + simd               (block walk, decode+filter)
//
// The index lookup is the one layer the profile does not time; it is a
// pure in-memory call, so the benchmark times it on its own. The other
// calls the benchmark makes after the traced one enter no self time:
// RouteQueryDetailed, and per partition the routed replica scans,
// PartitionCache::Lookup (cache on) or, when that misses, Codec::Decompress
// and DeserializeRecordsInRange. They give the per-call latencies and the
// decode cost per record, and the decomposed scan's answer is checked
// against the oracle.
//
// Layer probes on sampled partitions then time the build-side calls
// (Codec::Compress, SerializeRecords, PartitionDataset, SegmentStore), the
// decode side per codec, Replica::Reconstruct and, on a freshly loaded
// copy, a repair step plus direct BlotStore::RecoverPartition calls.
#include <algorithm>
#include <cctype>
#include <cstdio>
#include <memory>

#include "bench.h"
#include "blot/layout.h"
#include "blot/partitioner.h"
#include "blot/segment_store.h"
#include "codec/codec.h"
#include "core/partition_cache.h"
#include "obs/metrics.h"
#include "obs/profile.h"
#include "serve/server.h"
#include "util/error.h"
#include "util/rng.h"

namespace blotbench {

using blot::BlotStore;
using blot::PartitionCache;
using blot::Percentile;
using blot::Record;
using blot::Replica;
using blot::obs::Stage;

namespace {

enum Layer : std::uint8_t {
  kServe,
  kStore,
  kRoute,
  kReplica,
  kIndex,
  kCache,
  kCodec,
  kLayout,
  kNumLayers,
};
constexpr const char* kLayerNames[kNumLayers] = {
    "serve", "store", "route", "replica", "index", "cache", "codec", "layout"};

// One traced query: the span around QueryServer::Execute and the self time
// of each layer within it.
struct Span {
  std::uint32_t query = 0;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  double self_ns[kNumLayers] = {};
};

// Partitions sampled per replica by the codec and layout probes.
constexpr std::size_t kProbePartitions = 16;
// Route-regret sampling: wall-time budget per shape (at least one case each).
constexpr double kRegretBudgetPerShapeS = 0.4;

class Tracer {
 public:
  Tracer() : origin_(Clock::now()) {}

  std::int64_t Now() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - origin_)
        .count();
  }
  void Add(const Span& span) { spans_.push_back(span); }
  const std::vector<Span>& spans() const { return spans_; }

  void Write(const std::filesystem::path& path) const {
    std::unique_ptr<std::FILE, int (*)(std::FILE*)> out(
        std::fopen(path.c_str(), "w"), &std::fclose);
    blot::require(out != nullptr, "cannot write " + path.string());
    for (const Span& s : spans_) {
      std::fprintf(out.get(), "{\"query\": %u, \"start_ns\": %lld, "
                   "\"end_ns\": %lld, \"self_ns\": {",
                   s.query, static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns));
      for (std::size_t l = 0; l < kNumLayers; ++l)
        std::fprintf(out.get(), "%s\"%s\": %.0f", l ? ", " : "",
                     kLayerNames[l], s.self_ns[l]);
      std::fprintf(out.get(), "}}\n");
    }
  }

 private:
  Clock::time_point origin_;
  std::vector<Span> spans_;
};

// Per-call samples of the traced replay beyond the spans.
struct TraceTotals {
  std::uint32_t queries = 0;
  std::vector<double> serve_ms;
  std::vector<double> serve_overhead_ms;  // client latency - measured cost
  std::vector<double> store_self_ms;
  std::vector<double> route_us;
  std::vector<double> index_us;
  std::vector<double> cache_lookup_us;
  double involved = 0;
  double zone_pruned = 0;
  double layout_ns = 0;
  double layout_records = 0;
};

double StageNs(const blot::obs::QueryProfile& p, Stage stage) {
  return p.stage(stage) * 1e6;
}

// One traced query, and the benchmark's own calls on it, each checked.
void TraceQuery(const QueryCase& c, blot::serve::QueryServer& server,
                const BlotStore& store, Tracer& tracer, TraceTotals& totals,
                Checker& checker) {
  Span span;
  span.query = totals.queries++;
  span.start_ns = tracer.Now();
  const BlotStore::RoutedResult served = server.Execute(c.range);
  span.end_ns = tracer.Now();
  checker.Check(c, served.result.records);

  const Replica& replica = store.replica(served.replica_index);
  auto t = Clock::now();
  const std::vector<std::size_t> involved =
      replica.index().InvolvedPartitions(c.range);
  const double index_ns = SecondsSince(t) * 1e9;

  const blot::obs::QueryProfile& p = served.profile;
  const double total_ns = p.total_ms * 1e6;
  const double execute_ns = StageNs(p, Stage::kExecute);
  const double decode_ns = StageNs(p, Stage::kDecode);
  const double layout_ns =
      StageNs(p, Stage::kZoneMapPrune) + StageNs(p, Stage::kSimd);
  span.self_ns[kServe] = double(span.end_ns - span.start_ns) - total_ns;
  span.self_ns[kStore] = total_ns - StageNs(p, Stage::kRoute) - execute_ns;
  span.self_ns[kRoute] = StageNs(p, Stage::kRoute);
  span.self_ns[kReplica] = execute_ns - StageNs(p, Stage::kCacheProbe) -
                           decode_ns - index_ns;
  span.self_ns[kIndex] = index_ns;
  span.self_ns[kCache] = StageNs(p, Stage::kCacheProbe);
  span.self_ns[kCodec] = decode_ns - layout_ns;
  span.self_ns[kLayout] = layout_ns;
  tracer.Add(span);
  totals.serve_ms.push_back(double(span.end_ns - span.start_ns) / 1e6);
  totals.serve_overhead_ms.push_back(totals.serve_ms.back() -
                                     served.measured_cost_ms);
  totals.store_self_ms.push_back(span.self_ns[kStore] / 1e6);
  totals.index_us.push_back(index_ns / 1e3);
  totals.involved += double(involved.size());

  t = Clock::now();
  store.RouteQueryDetailed(c.range, RoutingModel());
  totals.route_us.push_back(SecondsSince(t) * 1e6);

  // The routed replica's scan, decomposed into the layers' calls.
  PartitionCache& cache = PartitionCache::Global();
  std::vector<Record> records;
  for (const std::size_t part : involved) {
    const blot::StoredPartition& unit = replica.partition(part);
    if (unit.has_zone && !unit.zone.Intersects(c.range)) {
      ++totals.zone_pruned;
      continue;
    }
    if (cache.enabled()) {
      t = Clock::now();
      const PartitionCache::RecordsPtr hit =
          cache.Lookup(replica.cache_id(), part);
      totals.cache_lookup_us.push_back(SecondsSince(t) * 1e6);
      if (hit) {
        for (const Record& r : *hit)
          if (c.range.Contains(r.Position())) records.push_back(r);
        continue;
      }
    }
    const blot::Bytes raw = blot::GetCodec(unit.codec).Decompress(unit.data);
    std::uint64_t total_records = 0;
    t = Clock::now();
    const std::vector<Record> matched = blot::DeserializeRecordsInRange(
        raw, replica.config().encoding.layout, c.range, &total_records,
        unit.format);
    totals.layout_ns += SecondsSince(t) * 1e9;
    totals.layout_records += double(total_records);
    records.insert(records.end(), matched.begin(), matched.end());
  }
  checker.Check(c, records);
}

std::string Lower(std::string_view s) {
  std::string out(s);
  for (char& c : out) c = char(std::tolower(static_cast<unsigned char>(c)));
  return out;
}

// Codec and layout probes on sampled partitions of every replica.
void ProbeCodecsAndLayouts(const BlotStore& store, std::uint64_t seed,
                           MetricSet& metrics) {
  blot::Rng rng(seed ^ 0xC0DEull);
  double serialize_ns = 0, serialize_records = 0;
  for (std::size_t r = 0; r < store.NumReplicas(); ++r) {
    const Replica& replica = store.replica(r);
    const blot::Layout layout = replica.config().encoding.layout;
    const blot::CodecKind kind = replica.config().encoding.codec;
    const blot::Codec& codec = blot::GetCodec(kind);
    double raw_bytes = 0, decode_s = 0, encode_s = 0;
    for (std::size_t k = 0; k < kProbePartitions; ++k) {
      const blot::StoredPartition& unit =
          replica.partition(rng.NextUint64(replica.NumPartitions()));
      auto start = Clock::now();
      const blot::Bytes raw = codec.Decompress(unit.data);
      decode_s += SecondsSince(start);
      raw_bytes += double(raw.size());
      start = Clock::now();
      const blot::Bytes again = codec.Compress(raw);
      encode_s += SecondsSince(start);
      blot::require(!again.empty(), "empty compressed frame");
      const std::vector<Record> records =
          blot::DeserializeRecords(raw, layout, unit.format);
      start = Clock::now();
      const blot::Bytes serialized =
          blot::SerializeRecords(records, layout, unit.format);
      serialize_ns += SecondsSince(start) * 1e9;
      serialize_records += double(records.size());
      blot::require(serialized == raw, "layout round trip differs");
    }
    const std::string name = "codec." + Lower(blot::CodecKindName(kind));
    metrics.Set(name + ".decode_mbps", raw_bytes / decode_s / 1e6, "MB/s");
    metrics.Set(name + ".encode_mbps", raw_bytes / encode_s / 1e6, "MB/s");
  }
  metrics.Set("layout.serialize_ns_per_record",
              serialize_ns / std::max(serialize_records, 1.0), "ns/record");
}

// The build-side and persistence probes.
void ProbeBuildAndStorage(const BlotStore& store, const Inputs& inputs,
                          const StoreSamples& setup,
                          const std::filesystem::path& work_dir,
                          Checker& checker, MetricSet& metrics) {
  const double records = double(inputs.dataset.size());
  auto start = Clock::now();
  for (const blot::ReplicaConfig& config : ReplicaConfigs()) {
    const blot::PartitionedData parts =
        blot::PartitionDataset(inputs.dataset, config.partitioning,
                               store.universe());
    checker.Op(parts.NumPartitions() == config.partitioning.TotalPartitions(),
               "partition count");
  }
  metrics.Set("partitioner.krec_per_s",
              records * kNumReplicas / SecondsSince(start) / 1000.0,
              "krec/s");

  double bytes = 0, save_s = 0, load_s = 0;
  for (std::size_t r = 0; r < store.NumReplicas(); ++r) {
    const std::filesystem::path dir =
        work_dir / ("segments-" + std::to_string(r));
    std::filesystem::remove_all(dir);
    start = Clock::now();
    blot::SegmentStore::Save(store.replica(r), dir);
    save_s += SecondsSince(start);
    bytes += double(blot::SegmentStore::DiskBytes(dir));
    start = Clock::now();
    const Replica loaded = blot::SegmentStore::Load(dir);
    load_s += SecondsSince(start);
    checker.Op(loaded.NumRecords() == store.replica(r).NumRecords(),
               "segment store round trip");
    std::filesystem::remove_all(dir);
  }
  metrics.Set("segment_store.save_mbps", bytes / save_s / 1e6, "MB/s");
  metrics.Set("segment_store.load_mbps", bytes / load_s / 1e6, "MB/s");
  metrics.Set("storage.dataset_share_pct",
              100.0 * Percentile(setup.dataset_file_bytes, 50) /
                  Percentile(setup.disk_bytes, 50),
              "%");
  metrics.Set("storage.replica_bytes_per_record",
              double(store.TotalStorageBytes()) / records, "B/record");

  start = Clock::now();
  const blot::Dataset logical = store.replica(kRecoverSource).Reconstruct();
  const double reconstruct_s = SecondsSince(start);
  checker.Op(DigestOf(logical.records()) == DigestOf(inputs.dataset.records()),
             "reconstructed replica differs from the dataset");
  metrics.Set("repair.reconstruct_krec_per_s",
              double(logical.size()) / reconstruct_s / 1000.0, "krec/s");
}

// Routing regret: every replica's Replica::Execute time on sampled cases,
// with the cache off, against the replica routing picked.
void ProbeRouting(const BlotStore& store, const Inputs& inputs,
                  std::uint64_t seed, MetricSet& metrics,
                  JsonObject& properties) {
  blot::Rng rng(seed ^ 0x4E6Eull);
  std::vector<std::vector<std::uint32_t>> by_shape(inputs.shape_names.size());
  // Cases of the first segment (Inputs::segments), as in the traced replay.
  for (std::uint32_t i = 0; i < inputs.cases.size() / inputs.segments; ++i)
    by_shape[inputs.cases[i].shape].push_back(i);
  double routed_ms = 0, best_ms = 0;
  std::size_t sampled = 0, mispicked = 0;
  for (auto& members : by_shape) {
    std::shuffle(members.begin(), members.end(), rng);
    const auto shape_start = Clock::now();
    for (const std::uint32_t i : members) {
      if (SecondsSince(shape_start) > kRegretBudgetPerShapeS) break;
      const blot::STRange& range = inputs.cases[i].range;
      const std::size_t routed =
          store.RouteQueryDetailed(range, RoutingModel()).replica_index;
      std::vector<double> ms(store.NumReplicas());
      for (std::size_t r = 0; r < store.NumReplicas(); ++r) {
        // Small scans repeat so one timer tick does not decide the pick.
        double best = 1e300;
        for (int rep = 0; rep < 3; ++rep) {
          const auto start = Clock::now();
          store.replica(r).Execute(range);
          best = std::min(best, MsSince(start));
          if (best > 5.0) break;
        }
        ms[r] = best;
      }
      const std::size_t fastest =
          std::min_element(ms.begin(), ms.end()) - ms.begin();
      routed_ms += ms[routed];
      best_ms += ms[fastest];
      mispicked += routed != fastest;
      ++sampled;
    }
  }
  metrics.Set("route.regret_pct", 100.0 * (routed_ms - best_ms) / best_ms, "%");
  metrics.Set("route.mispicked_pct",
              100.0 * double(mispicked) / double(sampled), "%");
  properties.Num("regret_sampled_cases", double(sampled));
}

}  // namespace

MetricSet RunTraced(const Options& options, BlotStore& store,
                    const Inputs& inputs,
                    const std::vector<CorruptTarget>& targets,
                    const StoreSamples& setup_samples,
                    const std::filesystem::path& store_dir, Checker& checker,
                    const std::filesystem::path& span_file,
                    JsonObject& properties) {
  // The traced run replays the first schedule segment (Inputs::segments).
  const std::vector<std::uint32_t> schedule = ScheduleSegment(inputs, 0);
  const double half = std::max(1.0, options.seconds / 2.0);
  const std::size_t start = WarmUp(options, store, inputs, checker, 1, 0);
  PartitionCache& cache = PartitionCache::Global();
  cache.ResetStats();
  const LoopResult base = RunClosedLoop(store, inputs, schedule, checker,
                                        CallPath::kServer, 1, half, 0, start);
  const PartitionCache::Stats cache_stats = cache.stats();

  Tracer tracer;
  TraceTotals totals;
  {
    blot::obs::MetricsRegistry& registry = blot::obs::MetricsRegistry::global();
    registry.set_enabled(true);  // the store fills RoutedResult::profile
    blot::serve::QueryServer server(store, RoutingModel(), ServingOptions());
    const auto begin = Clock::now();
    for (std::size_t k = base.next; SecondsSince(begin) < half; ++k) {
      const QueryCase& c = inputs.cases[schedule[k % schedule.size()]];
      try {
        TraceQuery(c, server, store, tracer, totals, checker);
      } catch (const std::exception& e) {
        checker.Error(e.what());
      }
    }
    registry.set_enabled(false);
  }

  MetricSet m;
  double traced_ns = 0;
  double self_ns[kNumLayers] = {};
  for (const Span& span : tracer.spans()) {
    traced_ns += double(span.end_ns - span.start_ns);
    for (std::size_t l = 0; l < kNumLayers; ++l) self_ns[l] += span.self_ns[l];
  }
  const double untraced_p50 = Percentile(base.latencies_ms, 50);
  m.Set("serve.overhead_p50_ms", Percentile(totals.serve_overhead_ms, 50),
        "ms");
  m.Set("route.p50_us", Percentile(totals.route_us, 50), "us");
  m.Set("store.self_p50_ms", Percentile(totals.store_self_ms, 50), "ms");
  m.Set("cache.hit_ratio", cache_stats.HitRatio(), "ratio");
  m.Set("cache.evictions", double(cache_stats.evictions), "count");
  m.Set("cache.resident_mb", double(cache_stats.bytes) / (1 << 20), "MiB");
  // With the cache off (every workload but hot-small) nothing is looked up.
  m.Set("cache.lookup_p50_us",
        cache.enabled() ? Percentile(totals.cache_lookup_us, 50) : 0.0, "us");
  m.Set("index.partitions_per_query",
        totals.involved / double(totals.queries), "count");
  m.Set("index.lookup_p50_us", Percentile(totals.index_us, 50), "us");
  m.Set("scan.zone_pruned_pct",
        100.0 * totals.zone_pruned / std::max(totals.involved, 1.0), "%");
  m.Set("scan.examined_per_returned",
        double(base.records_scanned) /
            double(std::max<std::uint64_t>(base.records_returned, 1)),
        "ratio");
  // Hot-small's partitions all come from the cache: nothing is decoded.
  m.Set("layout.decode_filter_ns_per_record",
        totals.layout_records > 0 ? totals.layout_ns / totals.layout_records
                                  : 0.0,
        "ns/record");
  for (std::size_t l = 0; l < kNumLayers; ++l)
    m.Set(std::string(kLayerNames[l]) + ".self_pct",
          100.0 * self_ns[l] / traced_ns, "%");
  m.Set("trace.overhead_pct",
        100.0 * (Percentile(totals.serve_ms, 50) - untraced_p50) /
            untraced_p50,
        "%");
  properties.Num("traced_queries", totals.queries)
      .Num("untraced_queries", double(base.latencies_ms.size()))
      .Num("untraced_p50_ms", untraced_p50)
      .Num("fully_cached_share",
           base.latencies_ms.empty()
               ? 0.0
               : double(base.fully_cached) / double(base.latencies_ms.size()))
      .Str("span_file", span_file.string());

  // Probes run with the cache off so every call does its full work.
  cache.Configure(0);
  ProbeCodecsAndLayouts(store, options.seed, m);
  ProbeBuildAndStorage(store, inputs, setup_samples, options.work_dir, checker,
                       m);
  ProbeRouting(store, inputs, options.seed, m, properties);

  StoreSamples repair;
  BlotStore fresh = LoadStore(store_dir, repair);
  RepairStep(fresh, inputs, targets, checker, repair);
  double attempts = 0;
  for (const double a : repair.attempts) attempts += a;
  m.Set("failover.attempts_per_query",
        attempts / std::max<double>(repair.attempts.size(), 1), "count");
  std::vector<double> partition_ms;
  for (const CorruptTarget& t : targets) {
    const auto begin = Clock::now();
    fresh.RecoverPartition(t.replica, t.partition);
    partition_ms.push_back(MsSince(begin));
    const QueryCase& c = inputs.repair_cases[t.case_index];
    checker.Check(c, fresh.Execute(c.range, RoutingModel()).result.records);
  }
  m.Set("repair.partition_p50_ms", Percentile(partition_ms, 50), "ms");

  tracer.Write(span_file);
  return m;
}

}  // namespace blotbench
