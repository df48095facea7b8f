// Store lifecycle (build, save, load, recover, repair), the closed-loop
// replay, and measurement helpers.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <optional>
#include <thread>

#include "bench.h"
#include "core/partition_cache.h"
#include "serve/server.h"
#include "util/error.h"
#include "util/thread_pool.h"

namespace blotbench {

using blot::BlotStore;

blot::serve::ServerOptions ServingOptions() {
  blot::serve::ServerOptions options;
  options.worker_threads = kClients;
  options.scan_threads = 0;
  options.simulate_io_ms = 0.0;
  options.max_inflight = 64;
  return options;
}

namespace {

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
  return out;
}

std::string JsonNumber(double value) {
  if (!std::isfinite(value)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

}  // namespace

std::size_t SamplesBeyond(std::size_t n, double q) {
  const std::size_t rank =
      static_cast<std::size_t>(std::ceil(q * double(n)));
  return n > rank ? n - rank : 0;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return double(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

std::uint64_t DirectoryBytes(const std::filesystem::path& dir) {
  std::uint64_t bytes = 0;
  for (const auto& entry :
       std::filesystem::recursive_directory_iterator(dir))
    if (entry.is_regular_file()) bytes += entry.file_size();
  return bytes;
}

void MetricSet::Set(const std::string& name, double value,
                    const std::string& unit) {
  items_.push_back({name, {value, unit}});
}

std::string MetricSet::ToJson() const {
  std::string out = "{";
  for (std::size_t i = 0; i < items_.size(); ++i) {
    if (i > 0) out += ", ";
    out += "\"" + items_[i].first + "\": {\"value\": " +
           JsonNumber(items_[i].second.first) + ", \"unit\": \"" +
           items_[i].second.second + "\"}";
  }
  return out + "}";
}

void MetricSet::Print() const {
  for (const auto& [name, value] : items_)
    std::printf("metric %-34s %14.6g %s\n", name.c_str(), value.first,
                value.second.c_str());
}

void JsonObject::Key(const std::string& key) {
  if (!body_.empty()) body_ += ", ";
  body_ += "\"" + JsonEscape(key) + "\": ";
}

JsonObject& JsonObject::Num(const std::string& key, double value) {
  Key(key);
  body_ += JsonNumber(value);
  return *this;
}

JsonObject& JsonObject::Str(const std::string& key, const std::string& value) {
  Key(key);
  body_ += "\"" + JsonEscape(value) + "\"";
  return *this;
}

JsonObject& JsonObject::Raw(const std::string& key, const std::string& json) {
  Key(key);
  body_ += json;
  return *this;
}

BlotStore BuildStore(const Inputs& inputs, StoreSamples& samples) {
  blot::ThreadPool pool(kClients, "bench-build");
  const auto start = Clock::now();
  BlotStore store(inputs.dataset);
  for (const blot::ReplicaConfig& config : ReplicaConfigs())
    store.AddReplica(config, &pool);
  samples.build_s.push_back(SecondsSince(start));
  return store;
}

BlotStore SaveAndLoad(const BlotStore& store, const std::filesystem::path& dir,
                      StoreSamples& samples) {
  std::filesystem::remove_all(dir);
  store.Save(dir);
  samples.disk_bytes.push_back(double(DirectoryBytes(dir)));
  const auto dataset_file = dir / "dataset.bin";
  samples.dataset_file_bytes.push_back(
      std::filesystem::exists(dataset_file)
          ? double(std::filesystem::file_size(dataset_file))
          : 0.0);
  return LoadStore(dir, samples);
}

BlotStore LoadStore(const std::filesystem::path& dir, StoreSamples& samples) {
  const auto start = Clock::now();
  BlotStore loaded = BlotStore::Load(dir);
  samples.load_s.push_back(SecondsSince(start));
  return loaded;
}

std::vector<std::uint32_t> ScheduleSegment(const Inputs& inputs,
                                           std::size_t k) {
  const std::size_t length = inputs.schedule.size() / inputs.segments;
  return {inputs.schedule.begin() + k * length,
          inputs.schedule.begin() + (k + 1) * length};
}

std::size_t WarmUp(const Options& options, BlotStore& store,
                   const Inputs& inputs, Checker& checker,
                   std::size_t clients, std::size_t k) {
  const CallPath path = TimedPath(options.workload);
  if (options.workload != Workload::kHotSmall)
    return RunClosedLoop(store, inputs, ScheduleSegment(inputs, k), checker,
                         path, clients, 1.0, 0)
        .next;
  blot::PartitionCache::Global().Clear();
  const std::size_t length = inputs.cases.size() / inputs.segments;
  std::vector<std::uint32_t> cases(length);
  for (std::uint32_t i = 0; i < length; ++i)
    cases[i] = std::uint32_t(k * length + i);
  RunClosedLoop(store, inputs, cases, checker, path, clients, 0.0, length);
  return 0;
}

void RepairStep(BlotStore& store, const Inputs& inputs,
                const std::vector<CorruptTarget>& targets, Checker& checker,
                StoreSamples& samples) {
  {
    blot::ThreadPool pool(kClients, "bench-build");
    for (std::size_t k = 0; k < kRecoveries; ++k) {
      const auto start = Clock::now();
      const std::uint64_t restored =
          store.RecoverReplicaFrom(kRecoverVictim, kRecoverSource, &pool);
      samples.recover_s.push_back(SecondsSince(start));
      checker.Op(restored == inputs.dataset.size(), "recovered record count");
    }
  }
  for (const CorruptTarget& t : targets) {
    blot::StoredPartition& unit =
        store.mutable_replica(t.replica).MutablePartition(t.partition);
    blot::require(!unit.data.empty(), "corrupt target has no bytes");
    unit.data[unit.data.size() / 2] ^= 0xFF;
  }
  blot::serve::QueryServer server(store, RoutingModel(), ServingOptions());
  for (const CorruptTarget& t : targets) {
    const QueryCase& c = inputs.repair_cases[t.case_index];
    const auto start = Clock::now();
    try {
      const BlotStore::RoutedResult routed = server.Execute(c.range);
      const double ms = MsSince(start);
      checker.Check(c, routed.result.records);
      samples.attempts.push_back(double(routed.attempts));
      if (routed.attempts > 1) samples.failover_ms.push_back(ms);
    } catch (const std::exception& e) {
      checker.Error(e.what());
    }
  }
  server.Drain();
  checker.Op(store.health().QuarantinedCount() == 0,
             "partitions left quarantined after repair");
}

void Append(LoopResult& into, const LoopResult& from) {
  auto cat = [](std::vector<double>& to, const std::vector<double>& add) {
    to.insert(to.end(), add.begin(), add.end());
  };
  for (const double t : from.done_s) into.done_s.push_back(into.elapsed_s + t);
  into.elapsed_s += from.elapsed_s;
  cat(into.latencies_ms, from.latencies_ms);
  cat(into.returned_per_query, from.returned_per_query);
  into.shape_of.insert(into.shape_of.end(), from.shape_of.begin(),
                       from.shape_of.end());
  into.fully_cached += from.fully_cached;
  into.records_returned += from.records_returned;
  into.records_scanned += from.records_scanned;
  into.shape_ms.resize(std::max(into.shape_ms.size(), from.shape_ms.size()));
  for (std::size_t s = 0; s < from.shape_ms.size(); ++s)
    into.shape_ms[s] += from.shape_ms[s];
}

LoopStats SummarizeLoop(const LoopResult& loop) {
  const std::size_t n = loop.latencies_ms.size();
  LoopStats stats;
  if (n == 0) return stats;
  std::vector<std::size_t> order(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return loop.done_s[a] < loop.done_s[b];
  });
  stats.windows = std::clamp<std::size_t>(n / kWindowSamples, 1, kWindows);
  stats.window_samples = n / stats.windows;
  std::vector<double> qps, p50, p99;
  double window_start = 0.0;
  for (std::size_t w = 0; w < stats.windows; ++w) {
    const std::size_t lo = w * n / stats.windows;
    const std::size_t hi = (w + 1) * n / stats.windows;
    std::vector<double> latencies;
    for (std::size_t k = lo; k < hi; ++k)
      latencies.push_back(loop.latencies_ms[order[k]]);
    const double window_end = loop.done_s[order[hi - 1]];
    qps.push_back(double(hi - lo) / std::max(window_end - window_start, 1e-9));
    window_start = window_end;
    p50.push_back(blot::Percentile(latencies, 50));
    p99.push_back(blot::Percentile(latencies, 99));
  }
  stats.qps = blot::Percentile(qps, 50);
  stats.p50_ms = blot::Percentile(p50, 50);
  stats.p99_ms = blot::Percentile(p99, 50);
  return stats;
}

LoopResult RunClosedLoop(BlotStore& store, const Inputs& inputs,
                         const std::vector<std::uint32_t>& schedule,
                         Checker& checker, CallPath path, std::size_t clients,
                         double seconds, std::size_t max_queries,
                         std::size_t start) {
  blot::require(!schedule.empty(), "empty replay schedule");
  const blot::CostModel model = RoutingModel();
  std::optional<blot::serve::QueryServer> server;
  if (path == CallPath::kServer)
    server.emplace(store, model, ServingOptions());
  const std::size_t shapes = inputs.shape_names.size();
  std::vector<LoopResult> parts(clients);
  std::atomic<std::size_t> next{start};
  std::atomic<bool> stop{false};
  std::vector<std::thread> threads;
  const auto begin = Clock::now();
  for (std::size_t t = 0; t < clients; ++t)
    threads.emplace_back([&, t] {
      LoopResult& part = parts[t];
      part.shape_ms.assign(shapes, 0.0);
      while (!stop.load(std::memory_order_relaxed)) {
        const std::size_t k = next.fetch_add(1);
        if (max_queries > 0 && k - start >= max_queries) break;
        const QueryCase& c = inputs.cases[schedule[k % schedule.size()]];
        const auto q0 = Clock::now();
        try {
          const BlotStore::RoutedResult routed =
              server ? server->Execute(c.range) : store.Execute(c.range, model);
          const double ms = MsSince(q0);
          part.latencies_ms.push_back(ms);
          part.done_s.push_back(SecondsSince(begin));
          part.shape_of.push_back(std::uint32_t(c.shape));
          part.shape_ms[c.shape] += ms;
          const blot::QueryStats& stats = routed.result.stats;
          if (stats.cache_hits > 0 && stats.cache_misses == 0)
            ++part.fully_cached;
          part.records_returned += routed.result.records.size();
          part.records_scanned += stats.records_scanned;
          part.returned_per_query.push_back(
              double(routed.result.records.size()));
          checker.Check(c, routed.result.records);
        } catch (const std::exception& e) {
          checker.Error(e.what());
        }
      }
    });
  if (max_queries == 0) {
    std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
    stop.store(true);
  }
  for (auto& t : threads) t.join();
  LoopResult total;
  for (const LoopResult& part : parts) Append(total, part);
  total.elapsed_s = SecondsSince(begin);
  total.next = next.load();
  return total;
}

}  // namespace blotbench
