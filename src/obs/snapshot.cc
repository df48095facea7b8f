#include "obs/snapshot.h"

#include <chrono>
#include <cstdio>
#include <map>
#include <utility>

#include "obs/event_log.h"
#include "util/error.h"

namespace blot::obs {
namespace {

std::uint64_t WallMillis() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::system_clock::now().time_since_epoch())
          .count());
}

std::string JsonLabels(const Labels& labels) {
  std::string out = "{";
  for (std::size_t i = 0; i < labels.size(); ++i) {
    if (i > 0) out += ",";
    out += '"';
    out += JsonEscapeString(labels[i].first);
    out += "\":\"";
    out += JsonEscapeString(labels[i].second);
    out += '"';
  }
  return out + "}";
}

using MetricKey = std::pair<std::string, Labels>;

}  // namespace

MetricsSnapshotter::MetricsSnapshotter(SnapshotterOptions options,
                                       MetricsRegistry* registry)
    : options_(options), registry_(registry) {
  require(options_.capacity > 0, "MetricsSnapshotter: capacity must be > 0");
  require(options_.interval.count() > 0,
          "MetricsSnapshotter: interval must be positive");
}

MetricsSnapshotter::~MetricsSnapshotter() { Stop(); }

void MetricsSnapshotter::Start() {
  std::lock_guard lock(thread_mutex_);
  if (thread_.joinable()) return;
  stop_ = false;
  thread_ = std::thread([this] { Loop(); });
}

void MetricsSnapshotter::Stop() {
  std::thread to_join;
  {
    std::lock_guard lock(thread_mutex_);
    if (!thread_.joinable()) return;
    stop_ = true;
    to_join = std::move(thread_);
  }
  stop_cv_.notify_all();
  to_join.join();
  // Final flush: capture whatever changed since the last periodic tick
  // (and guarantee a briefly-run snapshotter still records something).
  SampleNow();
}

bool MetricsSnapshotter::running() const {
  std::lock_guard lock(thread_mutex_);
  return thread_.joinable();
}

void MetricsSnapshotter::Loop() {
  std::unique_lock lock(thread_mutex_);
  while (!stop_) {
    if (stop_cv_.wait_for(lock, options_.interval,
                          [this] { return stop_; }))
      break;
    // Sample outside thread_mutex_ so Stop() never waits on the
    // registry lock.
    lock.unlock();
    SampleNow();
    lock.lock();
  }
}

void MetricsSnapshotter::SampleNow() {
  TimedSnapshot sample;
  sample.wall_ms = WallMillis();
  sample.mono_ns = MonotonicNanos();
  sample.metrics = registry_->Snapshot();
  std::lock_guard lock(mutex_);
  sample.seq = next_seq_++;
  ++samples_taken_;
  ring_.push_back(std::move(sample));
  while (ring_.size() > options_.capacity) ring_.pop_front();
}

std::vector<TimedSnapshot> MetricsSnapshotter::Samples() const {
  std::lock_guard lock(mutex_);
  return {ring_.begin(), ring_.end()};
}

std::size_t MetricsSnapshotter::sample_count() const {
  std::lock_guard lock(mutex_);
  return ring_.size();
}

std::uint64_t MetricsSnapshotter::samples_taken() const {
  std::lock_guard lock(mutex_);
  return samples_taken_;
}

std::string MetricsSnapshotter::ToJsonl() const {
  const std::vector<TimedSnapshot> samples = Samples();
  std::string out;
  // Previous sample's values, for delta encoding. A metric's first
  // appearance deltas against zero, so reconstruction is uniform
  // cumulative summation.
  std::map<MetricKey, std::uint64_t> prev_counters;
  std::map<MetricKey, std::pair<std::vector<std::uint64_t>, double>>
      prev_histograms;  // counts (incl. overflow), sum

  for (std::size_t s = 0; s < samples.size(); ++s) {
    const TimedSnapshot& sample = samples[s];
    const bool base = s == 0;
    std::string line = "{\"schema\":\"blot.snapshot.v1\",\"seq\":" +
                       std::to_string(sample.seq) +
                       ",\"wall_ms\":" + std::to_string(sample.wall_ms) +
                       ",\"mono_ns\":" + std::to_string(sample.mono_ns) +
                       ",\"base\":" + (base ? "true" : "false");

    line += ",\"counters\":[";
    bool first = true;
    for (const CounterSnapshot& c : sample.metrics.counters) {
      const MetricKey key{c.name, c.labels};
      const auto it = prev_counters.find(key);
      const std::uint64_t prev = it == prev_counters.end() ? 0 : it->second;
      const std::uint64_t delta = c.value - prev;
      prev_counters[key] = c.value;
      // Zero deltas are omitted on non-base lines (the whole point of
      // delta encoding); the base line lists everything.
      if (!base && delta == 0) continue;
      if (!first) line += ",";
      first = false;
      line += "{\"name\":\"" + JsonEscapeString(c.name) +
              "\",\"labels\":" + JsonLabels(c.labels) +
              ",\"delta\":" + std::to_string(delta) + "}";
    }

    line += "],\"gauges\":[";
    first = true;
    for (const GaugeSnapshot& g : sample.metrics.gauges) {
      if (!first) line += ",";
      first = false;
      line += "{\"name\":\"" + JsonEscapeString(g.name) +
              "\",\"labels\":" + JsonLabels(g.labels) +
              ",\"value\":" + FormatJsonNumber(g.value) + "}";
    }

    line += "],\"histograms\":[";
    first = true;
    for (const HistogramSnapshot& h : sample.metrics.histograms) {
      const MetricKey key{h.name, h.labels};
      const auto it = prev_histograms.find(key);
      const bool is_new = it == prev_histograms.end();
      std::vector<std::uint64_t> dcounts = h.counts;
      double dsum = h.sum;
      std::uint64_t dcount = h.count;
      if (!is_new) {
        for (std::size_t i = 0; i < dcounts.size(); ++i)
          dcounts[i] -= it->second.first[i];
        dsum -= it->second.second;
        std::uint64_t prev_count = 0;
        for (const std::uint64_t c : it->second.first) prev_count += c;
        dcount = h.count - prev_count;
      }
      prev_histograms[key] = {h.counts, h.sum};
      if (!base && !is_new && dcount == 0) continue;
      if (!first) line += ",";
      first = false;
      line += "{\"name\":\"" + JsonEscapeString(h.name) +
              "\",\"labels\":" + JsonLabels(h.labels);
      if (is_new) {
        // Bounds travel once, on first appearance.
        line += ",\"bounds\":[";
        for (std::size_t i = 0; i < h.bounds.size(); ++i) {
          if (i > 0) line += ",";
          line += FormatJsonNumber(h.bounds[i]);
        }
        line += "]";
      }
      line += ",\"dcounts\":[";
      for (std::size_t i = 0; i < dcounts.size(); ++i) {
        if (i > 0) line += ",";
        line += std::to_string(dcounts[i]);
      }
      line += "],\"dcount\":" + std::to_string(dcount) +
              ",\"dsum\":" + FormatJsonNumber(dsum) + "}";
    }
    line += "]}";
    out += line;
    out += '\n';
  }
  return out;
}

void MetricsSnapshotter::WriteJsonlFile(const std::string& path) const {
  const std::string jsonl = ToJsonl();
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr)
    throw ReadError("MetricsSnapshotter: cannot write " + path);
  const std::size_t written = std::fwrite(jsonl.data(), 1, jsonl.size(), f);
  std::fclose(f);
  if (written != jsonl.size())
    throw ReadError("MetricsSnapshotter: short write to " + path);
  EventLog::Global().Info(
      "snapshot.flush", "metrics snapshot ring flushed",
      {Field("path", path), Field("samples", sample_count()),
       Field("bytes", jsonl.size())});
}

}  // namespace blot::obs
