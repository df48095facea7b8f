#include "obs/metrics.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "util/error.h"

namespace blot::obs {
namespace {

// Shortest round-trippable representation: integers print bare, other
// values with enough digits to survive JSON parse-back.
std::string FormatDouble(double v) {
  if (std::isfinite(v) && v == std::floor(v) && std::abs(v) < 1e15) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.0f", v);
    return buf;
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string JsonEscape(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string JsonLabels(const Labels& labels) {
  std::string out = "{";
  for (std::size_t i = 0; i < labels.size(); ++i) {
    if (i > 0) out += ",";
    out += '"';
    out += JsonEscape(labels[i].first);
    out += "\":\"";
    out += JsonEscape(labels[i].second);
    out += '"';
  }
  return out + "}";
}

// Prometheus metric names allow [a-zA-Z0-9_:]; we map everything else
// (notably '.' and '-') to '_'.
std::string PromName(std::string_view name) {
  std::string out(name);
  for (char& c : out)
    if (!std::isalnum(static_cast<unsigned char>(c)) && c != '_' && c != ':')
      c = '_';
  return out;
}

std::string PromLabels(const Labels& labels, const std::string& extra = {}) {
  if (labels.empty() && extra.empty()) return "";
  std::string out = "{";
  bool first = true;
  for (const auto& [k, v] : labels) {
    if (!first) out += ",";
    first = false;
    out += PromName(k) + "=\"" + v + "\"";
  }
  if (!extra.empty()) {
    if (!first) out += ",";
    out += extra;
  }
  return out + "}";
}

Labels Canonical(Labels labels) {
  std::sort(labels.begin(), labels.end());
  return labels;
}

}  // namespace

double HistogramPercentile(const std::vector<double>& bounds,
                           const std::vector<std::uint64_t>& counts,
                           std::uint64_t total, double p) {
  if (total == 0) return 0.0;
  p = std::clamp(p, 0.0, 100.0);
  const double target = p / 100.0 * double(total);
  std::uint64_t cumulative = 0;
  for (std::size_t i = 0; i < counts.size(); ++i) {
    const std::uint64_t in_bucket = counts[i];
    if (in_bucket == 0) continue;
    if (double(cumulative + in_bucket) >= target) {
      // Interpolate within [lower, upper); the overflow bucket reports
      // its lower edge (we know nothing about its spread).
      const double lower = i == 0 ? 0.0 : bounds[i - 1];
      if (i >= bounds.size()) return lower;
      const double upper = bounds[i];
      const double into =
          std::clamp((target - double(cumulative)) / double(in_bucket),
                     0.0, 1.0);
      return lower + (upper - lower) * into;
    }
    cumulative += in_bucket;
  }
  return bounds.empty() ? 0.0 : bounds.back();
}

std::string FormatJsonNumber(double v) { return FormatDouble(v); }

std::string JsonEscapeString(std::string_view s) { return JsonEscape(s); }

std::uint64_t MonotonicNanos() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

Histogram::Histogram(std::vector<double> bounds)
    : bounds_(std::move(bounds)), buckets_(bounds_.size() + 1) {
  require(!bounds_.empty(), "Histogram: need at least one bucket bound");
  for (std::size_t i = 1; i < bounds_.size(); ++i)
    require(bounds_[i - 1] < bounds_[i],
            "Histogram: bounds must be strictly increasing");
}

void Histogram::Observe(double v) {
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), v);
  const std::size_t bucket =
      static_cast<std::size_t>(it - bounds_.begin());
  buckets_[bucket].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(v, std::memory_order_relaxed);
}

std::vector<std::uint64_t> Histogram::counts() const {
  std::vector<std::uint64_t> out(buckets_.size());
  for (std::size_t i = 0; i < buckets_.size(); ++i)
    out[i] = buckets_[i].load(std::memory_order_relaxed);
  return out;
}

double Histogram::Mean() const {
  const std::uint64_t n = count();
  return n == 0 ? 0.0 : sum() / double(n);
}

double Histogram::Percentile(double p) const {
  return HistogramPercentile(bounds_, counts(), count(), p);
}

void Histogram::Reset() {
  for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0.0, std::memory_order_relaxed);
}

const std::vector<double>& Histogram::DefaultLatencyBoundsMs() {
  static const std::vector<double> bounds = {
      0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,  0.25,  0.5,
      1,     2.5,    5,     10,   25,    50,   100,  250,   500,
      1000,  2500,   5000,  10000, 30000, 60000};
  return bounds;
}

double HistogramSnapshot::Percentile(double p) const {
  return HistogramPercentile(bounds, counts, count, p);
}

MetricsRegistry& MetricsRegistry::global() {
  static MetricsRegistry* registry = new MetricsRegistry();
  return *registry;
}

Counter& MetricsRegistry::GetCounter(std::string_view name, Labels labels) {
  const Key key{std::string(name), Canonical(std::move(labels))};
  std::lock_guard lock(mutex_);
  auto& slot = counters_[key];
  if (!slot) slot = std::make_unique<Counter>();
  return *slot;
}

Gauge& MetricsRegistry::GetGauge(std::string_view name, Labels labels) {
  const Key key{std::string(name), Canonical(std::move(labels))};
  std::lock_guard lock(mutex_);
  auto& slot = gauges_[key];
  if (!slot) slot = std::make_unique<Gauge>();
  return *slot;
}

Histogram& MetricsRegistry::GetHistogram(std::string_view name,
                                         Labels labels,
                                         std::vector<double> bounds) {
  if (bounds.empty()) bounds = Histogram::DefaultLatencyBoundsMs();
  const Key key{std::string(name), Canonical(std::move(labels))};
  std::lock_guard lock(mutex_);
  auto& slot = histograms_[key];
  if (!slot) {
    slot = std::make_unique<Histogram>(std::move(bounds));
  } else {
    require(slot->bounds() == bounds,
            "MetricsRegistry: histogram re-registered with different "
            "bounds: " + key.first);
  }
  return *slot;
}

MetricsSnapshot MetricsRegistry::Snapshot() const {
  MetricsSnapshot snapshot;
  std::lock_guard lock(mutex_);
  for (const auto& [key, counter] : counters_)
    snapshot.counters.push_back({key.first, key.second, counter->value()});
  for (const auto& [key, gauge] : gauges_)
    snapshot.gauges.push_back({key.first, key.second, gauge->value()});
  for (const auto& [key, histogram] : histograms_)
    snapshot.histograms.push_back({key.first, key.second,
                                   histogram->bounds(), histogram->counts(),
                                   histogram->count(), histogram->sum()});
  return snapshot;
}

void MetricsRegistry::Reset() {
  std::lock_guard lock(mutex_);
  for (auto& [key, counter] : counters_) counter->Reset();
  for (auto& [key, gauge] : gauges_) gauge->Reset();
  for (auto& [key, histogram] : histograms_) histogram->Reset();
}

const CounterSnapshot* MetricsSnapshot::FindCounter(
    std::string_view name, const Labels& labels) const {
  const Labels canonical = Canonical(labels);
  for (const CounterSnapshot& c : counters)
    if (c.name == name && c.labels == canonical) return &c;
  return nullptr;
}

const HistogramSnapshot* MetricsSnapshot::FindHistogram(
    std::string_view name, const Labels& labels) const {
  const Labels canonical = Canonical(labels);
  for (const HistogramSnapshot& h : histograms)
    if (h.name == name && h.labels == canonical) return &h;
  return nullptr;
}

std::string MetricsSnapshot::ToJson() const {
  std::string out = "{\n  \"counters\": [";
  for (std::size_t i = 0; i < counters.size(); ++i) {
    const CounterSnapshot& c = counters[i];
    out += i == 0 ? "\n" : ",\n";
    out += "    {\"name\":\"" + JsonEscape(c.name) + "\",\"labels\":" +
           JsonLabels(c.labels) + ",\"value\":" + std::to_string(c.value) +
           "}";
  }
  out += "\n  ],\n  \"gauges\": [";
  for (std::size_t i = 0; i < gauges.size(); ++i) {
    const GaugeSnapshot& g = gauges[i];
    out += i == 0 ? "\n" : ",\n";
    out += "    {\"name\":\"" + JsonEscape(g.name) + "\",\"labels\":" +
           JsonLabels(g.labels) + ",\"value\":" + FormatDouble(g.value) +
           "}";
  }
  out += "\n  ],\n  \"histograms\": [";
  for (std::size_t i = 0; i < histograms.size(); ++i) {
    const HistogramSnapshot& h = histograms[i];
    out += i == 0 ? "\n" : ",\n";
    out += "    {\"name\":\"" + JsonEscape(h.name) + "\",\"labels\":" +
           JsonLabels(h.labels) + ",\"count\":" + std::to_string(h.count) +
           ",\"sum\":" + FormatDouble(h.sum) +
           ",\"mean\":" + FormatDouble(h.Mean()) +
           ",\"p50\":" + FormatDouble(h.Percentile(50)) +
           ",\"p90\":" + FormatDouble(h.Percentile(90)) +
           ",\"p95\":" + FormatDouble(h.Percentile(95)) +
           ",\"p99\":" + FormatDouble(h.Percentile(99)) + ",\"buckets\":[";
    // Only occupied finite buckets are listed (snapshots stay small);
    // observations above the last bound appear as "overflow".
    bool first = true;
    for (std::size_t b = 0; b < h.bounds.size(); ++b) {
      if (h.counts[b] == 0) continue;
      if (!first) out += ",";
      first = false;
      out += "{\"le\":" + FormatDouble(h.bounds[b]) + ",\"count\":" +
             std::to_string(h.counts[b]) + "}";
    }
    out += "],\"overflow\":" + std::to_string(h.counts.back()) + "}";
  }
  out += "\n  ]\n}\n";
  return out;
}

std::string MetricsSnapshot::ToPrometheus() const {
  // Snapshots arrive sorted by (name, labels), so label variants of the
  // same metric are adjacent and TYPE is emitted once per family.
  std::string out;
  std::string last_type_name;
  const auto type_line = [&](const std::string& name,
                             const char* kind) {
    if (name == last_type_name) return;
    last_type_name = name;
    out += "# TYPE " + name + " " + kind + "\n";
  };
  for (const CounterSnapshot& c : counters) {
    const std::string name = PromName(c.name);
    type_line(name, "counter");
    out += name + PromLabels(c.labels) + " " + std::to_string(c.value) +
           "\n";
  }
  for (const GaugeSnapshot& g : gauges) {
    const std::string name = PromName(g.name);
    type_line(name, "gauge");
    out += name + PromLabels(g.labels) + " " + FormatDouble(g.value) + "\n";
  }
  for (const HistogramSnapshot& h : histograms) {
    const std::string name = PromName(h.name);
    type_line(name, "histogram");
    std::uint64_t cumulative = 0;
    for (std::size_t b = 0; b < h.bounds.size(); ++b) {
      cumulative += h.counts[b];
      out += name + "_bucket" +
             PromLabels(h.labels,
                        "le=\"" + FormatDouble(h.bounds[b]) + "\"") +
             " " + std::to_string(cumulative) + "\n";
    }
    out += name + "_bucket" + PromLabels(h.labels, "le=\"+Inf\"") + " " +
           std::to_string(h.count) + "\n";
    out += name + "_sum" + PromLabels(h.labels) + " " +
           FormatDouble(h.sum) + "\n";
    out += name + "_count" + PromLabels(h.labels) + " " +
           std::to_string(h.count) + "\n";
    // Summary-style quantile lines so dashboards get latency quantiles
    // without a PromQL histogram_quantile() step. Estimates use the same
    // interpolation as the JSON exporter and blotmon.
    // The label is the conventional short spelling ("0.95", not the
    // 17-digit round-trip form FormatDouble would produce).
    for (const char* q : {"0.5", "0.95", "0.99"}) {
      out += name + PromLabels(h.labels,
                               std::string("quantile=\"") + q + "\"") +
             " " + FormatDouble(h.Percentile(std::atof(q) * 100.0)) + "\n";
    }
  }
  return out;
}

ScopedTimerMs::ScopedTimerMs(Histogram* histogram) : histogram_(histogram) {
  if (histogram_ != nullptr) start_ns_ = MonotonicNanos();
}

double ScopedTimerMs::ElapsedMs() const {
  if (histogram_ == nullptr) return 0.0;
  return double(MonotonicNanos() - start_ns_) * 1e-6;
}

ScopedTimerMs::~ScopedTimerMs() {
  if (histogram_ != nullptr) histogram_->Observe(ElapsedMs());
}

}  // namespace blot::obs
