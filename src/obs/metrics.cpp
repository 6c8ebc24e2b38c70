#include "obs/metrics.hpp"

#include <algorithm>
#include <array>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <utility>

#include "obs/trace.hpp"
#include "util/check.hpp"

namespace marioh::obs {

namespace internal {
std::atomic<bool> g_enabled{true};
}  // namespace internal

void SetEnabled(bool enabled) {
  internal::g_enabled.store(enabled, std::memory_order_relaxed);
}

namespace {

/// Finite bucket upper bounds, exact by construction (1e-6 doubled): the
/// same doubling a test can replay, so boundary assertions are equality,
/// not tolerance.
const std::array<double, Histogram::kBucketCount>& BucketBounds() {
  static const std::array<double, Histogram::kBucketCount> bounds = [] {
    std::array<double, Histogram::kBucketCount> b{};
    double bound = 1e-6;
    for (size_t i = 0; i < Histogram::kBucketCount; ++i) {
      b[i] = bound;
      bound *= 2.0;
    }
    return b;
  }();
  return bounds;
}

/// Escapes a string for a JSON value ("" and \\ plus control chars).
std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

}  // namespace

std::string FormatMetricValue(double value) {
  // Integers (the common case: counters, cumulative buckets, integral
  // gauges) render without an exponent or decimal point.
  if (value >= 0 && value < 9.007199254740992e15 &&
      static_cast<double>(static_cast<uint64_t>(value)) == value) {
    return std::to_string(static_cast<uint64_t>(value));
  }
  // Shortest round-trip-exact decimal: try increasing precision until
  // the parse comes back bit-identical.
  char buf[64];
  for (int precision = 6; precision <= 17; ++precision) {
    std::snprintf(buf, sizeof buf, "%.*g", precision, value);
    if (std::strtod(buf, nullptr) == value) break;
  }
  return buf;
}

double Histogram::BucketUpperBound(size_t i) { return BucketBounds()[i]; }

size_t Histogram::BucketIndex(double value) {
  const auto& bounds = BucketBounds();
  // First bucket whose upper bound is >= value (Prometheus `le`).
  auto it = std::lower_bound(bounds.begin(), bounds.end(), value);
  return static_cast<size_t>(it - bounds.begin());  // == kBucketCount: +Inf
}

void Histogram::Observe(double value) {
  if (!Enabled()) return;
  buckets_[BucketIndex(value)].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  double sum = sum_.load(std::memory_order_relaxed);
  while (!sum_.compare_exchange_weak(sum, sum + value,
                                     std::memory_order_relaxed)) {
  }
  double max = max_.load(std::memory_order_relaxed);
  while (value > max && !max_.compare_exchange_weak(
                            max, value, std::memory_order_relaxed)) {
  }
}

std::optional<MemorySample> SampleProcessMemory() {
  std::ifstream status("/proc/self/status");
  if (!status) return std::nullopt;
  MemorySample sample;
  bool have_rss = false, have_peak = false;
  std::string line;
  while (std::getline(status, line)) {
    uint64_t* field = nullptr;
    bool* have = nullptr;
    if (line.rfind("VmRSS:", 0) == 0) {
      field = &sample.rss_bytes;
      have = &have_rss;
    } else if (line.rfind("VmHWM:", 0) == 0) {
      field = &sample.peak_rss_bytes;
      have = &have_peak;
    } else {
      continue;
    }
    // "VmRSS:     12345 kB"
    std::istringstream fields(line.substr(line.find(':') + 1));
    uint64_t kb = 0;
    if (fields >> kb) {
      *field = kb * 1024;
      *have = true;
    }
    if (have_rss && have_peak) break;
  }
  if (!have_rss || !have_peak) return std::nullopt;
  return sample;
}

MetricRegistry& MetricRegistry::Global() {
  static MetricRegistry* registry = [] {
    auto* r = new MetricRegistry();
    // Built-in memory telemetry: published at Collect() time so every
    // snapshot carries the current and peak RSS without any subsystem
    // having to remember to sample.
    Gauge* rss = r->GetGauge("marioh_process_rss_bytes");
    Gauge* peak = r->GetGauge("marioh_process_peak_rss_bytes");
    r->AddCollectionHook([rss, peak] {
      if (std::optional<MemorySample> m = SampleProcessMemory()) {
        rss->Set(static_cast<double>(m->rss_bytes));
        peak->Set(static_cast<double>(m->peak_rss_bytes));
      }
    });
    return r;
  }();
  return *registry;
}

MetricRegistry::Entry* MetricRegistry::GetEntry(const std::string& name,
                                                const std::string& labels,
                                                MetricSnapshot::Kind kind) {
  std::lock_guard<std::mutex> lock(map_mutex_);
  std::string key = name + '\x1f' + labels;
  auto it = instruments_.find(key);
  if (it != instruments_.end()) {
    // Kind mismatch is a programming error (two subsystems claiming one
    // name as different types), not runtime input — fail loudly.
    MARIOH_CHECK(it->second->kind == kind);
    return it->second.get();
  }
  auto entry = std::make_unique<Entry>();
  entry->kind = kind;
  entry->name = name;
  entry->labels = labels;
  switch (kind) {
    case MetricSnapshot::Kind::kCounter:
      entry->counter = std::make_unique<Counter>();
      break;
    case MetricSnapshot::Kind::kGauge:
      entry->gauge = std::make_unique<Gauge>();
      break;
    case MetricSnapshot::Kind::kHistogram:
      entry->histogram = std::make_unique<Histogram>();
      break;
  }
  Entry* raw = entry.get();
  instruments_.emplace(std::move(key), std::move(entry));
  return raw;
}

Counter* MetricRegistry::GetCounter(const std::string& name,
                                    const std::string& labels) {
  return GetEntry(name, labels, MetricSnapshot::Kind::kCounter)
      ->counter.get();
}

Gauge* MetricRegistry::GetGauge(const std::string& name,
                                const std::string& labels) {
  return GetEntry(name, labels, MetricSnapshot::Kind::kGauge)->gauge.get();
}

Histogram* MetricRegistry::GetHistogram(const std::string& name,
                                        const std::string& labels) {
  return GetEntry(name, labels, MetricSnapshot::Kind::kHistogram)
      ->histogram.get();
}

uint64_t MetricRegistry::AddCollectionHook(std::function<void()> hook) {
  std::lock_guard<std::mutex> lock(map_mutex_);
  uint64_t id = next_hook_id_++;
  hooks_.emplace(id, std::move(hook));
  return id;
}

void MetricRegistry::RemoveCollectionHook(uint64_t id) {
  // The collect mutex is the run-exclusion: holding it guarantees no
  // hook is mid-flight, so once erased the hook can never run again.
  std::lock_guard<std::mutex> collecting(collect_mutex_);
  std::lock_guard<std::mutex> lock(map_mutex_);
  hooks_.erase(id);
}

std::vector<MetricSnapshot> MetricRegistry::Collect() {
  std::lock_guard<std::mutex> collecting(collect_mutex_);
  // Copy the hooks out so a hook that registers an instrument (taking
  // map_mutex_) cannot deadlock against us.
  std::vector<std::function<void()>> hooks;
  {
    std::lock_guard<std::mutex> lock(map_mutex_);
    hooks.reserve(hooks_.size());
    for (const auto& [id, hook] : hooks_) hooks.push_back(hook);
  }
  for (const auto& hook : hooks) hook();

  std::vector<MetricSnapshot> out;
  std::lock_guard<std::mutex> lock(map_mutex_);
  out.reserve(instruments_.size());
  for (const auto& [key, entry] : instruments_) {
    MetricSnapshot snapshot;
    snapshot.name = entry->name;
    snapshot.labels = entry->labels;
    snapshot.kind = entry->kind;
    switch (entry->kind) {
      case MetricSnapshot::Kind::kCounter:
        snapshot.counter_value = entry->counter->value();
        break;
      case MetricSnapshot::Kind::kGauge:
        snapshot.gauge_value = entry->gauge->value();
        break;
      case MetricSnapshot::Kind::kHistogram: {
        const Histogram& h = *entry->histogram;
        snapshot.count = h.count();
        snapshot.sum = h.sum();
        snapshot.max = h.max();
        uint64_t cumulative = 0;
        snapshot.buckets.reserve(Histogram::kBucketCount + 1);
        for (size_t i = 0; i <= Histogram::kBucketCount; ++i) {
          cumulative += h.bucket(i);
          MetricSnapshot::Bucket bucket;
          if (i < Histogram::kBucketCount) {
            bucket.le = Histogram::BucketUpperBound(i);
          }
          bucket.cumulative = cumulative;
          snapshot.buckets.push_back(bucket);
        }
        break;
      }
    }
    out.push_back(std::move(snapshot));
  }
  return out;
}

std::string MetricRegistry::PrometheusText() {
  std::vector<MetricSnapshot> metrics = Collect();
  std::string out;
  std::string last_typed;
  for (const MetricSnapshot& m : metrics) {
    if (m.name != last_typed) {
      const char* type =
          m.kind == MetricSnapshot::Kind::kCounter     ? "counter"
          : m.kind == MetricSnapshot::Kind::kGauge     ? "gauge"
                                                       : "histogram";
      out += "# TYPE " + m.name + " " + type + "\n";
      last_typed = m.name;
    }
    std::string braced = m.labels.empty() ? "" : "{" + m.labels + "}";
    switch (m.kind) {
      case MetricSnapshot::Kind::kCounter:
        out += m.name + braced + " " +
               FormatMetricValue(static_cast<double>(m.counter_value)) +
               "\n";
        break;
      case MetricSnapshot::Kind::kGauge:
        out += m.name + braced + " " + FormatMetricValue(m.gauge_value) +
               "\n";
        break;
      case MetricSnapshot::Kind::kHistogram: {
        for (const MetricSnapshot::Bucket& b : m.buckets) {
          std::string le =
              b.le.has_value() ? FormatMetricValue(*b.le) : "+Inf";
          std::string labels = m.labels.empty()
                                   ? "le=\"" + le + "\""
                                   : m.labels + ",le=\"" + le + "\"";
          out += m.name + "_bucket{" + labels + "} " +
                 FormatMetricValue(static_cast<double>(b.cumulative)) +
                 "\n";
        }
        out += m.name + "_sum" + braced + " " + FormatMetricValue(m.sum) +
               "\n";
        out += m.name + "_count" + braced + " " +
               FormatMetricValue(static_cast<double>(m.count)) + "\n";
        out += m.name + "_max" + braced + " " + FormatMetricValue(m.max) +
               "\n";
        break;
      }
    }
  }
  return out;
}

std::string MetricRegistry::SnapshotJson() {
  std::vector<MetricSnapshot> metrics = Collect();
  std::string counters, gauges, histograms;
  for (const MetricSnapshot& m : metrics) {
    std::string head = "{\"name\":\"" + JsonEscape(m.name) + "\"";
    if (!m.labels.empty()) {
      head += ",\"labels\":\"" + JsonEscape(m.labels) + "\"";
    }
    switch (m.kind) {
      case MetricSnapshot::Kind::kCounter:
        if (!counters.empty()) counters += ",";
        counters +=
            head + ",\"value\":" +
            FormatMetricValue(static_cast<double>(m.counter_value)) + "}";
        break;
      case MetricSnapshot::Kind::kGauge:
        if (!gauges.empty()) gauges += ",";
        gauges += head + ",\"value\":" + FormatMetricValue(m.gauge_value) +
                  "}";
        break;
      case MetricSnapshot::Kind::kHistogram: {
        if (!histograms.empty()) histograms += ",";
        std::string buckets;
        for (const MetricSnapshot::Bucket& b : m.buckets) {
          if (!buckets.empty()) buckets += ",";
          buckets += "{\"le\":";
          buckets += b.le.has_value() ? FormatMetricValue(*b.le)
                                      : std::string("\"+Inf\"");
          buckets += ",\"count\":" +
                     FormatMetricValue(static_cast<double>(b.cumulative)) +
                     "}";
        }
        histograms +=
            head + ",\"count\":" +
            FormatMetricValue(static_cast<double>(m.count)) +
            ",\"sum\":" + FormatMetricValue(m.sum) +
            ",\"max\":" + FormatMetricValue(m.max) + ",\"buckets\":[" +
            buckets + "]}";
        break;
      }
    }
  }
  std::string spans;
  if (this == &Global()) {
    // Spans ride only the global snapshot: the global ring is the one
    // the RAII spans record into (private registries are instruments
    // only).
    for (const SpanRecord& span : TraceRing::Global().Snapshot()) {
      if (!spans.empty()) spans += ",";
      spans += "{\"id\":" + std::to_string(span.id) +
               ",\"parent\":" + std::to_string(span.parent_id) +
               ",\"name\":\"" + JsonEscape(span.name) + "\"";
      if (!span.detail.empty()) {
        spans += ",\"detail\":\"" + JsonEscape(span.detail) + "\"";
      }
      spans += ",\"start\":" + FormatMetricValue(span.start_seconds) +
               ",\"duration\":" +
               FormatMetricValue(span.duration_seconds) + "}";
    }
  }
  return "{\"counters\":[" + counters + "],\"gauges\":[" + gauges +
         "],\"histograms\":[" + histograms + "],\"spans\":[" + spans +
         "]}";
}

}  // namespace marioh::obs
