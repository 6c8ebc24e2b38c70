/// \file metrics.hpp
/// \brief The process-wide observability registry: typed Counter / Gauge /
/// log-bucketed Histogram instruments, lazily registered by name (+ an
/// optional Prometheus-style label set), with lock-free hot-path updates
/// and two exposition formats — Prometheus text (`PrometheusText`) and a
/// machine-readable JSON snapshot (`SnapshotJson`). Every subsystem
/// publishes into `MetricRegistry::Global()` and every surface (the
/// `metrics` verb, `--metrics-json`, the soak scrapers, CI artifacts)
/// reads out of it, so the numbers cannot drift between exposition
/// paths.
///
/// Two publication styles coexist:
///  - *event-time* instruments (histograms, spans): observed at the
///    moment the event happens, gated on the process-wide enabled flag
///    (one relaxed atomic load, the `util::FailPoints::active()`
///    pattern) so a disabled registry costs nothing on hot paths;
///  - *pull-model* collection hooks: subsystems whose counters live
///    under their own mutex (e.g. `api::Service`'s terminal-partition
///    totals) register a hook that publishes a coherent snapshot into
///    the registry at `Collect()` time. Hooks run serialized under the
///    collect mutex, so invariants that hold under the publisher's lock
///    (accepted = terminals + queued + running) hold in every exposition
///    output exactly.
///
/// `obs` depends only on the C++ standard library, so any layer —
/// including `util` — may publish into it.

#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

namespace marioh::obs {

/// Process-wide enable switch for *event-time* recording (histogram
/// observes, trace spans). Default on. Collection hooks and
/// counter/gauge publication always work — disabling only silences the
/// per-event paths, so exposition keeps functioning with frozen
/// distributions.
void SetEnabled(bool enabled);

namespace internal {
extern std::atomic<bool> g_enabled;
}  // namespace internal

/// One relaxed atomic load — cheap enough for any hot path.
inline bool Enabled() {
  return internal::g_enabled.load(std::memory_order_relaxed);
}

/// Monotone counter. Lock-free; `Set` exists for pull-model hooks that
/// publish an externally maintained total.
class Counter {
 public:
  void Increment() { value_.fetch_add(1, std::memory_order_relaxed); }
  void Add(uint64_t delta) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  /// Publishes an externally accumulated total (collection hooks only —
  /// mixing Set and Add on one counter loses increments by design).
  void Set(uint64_t value) { value_.store(value, std::memory_order_relaxed); }
  uint64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

/// Point-in-time gauge. Lock-free (Add is a CAS loop — std::atomic<double>
/// has no fetch_add until C++20 libstdc++ catches up everywhere).
class Gauge {
 public:
  void Set(double value) { value_.store(value, std::memory_order_relaxed); }
  void Add(double delta) {
    double current = value_.load(std::memory_order_relaxed);
    while (!value_.compare_exchange_weak(current, current + delta,
                                         std::memory_order_relaxed)) {
    }
  }
  double value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// Log-2 bucketed histogram for durations in seconds: bucket upper
/// bounds are 1e-6 * 2^i (1 µs up to ~76 h) plus a +Inf overflow bucket.
/// `Observe` is lock-free (per-bucket atomic adds; sum/max via CAS) and
/// gated on `Enabled()` so a disabled registry records nothing. A value
/// lands in the first bucket whose upper bound is >= the value
/// (Prometheus `le` semantics).
class Histogram {
 public:
  /// Finite buckets; bucket index kBucketCount is the +Inf overflow.
  static constexpr size_t kBucketCount = 39;

  /// Upper bound of finite bucket `i` (exact: computed by doubling).
  static double BucketUpperBound(size_t i);
  /// Index of the bucket `value` lands in; kBucketCount for overflow.
  /// Values <= 0 land in bucket 0.
  static size_t BucketIndex(double value);

  void Observe(double value);

  uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  double sum() const { return sum_.load(std::memory_order_relaxed); }
  double max() const { return max_.load(std::memory_order_relaxed); }
  /// Raw (non-cumulative) count of bucket `i`, 0..kBucketCount inclusive.
  uint64_t bucket(size_t i) const {
    return buckets_[i].load(std::memory_order_relaxed);
  }

 private:
  std::atomic<uint64_t> buckets_[kBucketCount + 1] = {};
  std::atomic<uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
  std::atomic<double> max_{0.0};
};

/// One instrument's state as captured by `MetricRegistry::Collect()`.
struct MetricSnapshot {
  enum class Kind { kCounter, kGauge, kHistogram };
  std::string name;
  /// Rendered Prometheus label pairs (`stage="train"`), empty when
  /// unlabeled.
  std::string labels;
  Kind kind = Kind::kCounter;
  uint64_t counter_value = 0;     ///< kCounter
  double gauge_value = 0.0;       ///< kGauge
  uint64_t count = 0;             ///< kHistogram
  double sum = 0.0;               ///< kHistogram
  double max = 0.0;               ///< kHistogram
  /// Cumulative bucket counts paired with their upper bounds; the last
  /// entry is the +Inf bucket (bound unset) and equals `count`.
  struct Bucket {
    std::optional<double> le;  ///< unset = +Inf
    uint64_t cumulative = 0;
  };
  std::vector<Bucket> buckets;  ///< kHistogram
};

/// VmRSS / VmHWM of this process, read from /proc/self/status. nullopt
/// where /proc is unavailable (non-Linux), so callers can skip cleanly.
struct MemorySample {
  uint64_t rss_bytes = 0;
  uint64_t peak_rss_bytes = 0;
};
std::optional<MemorySample> SampleProcessMemory();

/// Named instrument registry. Instruments are created lazily on first
/// Get and live for the registry's lifetime (pointers are stable and
/// never invalidated — callers cache them and update lock-free).
/// `Global()` is the process-wide instance every subsystem shares; tests
/// construct private registries for isolation.
class MetricRegistry {
 public:
  MetricRegistry() = default;
  MetricRegistry(const MetricRegistry&) = delete;
  MetricRegistry& operator=(const MetricRegistry&) = delete;

  /// The process-wide registry. Registers a built-in collection hook
  /// publishing `marioh_process_rss_bytes` / `marioh_process_peak_rss_bytes`
  /// on first use.
  static MetricRegistry& Global();

  /// `labels` is a pre-rendered Prometheus label body (`stage="train"`),
  /// empty for unlabeled instruments. Returns the same pointer for the
  /// same (name, labels) forever. Getting a name that already exists
  /// with a different kind aborts (a programming error, not input).
  Counter* GetCounter(const std::string& name,
                      const std::string& labels = "");
  Gauge* GetGauge(const std::string& name, const std::string& labels = "");
  Histogram* GetHistogram(const std::string& name,
                          const std::string& labels = "");

  /// Registers a pull-model hook run (serialized) at every Collect();
  /// returns an id for RemoveCollectionHook. Hooks typically take their
  /// subsystem's lock and publish a coherent counter snapshot.
  uint64_t AddCollectionHook(std::function<void()> hook);
  /// Unregisters; blocks until any in-flight Collect() has finished
  /// running hooks, so after return the hook can never run again —
  /// subsystems call this first thing in their destructor, before
  /// touching state the hook reads.
  void RemoveCollectionHook(uint64_t id);

  /// Runs every hook, then snapshots every instrument (sorted by name,
  /// then labels). The collect mutex serializes concurrent collectors.
  std::vector<MetricSnapshot> Collect();

  /// Prometheus text exposition (`# TYPE` lines, `_bucket{le=...}`
  /// cumulative buckets, `_sum` / `_count` / `_max`). Runs Collect().
  std::string PrometheusText();

  /// Compact single-line JSON: {"counters":[...],"gauges":[...],
  /// "histograms":[...],"spans":[...]} — same values as PrometheusText
  /// (both render from one Collect(), with one number formatter), plus
  /// the recent trace spans. Runs Collect().
  std::string SnapshotJson();

 private:
  struct Entry {
    MetricSnapshot::Kind kind;
    std::string name;
    std::string labels;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };
  Entry* GetEntry(const std::string& name, const std::string& labels,
                  MetricSnapshot::Kind kind);

  mutable std::mutex map_mutex_;  ///< guards instruments_ / hook maps
  /// Key: name + '\x1f' + labels — sorts by name first, so same-name
  /// label variants are adjacent in exposition output.
  std::map<std::string, std::unique_ptr<Entry>> instruments_;
  std::map<uint64_t, std::function<void()>> hooks_;
  uint64_t next_hook_id_ = 1;
  /// Serializes Collect() end-to-end (hooks + snapshot) and makes
  /// RemoveCollectionHook block out in-flight hook runs.
  std::mutex collect_mutex_;
};

/// Shared number formatter for both exposition formats: shortest
/// round-trip-exact decimal (so snapshot-vs-text equivalence is textual,
/// not approximate). Integers render without a decimal point.
std::string FormatMetricValue(double value);

}  // namespace marioh::obs
