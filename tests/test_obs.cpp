// Tests for the src/obs observability subsystem: log-bucketed histogram
// boundaries and merging, lock-free concurrent updates, lazy instrument
// registration, pull-model collection hooks, trace-ring eviction and
// span parent/child links, the two exposition formats (Prometheus text
// vs JSON snapshot rendering identical numbers), and the guarantee that
// a disabled registry changes nothing about the reconstruction pipeline.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <limits>
#include <map>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "api/session.hpp"
#include "eval/harness.hpp"
#include "hypergraph/hypergraph.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace marioh::obs {
namespace {

// The enabled flag is process-wide; every test that flips it must
// restore the default so suites sharing the binary stay independent.
struct EnabledGuard {
  explicit EnabledGuard(bool on) { SetEnabled(on); }
  ~EnabledGuard() { SetEnabled(true); }
};

TEST(Histogram, BucketBoundsAreExactPowersOfTwoTimesOneMicro) {
  EXPECT_EQ(Histogram::BucketUpperBound(0), 1e-6);
  for (size_t i = 1; i < Histogram::kBucketCount; ++i) {
    // Exact equality on purpose: the bounds are built by doubling, and
    // doubling a double is exact, so no tolerance is needed (or wanted —
    // a log/pow-based implementation would fail this).
    EXPECT_EQ(Histogram::BucketUpperBound(i),
              2.0 * Histogram::BucketUpperBound(i - 1))
        << "bucket " << i;
  }
}

TEST(Histogram, BucketIndexUsesInclusiveUpperBounds) {
  // Prometheus `le` semantics: a value equal to a bound belongs to that
  // bucket; the next representable value above it belongs to the next.
  for (size_t i = 0; i < Histogram::kBucketCount; ++i) {
    double bound = Histogram::BucketUpperBound(i);
    EXPECT_EQ(Histogram::BucketIndex(bound), i);
    EXPECT_EQ(Histogram::BucketIndex(
                  std::nextafter(bound, std::numeric_limits<double>::max())),
              i + 1);
  }
  EXPECT_EQ(Histogram::BucketIndex(0.0), 0u);
  EXPECT_EQ(Histogram::BucketIndex(-1.0), 0u);
  EXPECT_EQ(Histogram::BucketIndex(1e308), Histogram::kBucketCount);
}

TEST(Histogram, ObserveRecordsCountSumMaxAndBuckets) {
  Histogram h;
  h.Observe(1.5e-6);  // bucket 1 (le 2e-6)
  h.Observe(1.5e-6);
  h.Observe(0.5);     // within finite range
  h.Observe(1e9);     // +Inf overflow
  EXPECT_EQ(h.count(), 4u);
  EXPECT_DOUBLE_EQ(h.max(), 1e9);
  EXPECT_NEAR(h.sum(), 1e9 + 0.5 + 3e-6, 1.0);
  EXPECT_EQ(h.bucket(1), 2u);
  EXPECT_EQ(h.bucket(Histogram::BucketIndex(0.5)), 1u);
  EXPECT_EQ(h.bucket(Histogram::kBucketCount), 1u);
}

TEST(Registry, ConcurrentUpdatesFromManyThreadsLoseNothing) {
  MetricRegistry registry;
  Counter* counter = registry.GetCounter("test_total");
  Gauge* gauge = registry.GetGauge("test_gauge");
  Histogram* histogram = registry.GetHistogram("test_seconds");
  constexpr int kThreads = 8;
  constexpr int kIterations = 10000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kIterations; ++i) {
        counter->Increment();
        gauge->Add(1.0);
        histogram->Observe(1e-5);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  constexpr uint64_t kTotal = uint64_t{kThreads} * kIterations;
  EXPECT_EQ(counter->value(), kTotal);
  EXPECT_DOUBLE_EQ(gauge->value(), static_cast<double>(kTotal));
  EXPECT_EQ(histogram->count(), kTotal);
  EXPECT_EQ(histogram->bucket(Histogram::BucketIndex(1e-5)), kTotal);
}

TEST(Registry, InstrumentsAreLazyAndPointerStable) {
  MetricRegistry registry;
  Counter* a = registry.GetCounter("x_total");
  EXPECT_EQ(registry.GetCounter("x_total"), a);
  // A different label set is a different time series.
  Counter* labeled = registry.GetCounter("x_total", "stage=\"train\"");
  EXPECT_NE(labeled, a);
  EXPECT_EQ(registry.GetCounter("x_total", "stage=\"train\""), labeled);
}

TEST(Registry, CollectionHooksRunAtCollectAndStopAfterRemoval) {
  MetricRegistry registry;
  int runs = 0;
  // The hook itself calls GetCounter — the registry must run hooks
  // outside its instrument-map lock or this deadlocks.
  uint64_t id = registry.AddCollectionHook([&] {
    ++runs;
    registry.GetCounter("hooked_total")->Set(static_cast<uint64_t>(runs));
  });
  std::vector<MetricSnapshot> collected = registry.Collect();
  EXPECT_EQ(runs, 1);
  bool found = false;
  for (const MetricSnapshot& m : collected) {
    if (m.name == "hooked_total") {
      found = true;
      EXPECT_EQ(m.counter_value, 1u);
    }
  }
  EXPECT_TRUE(found);
  registry.RemoveCollectionHook(id);
  registry.Collect();
  EXPECT_EQ(runs, 1);
}

TEST(Registry, CollectRendersCumulativeBucketsEndingAtCount) {
  MetricRegistry registry;
  Histogram* h = registry.GetHistogram("lat_seconds");
  h->Observe(1e-6);
  h->Observe(3e-6);
  h->Observe(1e9);  // overflow
  std::vector<MetricSnapshot> collected = registry.Collect();
  ASSERT_EQ(collected.size(), 1u);
  const MetricSnapshot& m = collected[0];
  EXPECT_EQ(m.kind, MetricSnapshot::Kind::kHistogram);
  ASSERT_EQ(m.buckets.size(), Histogram::kBucketCount + 1);
  // Cumulative and monotone, with the +Inf bucket equal to the count.
  uint64_t previous = 0;
  for (const MetricSnapshot::Bucket& bucket : m.buckets) {
    EXPECT_GE(bucket.cumulative, previous);
    previous = bucket.cumulative;
  }
  EXPECT_FALSE(m.buckets.back().le.has_value());
  EXPECT_EQ(m.buckets.back().cumulative, m.count);
  EXPECT_EQ(m.buckets.front().cumulative, 1u);  // the 1e-6 observation
  EXPECT_EQ(m.count, 3u);
}

TEST(FormatMetricValueTest, IntegersRenderPlainAndFloatsRoundTrip) {
  EXPECT_EQ(FormatMetricValue(0.0), "0");
  EXPECT_EQ(FormatMetricValue(42.0), "42");
  EXPECT_EQ(FormatMetricValue(1e15), "1000000000000000");
  for (double value : {0.1, 1e-6, 1.0 / 3.0, -2.5, 6.103515625e-05}) {
    std::string text = FormatMetricValue(value);
    EXPECT_EQ(std::strtod(text.c_str(), nullptr), value) << text;
  }
}

// Parses Prometheus text exposition into {series signature -> value
// string}, skipping comment lines. The signature is the full
// `name{labels}` (or bare name) token.
std::map<std::string, std::string> ParsePrometheus(const std::string& text) {
  std::map<std::string, std::string> series;
  size_t pos = 0;
  while (pos < text.size()) {
    size_t end = text.find('\n', pos);
    if (end == std::string::npos) end = text.size();
    std::string line = text.substr(pos, end - pos);
    pos = end + 1;
    if (line.empty() || line[0] == '#') continue;
    size_t space = line.rfind(' ');
    EXPECT_NE(space, std::string::npos) << line;
    series[line.substr(0, space)] = line.substr(space + 1);
  }
  return series;
}

TEST(Exposition, PrometheusTextMatchesCollectExactly) {
  MetricRegistry registry;
  registry.GetCounter("jobs_total")->Add(7);
  registry.GetGauge("depth", "priority=\"batch\"")->Set(2.5);
  Histogram* h = registry.GetHistogram("wait_seconds");
  h->Observe(1.5e-6);
  h->Observe(0.25);

  std::map<std::string, std::string> series =
      ParsePrometheus(registry.PrometheusText());
  EXPECT_EQ(series.at("jobs_total"), "7");
  EXPECT_EQ(series.at("depth{priority=\"batch\"}"), FormatMetricValue(2.5));
  EXPECT_EQ(series.at("wait_seconds_count"), "2");
  EXPECT_EQ(series.at("wait_seconds_sum"), FormatMetricValue(0.25 + 1.5e-6));
  EXPECT_EQ(series.at("wait_seconds_max"), FormatMetricValue(0.25));
  EXPECT_EQ(series.at("wait_seconds_bucket{le=\"+Inf\"}"), "2");
  // Every cumulative bucket from Collect() appears verbatim in the text.
  std::vector<MetricSnapshot> collected = registry.Collect();
  for (const MetricSnapshot& m : collected) {
    if (m.kind != MetricSnapshot::Kind::kHistogram) continue;
    for (const MetricSnapshot::Bucket& bucket : m.buckets) {
      std::string le = bucket.le.has_value()
                           ? FormatMetricValue(*bucket.le)
                           : std::string("+Inf");
      EXPECT_EQ(series.at(m.name + "_bucket{le=\"" + le + "\"}"),
                std::to_string(bucket.cumulative));
    }
  }
}

TEST(Exposition, JsonSnapshotRendersTheSameNumbersAsText) {
  MetricRegistry registry;
  registry.GetCounter("jobs_total")->Add(11);
  registry.GetGauge("depth")->Set(0.1);
  Histogram* h = registry.GetHistogram("wait_seconds");
  h->Observe(0.125);  // exactly representable: sum is exact
  h->Observe(0.375);

  std::string json = registry.SnapshotJson();
  // Both formats share FormatMetricValue, so equivalence is textual.
  EXPECT_NE(json.find("\"name\":\"jobs_total\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"value\":11"), std::string::npos) << json;
  EXPECT_NE(json.find("\"value\":" + FormatMetricValue(0.1)),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("\"count\":2"), std::string::npos) << json;
  EXPECT_NE(json.find("\"sum\":" + FormatMetricValue(0.5)),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("\"max\":" + FormatMetricValue(0.375)),
            std::string::npos)
      << json;
}

TEST(Exposition, GlobalRegistryPublishesProcessMemoryGauges) {
  std::optional<MemorySample> sample = SampleProcessMemory();
  if (!sample.has_value()) GTEST_SKIP() << "/proc/self/status unavailable";
  EXPECT_GT(sample->rss_bytes, 0u);
  EXPECT_GE(sample->peak_rss_bytes, sample->rss_bytes);

  std::map<std::string, std::string> series =
      ParsePrometheus(MetricRegistry::Global().PrometheusText());
  EXPECT_EQ(series.count("marioh_process_rss_bytes"), 1u);
  EXPECT_EQ(series.count("marioh_process_peak_rss_bytes"), 1u);
  EXPECT_GT(std::strtod(series.at("marioh_process_rss_bytes").c_str(),
                        nullptr),
            0.0);
}

TEST(Trace, RingEvictsOldestFirstAtCapacity) {
  TraceRing ring(4);
  for (uint64_t i = 1; i <= 7; ++i) {
    SpanRecord span;
    span.id = i;
    span.name = std::to_string(i);
    ring.Record(std::move(span));
  }
  EXPECT_EQ(ring.capacity(), 4u);
  EXPECT_EQ(ring.size(), 4u);
  std::vector<SpanRecord> spans = ring.Snapshot();
  ASSERT_EQ(spans.size(), 4u);
  for (size_t i = 0; i < spans.size(); ++i) {
    EXPECT_EQ(spans[i].id, i + 4);  // 1..3 evicted, oldest (4) first
  }
  ring.Clear();
  EXPECT_EQ(ring.size(), 0u);
}

TEST(Trace, NestedSpansLinkChildToParent) {
  TraceRing ring(16);
  uint64_t parent_id = 0;
  uint64_t child_id = 0;
  {
    TraceSpan parent("job", "outer", &ring);
    parent_id = parent.id();
    EXPECT_NE(parent_id, 0u);
    {
      TraceSpan child("stage", "inner", &ring);
      child_id = child.id();
    }
  }
  std::vector<SpanRecord> spans = ring.Snapshot();
  ASSERT_EQ(spans.size(), 2u);
  // The child closes (and records) first.
  EXPECT_EQ(spans[0].id, child_id);
  EXPECT_EQ(spans[0].parent_id, parent_id);
  EXPECT_EQ(spans[0].name, "stage");
  EXPECT_EQ(spans[1].id, parent_id);
  EXPECT_EQ(spans[1].parent_id, 0u);
  EXPECT_GE(spans[1].duration_seconds, spans[0].duration_seconds);
  EXPECT_GE(spans[0].start_seconds, spans[1].start_seconds);
}

TEST(Trace, SiblingsShareTheParentRestoredBetweenThem) {
  TraceRing ring(16);
  uint64_t parent_id = 0;
  {
    TraceSpan parent("job", "", &ring);
    parent_id = parent.id();
    { TraceSpan first("stage", "a", &ring); }
    { TraceSpan second("stage", "b", &ring); }
  }
  std::vector<SpanRecord> spans = ring.Snapshot();
  ASSERT_EQ(spans.size(), 3u);
  EXPECT_EQ(spans[0].parent_id, parent_id);
  EXPECT_EQ(spans[1].parent_id, parent_id);
  EXPECT_EQ(spans[2].id, parent_id);
}

TEST(Disabled, EventTimeInstrumentsRecordNothing) {
  EnabledGuard guard(false);
  Histogram h;
  h.Observe(0.5);
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.sum(), 0.0);
  TraceRing ring(4);
  {
    TraceSpan span("job", "", &ring);
    EXPECT_EQ(span.id(), 0u);  // inert
  }
  EXPECT_EQ(ring.size(), 0u);
  // Counters and gauges still publish: collection hooks must keep
  // working so exposition stays truthful while event recording is off.
  MetricRegistry registry;
  registry.GetCounter("still_counts_total")->Increment();
  EXPECT_EQ(registry.GetCounter("still_counts_total")->value(), 1u);
}

// A reconstruction must be bit-identical with observability on and off:
// the obs hooks sit at stage/job granularity, never inside kernels, so
// disabling them cannot perturb results (and, by the same token, they
// cost the kernels nothing).
TEST(Disabled, ReconstructionIsBitIdenticalEitherWay) {
  auto run = [] {
    eval::PreparedDataset data = eval::PrepareDataset(
        "crime", /*multiplicity_reduced=*/true, /*seed=*/1);
    api::SessionOptions options;
    options.method = "MARIOH";
    api::Session session;
    EXPECT_TRUE(session.Configure(options).ok());
    EXPECT_TRUE(session.Train(*data.g_source, *data.source).ok());
    EXPECT_TRUE(session.Reconstruct(*data.g_target).ok());
    return std::make_pair(*session.reconstruction(),
                          session.Evaluate(*data.target));
  };
  EnabledGuard restore(true);  // re-enables even if an ASSERT bails out
  SetEnabled(true);
  auto enabled = run();
  SetEnabled(false);
  auto disabled = run();
  SetEnabled(true);
  ASSERT_TRUE(enabled.second.ok());
  ASSERT_TRUE(disabled.second.ok());
  EXPECT_EQ(enabled.first.UniqueEdges(), disabled.first.UniqueEdges());
  for (const NodeSet& edge : enabled.first.UniqueEdges()) {
    EXPECT_EQ(enabled.first.Multiplicity(edge),
              disabled.first.Multiplicity(edge));
  }
  // Exact float equality on purpose: same inputs, same arithmetic.
  EXPECT_EQ(enabled.second->jaccard, disabled.second->jaccard);
}

}  // namespace
}  // namespace marioh::obs
