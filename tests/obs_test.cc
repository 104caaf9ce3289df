#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <limits>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/check.h"
#include "common/parallel.h"
#include "obs/events.h"
#include "obs/flight_recorder.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/percentiles.h"
#include "obs/profiler.h"
#include "obs/statusz.h"
#include "obs/trace.h"

namespace hlm::obs {
namespace {

// ---------------------------------------------------------------- Counter

TEST(CounterTest, StartsAtZeroAndAccumulates) {
  Counter counter;
  EXPECT_EQ(counter.value(), 0);
  counter.Increment();
  counter.Increment(41);
  EXPECT_EQ(counter.value(), 42);
}

TEST(GaugeTest, LastWriteWins) {
  Gauge gauge;
  EXPECT_DOUBLE_EQ(gauge.value(), 0.0);
  gauge.Set(-1234.5);
  gauge.Set(7.25);
  EXPECT_DOUBLE_EQ(gauge.value(), 7.25);
}

// -------------------------------------------------------------- Histogram

TEST(HistogramTest, AggregatesCountSumMinMax) {
  Histogram histogram({1.0, 2.0, 4.0});
  histogram.Observe(0.5);
  histogram.Observe(3.0);
  histogram.Observe(10.0);
  HistogramSnapshot snapshot = histogram.Snapshot();
  EXPECT_EQ(snapshot.count, 3);
  EXPECT_DOUBLE_EQ(snapshot.sum, 13.5);
  EXPECT_DOUBLE_EQ(snapshot.min, 0.5);
  EXPECT_DOUBLE_EQ(snapshot.max, 10.0);
  EXPECT_DOUBLE_EQ(snapshot.Mean(), 4.5);
}

TEST(HistogramTest, BucketBoundariesAreInclusiveUpperBounds) {
  Histogram histogram({1.0, 2.0, 4.0});
  // A value lands in the first bucket whose bound is >= the value.
  histogram.Observe(0.5);  // bucket 0 (<= 1.0)
  histogram.Observe(1.0);  // bucket 0, boundary inclusive
  histogram.Observe(1.5);  // bucket 1
  histogram.Observe(2.0);  // bucket 1, boundary inclusive
  histogram.Observe(4.0);  // bucket 2
  histogram.Observe(4.5);  // overflow
  HistogramSnapshot snapshot = histogram.Snapshot();
  ASSERT_EQ(snapshot.bucket_counts.size(), 4u);
  EXPECT_EQ(snapshot.bucket_counts[0], 2);
  EXPECT_EQ(snapshot.bucket_counts[1], 2);
  EXPECT_EQ(snapshot.bucket_counts[2], 1);
  EXPECT_EQ(snapshot.bucket_counts[3], 1);
}

TEST(HistogramTest, EmptySnapshotHasZeroExtremes) {
  Histogram histogram({1.0});
  HistogramSnapshot snapshot = histogram.Snapshot();
  EXPECT_EQ(snapshot.count, 0);
  EXPECT_DOUBLE_EQ(snapshot.min, 0.0);
  EXPECT_DOUBLE_EQ(snapshot.max, 0.0);
}

TEST(HistogramTest, ExponentialBucketsAreLogSpaced) {
  std::vector<double> bounds = ExponentialBuckets(1e-3, 10.0, 4);
  ASSERT_EQ(bounds.size(), 4u);
  EXPECT_DOUBLE_EQ(bounds[0], 1e-3);
  EXPECT_DOUBLE_EQ(bounds[3], 1.0);
}

// --------------------------------------------------------------- Registry

TEST(MetricsRegistryTest, GetReturnsStablePointers) {
  MetricsRegistry registry;
  Counter* counter = registry.GetCounter("hlm.test.events_total");
  counter->Increment(3);
  EXPECT_EQ(registry.GetCounter("hlm.test.events_total"), counter);
  EXPECT_EQ(registry.GetCounter("hlm.test.events_total")->value(), 3);
  Histogram* histogram = registry.GetHistogram("hlm.test.wait_seconds");
  EXPECT_EQ(registry.GetHistogram("hlm.test.wait_seconds", {1.0}), histogram)
      << "existing name must win; new bounds ignored";
}

TEST(MetricsRegistryTest, SnapshotCapturesEveryKind) {
  MetricsRegistry registry;
  registry.GetCounter("hlm.test.sweeps_total")->Increment(7);
  registry.GetGauge("hlm.test.log_likelihood")->Set(-321.5);
  registry.GetHistogram("hlm.test.sweep_seconds", {0.1, 1.0})->Observe(0.05);
  MetricsSnapshot snapshot = registry.Snapshot();
  EXPECT_EQ(snapshot.counters.at("hlm.test.sweeps_total"), 7);
  EXPECT_DOUBLE_EQ(snapshot.gauges.at("hlm.test.log_likelihood"), -321.5);
  EXPECT_EQ(snapshot.histograms.at("hlm.test.sweep_seconds").count, 1);
}

TEST(MetricsRegistryTest, ConcurrentIncrementsAreLossless) {
  MetricsRegistry registry;
  Counter* counter = registry.GetCounter("hlm.test.concurrent_total");
  Histogram* histogram =
      registry.GetHistogram("hlm.test.concurrent_seconds", {0.5});
  constexpr int kThreads = 8;
  constexpr int kIterations = 10000;
  // Deliberate raw threads: this test hammers the registry from outside
  // the pool to prove its own locking.
  // hlm-lint: allow(no-raw-thread)
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&registry, counter, histogram]() {
      for (int i = 0; i < kIterations; ++i) {
        counter->Increment();
        histogram->Observe(i % 2 == 0 ? 0.25 : 0.75);
        // Concurrent registration of the same name must also be safe.
        registry.GetGauge("hlm.test.concurrent_gauge")->Set(1.0);
      }
    });
  }
  // hlm-lint: allow(no-raw-thread)
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(counter->value(), kThreads * kIterations);
  HistogramSnapshot snapshot = histogram->Snapshot();
  EXPECT_EQ(snapshot.count, kThreads * kIterations);
  EXPECT_EQ(snapshot.bucket_counts[0], kThreads * kIterations / 2);
  EXPECT_EQ(snapshot.bucket_counts[1], kThreads * kIterations / 2);
  EXPECT_DOUBLE_EQ(snapshot.min, 0.25);
  EXPECT_DOUBLE_EQ(snapshot.max, 0.75);
}

TEST(MetricsRegistryTest, ResetDropsEverything) {
  MetricsRegistry registry;
  registry.GetCounter("hlm.test.x_total")->Increment();
  registry.Reset();
  EXPECT_TRUE(registry.Snapshot().counters.empty());
  EXPECT_EQ(registry.GetCounter("hlm.test.x_total")->value(), 0);
}

// --------------------------------------------------------------- Snapshot

TEST(MetricsSnapshotTest, JsonRoundTrip) {
  MetricsRegistry registry;
  registry.SetMeta("threads", "4");
  registry.SetMeta("host \"quoted\"", "a\\b");  // exercises escaping
  registry.GetCounter("hlm.lda.sweeps_total")->Increment(152);
  registry.GetGauge("hlm.lda.log_likelihood")->Set(-9876.54321);
  Histogram* histogram =
      registry.GetHistogram("hlm.lda.gibbs_sweep_seconds", {0.001, 0.01});
  histogram->Observe(0.0005);
  histogram->Observe(0.005);
  histogram->Observe(0.5);
  MetricsSnapshot snapshot = registry.Snapshot();

  Result<MetricsSnapshot> parsed = MetricsSnapshot::FromJson(snapshot.ToJson());
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(parsed->meta, snapshot.meta);
  EXPECT_EQ(parsed->meta.at("threads"), "4");
  EXPECT_EQ(parsed->meta.at("host \"quoted\""), "a\\b");
  EXPECT_EQ(parsed->counters, snapshot.counters);
  ASSERT_EQ(parsed->gauges.size(), 1u);
  EXPECT_DOUBLE_EQ(parsed->gauges.at("hlm.lda.log_likelihood"),
                   -9876.54321);
  const HistogramSnapshot& h =
      parsed->histograms.at("hlm.lda.gibbs_sweep_seconds");
  EXPECT_EQ(h.count, 3);
  EXPECT_DOUBLE_EQ(h.sum, 0.5055);
  EXPECT_DOUBLE_EQ(h.min, 0.0005);
  EXPECT_DOUBLE_EQ(h.max, 0.5);
  EXPECT_EQ(h.bounds, std::vector<double>({0.001, 0.01}));
  EXPECT_EQ(h.bucket_counts, std::vector<long long>({1, 1, 1}));
}

TEST(MetricsSnapshotTest, EmptySnapshotRoundTrips) {
  MetricsSnapshot empty;
  Result<MetricsSnapshot> parsed = MetricsSnapshot::FromJson(empty.ToJson());
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_TRUE(parsed->counters.empty());
  EXPECT_TRUE(parsed->gauges.empty());
  EXPECT_TRUE(parsed->histograms.empty());
}

TEST(MetricsSnapshotTest, FromJsonRejectsGarbage) {
  EXPECT_FALSE(MetricsSnapshot::FromJson("not json").ok());
  EXPECT_FALSE(MetricsSnapshot::FromJson("{\"bogus\": {}}").ok());
  // Malformed and overflowing numbers are corrupt input, not a crash.
  for (const char* corrupt :
       {"{\"counters\": {\"x\": -}}", "{\"gauges\": {\"g\": 1e999}}",
        "{\"counters\": {\"x\": 1e300}}",
        "{\"counters\": {\"x\": 1.5}}"}) {
    Result<MetricsSnapshot> parsed = MetricsSnapshot::FromJson(corrupt);
    ASSERT_FALSE(parsed.ok()) << corrupt;
    EXPECT_EQ(parsed.status().code(), StatusCode::kDataLoss) << corrupt;
  }
}

TEST(MetricsSnapshotTest, TextExportNamesEveryMetric) {
  MetricsRegistry registry;
  registry.GetCounter("hlm.test.a_total")->Increment(5);
  registry.GetGauge("hlm.test.b")->Set(1.5);
  std::string text = registry.Snapshot().ToText();
  EXPECT_NE(text.find("hlm.test.a_total"), std::string::npos);
  EXPECT_NE(text.find("hlm.test.b"), std::string::npos);
}

// ------------------------------------------------------------ ScopedTimer

TEST(ScopedTimerTest, RecordsOnceIntoHistogram) {
  Histogram histogram({1e-9, 1.0, 100.0});
  {
    ScopedTimer timer(&histogram);
    double elapsed = timer.Stop();
    EXPECT_GE(elapsed, 0.0);
  }  // destructor after Stop must not double-record
  EXPECT_EQ(histogram.count(), 1);
  ScopedTimer noop(nullptr);  // null histogram is a no-op
  EXPECT_DOUBLE_EQ(noop.Stop(), 0.0);
}

// -------------------------------------------------------------- TraceSpan

class TraceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    TraceRecorder::Global().Clear();
    TraceRecorder::Global().Enable();
  }
  void TearDown() override {
    TraceRecorder::Global().Disable();
    TraceRecorder::Global().Clear();
  }
};

TEST_F(TraceTest, NestedSpansRecordParentage) {
  {
    TraceSpan outer("outer");
    EXPECT_EQ(TraceSpan::CurrentDepth(), 1);
    {
      TraceSpan middle("middle");
      TraceSpan inner("inner");
      EXPECT_EQ(TraceSpan::CurrentDepth(), 3);
      EXPECT_EQ(middle.parent_id(), outer.span_id());
      EXPECT_EQ(inner.parent_id(), middle.span_id());
      EXPECT_EQ(inner.depth(), 2);
    }
    TraceSpan sibling("sibling");
    EXPECT_EQ(sibling.parent_id(), outer.span_id());
  }
  EXPECT_EQ(TraceSpan::CurrentDepth(), 0);

  std::vector<TraceEvent> events = TraceRecorder::Global().Events();
  ASSERT_EQ(events.size(), 4u);  // closed innermost-first
  EXPECT_EQ(events[0].name, "inner");
  EXPECT_EQ(events[1].name, "middle");
  EXPECT_EQ(events[0].parent_id, events[1].span_id);
  EXPECT_EQ(events[3].name, "outer");
  EXPECT_EQ(events[3].parent_id, 0);
  EXPECT_EQ(events[3].depth, 0);
}

TEST_F(TraceTest, SpanFeedsHistogramAndChromeJson) {
  Histogram histogram({1e-9, 10.0});
  { TraceSpan span("timed", &histogram); }
  EXPECT_EQ(histogram.count(), 1);
  std::string json = TraceRecorder::Global().ToChromeJson();
  EXPECT_NE(json.find("\"name\": \"timed\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"X\""), std::string::npos);
}

TEST_F(TraceTest, DisabledSpansRecordNothingButStillTime) {
  TraceRecorder::Global().Disable();
  Histogram histogram({1e-9, 10.0});
  { TraceSpan span("quiet", &histogram); }
  EXPECT_TRUE(TraceRecorder::Global().Events().empty());
  EXPECT_EQ(histogram.count(), 1) << "histogram path works while disabled";
  EXPECT_EQ(TraceSpan::CurrentDepth(), 0);
}

TEST_F(TraceTest, WriteChromeTraceProducesAFile) {
  { TraceSpan span("filed"); }
  std::string path = ::testing::TempDir() + "/hlm_trace_test.json";
  ASSERT_TRUE(TraceRecorder::Global().WriteChromeTrace(path).ok());
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream buffer;
  buffer << in.rdbuf();
  EXPECT_NE(buffer.str().find("filed"), std::string::npos);
  std::remove(path.c_str());
}

// ------------------------------------------------------------ JSON quoting

TEST(JsonQuoteTest, EscapesQuotesBackslashesAndControlCharacters) {
  EXPECT_EQ(JsonQuote("plain"), "\"plain\"");
  EXPECT_EQ(JsonQuote("a\"b"), "\"a\\\"b\"");
  EXPECT_EQ(JsonQuote("a\\b"), "\"a\\\\b\"");
  EXPECT_EQ(JsonQuote("tab\there"), "\"tab\\there\"");
  EXPECT_EQ(JsonQuote("line\nbreak"), "\"line\\nbreak\"");
  EXPECT_EQ(JsonQuote(std::string("nul\x01") + "end"), "\"nul\\u0001end\"");
}

TEST(JsonQuoteTest, UnescapeInvertsQuoteForHostileNames) {
  const std::string hostile = "we\"ird\\name\nwith\tcontrol\x02s";
  std::string quoted = JsonQuote(hostile);
  // Strip the surrounding quotes, then the payload must decode back.
  ASSERT_GE(quoted.size(), 2u);
  EXPECT_EQ(JsonUnescape(quoted.substr(1, quoted.size() - 2)), hostile);
}

TEST(MetricsSnapshotTest, HostileMetricNamesSurviveJsonRoundTrip) {
  MetricsRegistry registry;
  const std::string name = "hlm.test.we\"ird\\name_total";
  registry.GetCounter(name)->Increment(3);
  registry.SetMeta("note", "line one\nline \"two\"");
  Result<MetricsSnapshot> parsed =
      MetricsSnapshot::FromJson(registry.Snapshot().ToJson());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  ASSERT_EQ(parsed->counters.count(name), 1u);
  EXPECT_EQ(parsed->counters.at(name), 3);
  EXPECT_EQ(parsed->meta.at("note"), "line one\nline \"two\"");
}

// ------------------------------------------------------------- Percentiles

TEST(PercentileTest, UniformSpreadInterpolatesInsideBuckets) {
  Histogram histogram({1.0, 2.0, 3.0, 4.0});
  for (double v : {0.5, 1.5, 2.5, 3.5, 4.5}) histogram.Observe(v);
  HistogramSnapshot snapshot = histogram.Snapshot();
  // rank 2.5 of 5 lands mid-bucket (2, 3].
  EXPECT_DOUBLE_EQ(Quantile(snapshot, 0.5), 2.5);
  // rank 4.5 lands mid-overflow, which spans last bound 4 .. max 4.5.
  EXPECT_DOUBLE_EQ(Quantile(snapshot, 0.9), 4.25);
  // The first bucket interpolates from the observed min, not from 0.
  EXPECT_DOUBLE_EQ(Quantile(snapshot, 0.2), 1.0);
  EXPECT_DOUBLE_EQ(Quantile(snapshot, 1.0), 4.5);
}

TEST(PercentileTest, SkewedMassClampsTailToObservedMax) {
  Histogram histogram({1.0, 2.0});
  for (int i = 0; i < 10; ++i) histogram.Observe(0.5);
  histogram.Observe(1.5);
  HistogramSnapshot snapshot = histogram.Snapshot();
  // rank 5.5 of 11, all in bucket (min 0.5, 1].
  EXPECT_DOUBLE_EQ(Quantile(snapshot, 0.5), 0.775);
  // The p99 interpolation inside (1, 2] would give 1.89, but nothing
  // above the observed max 1.5 was ever seen.
  EXPECT_DOUBLE_EQ(Quantile(snapshot, 0.99), 1.5);
}

TEST(PercentileTest, SingleBucketStaysWithinObservedRange) {
  Histogram histogram({10.0});
  histogram.Observe(2.0);
  histogram.Observe(4.0);
  HistogramSnapshot snapshot = histogram.Snapshot();
  // One wide bucket gives no resolution; the clamp to [min, max] is
  // what keeps the estimate honest.
  double p50 = Quantile(snapshot, 0.5);
  EXPECT_GE(p50, 2.0);
  EXPECT_LE(p50, 4.0);
  EXPECT_DOUBLE_EQ(Quantile(snapshot, 0.99), 4.0);
}

TEST(PercentileTest, EmptyHistogramIsAllZero) {
  Histogram histogram({1.0, 2.0});
  PercentileSummary summary = SummarizePercentiles(histogram.Snapshot());
  EXPECT_DOUBLE_EQ(summary.p50, 0.0);
  EXPECT_DOUBLE_EQ(summary.p90, 0.0);
  EXPECT_DOUBLE_EQ(summary.p99, 0.0);
  EXPECT_DOUBLE_EQ(summary.max, 0.0);
}

TEST(PercentileTest, OverflowOnlyHistogramUsesLastBoundToMax) {
  Histogram histogram({1.0});
  for (double v : {5.0, 7.0, 9.0}) histogram.Observe(v);
  HistogramSnapshot snapshot = histogram.Snapshot();
  // Overflow spans last bound 1 .. max 9; clamped below by min 5.
  EXPECT_DOUBLE_EQ(Quantile(snapshot, 0.5), 5.0);
  EXPECT_DOUBLE_EQ(Quantile(snapshot, 0.99), 8.92);
}

TEST(PercentileTest, MissingBucketLayoutFallsBackToMax) {
  // FromJson of a foreign document may produce count/min/max without a
  // bucket layout; max is the only defensible estimate then.
  HistogramSnapshot snapshot;
  snapshot.count = 3;
  snapshot.min = 1.0;
  snapshot.max = 7.0;
  EXPECT_DOUBLE_EQ(Quantile(snapshot, 0.5), 7.0);
}

TEST(PercentileTest, QuantileArgumentIsClamped) {
  Histogram histogram({1.0});
  histogram.Observe(0.5);
  HistogramSnapshot snapshot = histogram.Snapshot();
  EXPECT_DOUBLE_EQ(Quantile(snapshot, -3.0), Quantile(snapshot, 0.0));
  EXPECT_DOUBLE_EQ(Quantile(snapshot, 3.0), Quantile(snapshot, 1.0));
}

TEST(MetricsSnapshotTest, ExportsCarryDerivedPercentiles) {
  MetricsRegistry registry;
  Histogram* histogram = registry.GetHistogram("hlm.test.export_seconds");
  histogram->Observe(0.25);
  MetricsSnapshot snapshot = registry.Snapshot();
  std::string json = snapshot.ToJson();
  EXPECT_NE(json.find("\"p50\":"), std::string::npos);
  EXPECT_NE(json.find("\"p90\":"), std::string::npos);
  EXPECT_NE(json.find("\"p99\":"), std::string::npos);
  EXPECT_NE(snapshot.ToText().find("p99="), std::string::npos);
  // The self-parser must keep round-tripping now that ToJson emits the
  // derived keys (it skips unknown numeric histogram fields).
  Result<MetricsSnapshot> parsed = MetricsSnapshot::FromJson(json);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->histograms.at("hlm.test.export_seconds").count, 1);
}

// ---------------------------------------------------------------- Profiler

TEST(ProfilerTest, ResourceSamplesAreMonotonic) {
  ResourceSample first = SampleResources();
  // Burn a little CPU so the second reading has something to exceed.
  volatile double sink = 0.0;
  for (int i = 0; i < 2000000; ++i) sink = sink + static_cast<double>(i) * 1e-9;
  ResourceSample second = SampleResources();
  EXPECT_GE(second.user_cpu_seconds + second.system_cpu_seconds,
            first.user_cpu_seconds + first.system_cpu_seconds);
  EXPECT_GE(second.peak_rss_kb, first.peak_rss_kb);
  EXPECT_GE(second.voluntary_ctx_switches, first.voluntary_ctx_switches);
  EXPECT_GE(second.involuntary_ctx_switches, first.involuntary_ctx_switches);
}

TEST(ProfilerTest, ScopedPhaseRecordsNonNegativeDeltas) {
  ResourceProfiler profiler;
  {
    ScopedResourcePhase phase("work", &profiler);
    volatile double sink = 0.0;
    for (int i = 0; i < 1000000; ++i) sink = sink + static_cast<double>(i);
  }
  std::map<std::string, PhaseResources> phases = profiler.Phases();
  ASSERT_EQ(phases.count("work"), 1u);
  const PhaseResources& work = phases.at("work");
  EXPECT_GT(work.wall_seconds, 0.0);
  EXPECT_GE(work.user_cpu_seconds, 0.0);
  EXPECT_GE(work.system_cpu_seconds, 0.0);
  EXPECT_GE(work.peak_rss_delta_kb, 0);
  EXPECT_GE(work.voluntary_ctx_switches, 0);
  EXPECT_GE(work.involuntary_ctx_switches, 0);
  EXPECT_LE(work.user_cpu_seconds + work.system_cpu_seconds,
            work.wall_seconds * 64 + 1.0)
      << "CPU delta wildly exceeds wall time";
}

TEST(ProfilerTest, RepeatedPhasesAccumulate) {
  ResourceProfiler profiler;
  { ScopedResourcePhase phase("loop", &profiler); }
  double once = profiler.Phases().at("loop").wall_seconds;
  { ScopedResourcePhase phase("loop", &profiler); }
  EXPECT_GE(profiler.Phases().at("loop").wall_seconds, once);
  profiler.Clear();
  EXPECT_TRUE(profiler.Phases().empty());
}

TEST(ProfilerTest, AttachToPublishesPhaseMeta) {
  ResourceProfiler profiler;
  { ScopedResourcePhase phase("attach_demo", &profiler); }
  MetricsRegistry registry;
  profiler.AttachTo(&registry);
  MetricsSnapshot snapshot = registry.Snapshot();
  for (const char* field :
       {"wall_seconds", "user_cpu_seconds", "system_cpu_seconds",
        "peak_rss_kb", "current_rss_kb", "peak_rss_delta_kb",
        "voluntary_ctx_switches", "involuntary_ctx_switches"}) {
    EXPECT_EQ(snapshot.meta.count(std::string("profile.attach_demo.") +
                                  field),
              1u)
        << field;
  }
}

// ------------------------------------------------------------------ Run id

TEST(RunIdTest, DeterministicAndComponentSensitive) {
  std::string id = ComputeRunId({"hlm_bench", "42", "300", "4"});
  EXPECT_EQ(id.size(), 16u);
  EXPECT_EQ(id.find_first_not_of("0123456789abcdef"), std::string::npos);
  EXPECT_EQ(id, ComputeRunId({"hlm_bench", "42", "300", "4"}));
  EXPECT_NE(id, ComputeRunId({"hlm_bench", "42", "300", "8"}));
  // The separator keeps component boundaries significant.
  EXPECT_NE(ComputeRunId({"ab", "c"}), ComputeRunId({"a", "bc"}));
  EXPECT_NE(ComputeRunId({}), ComputeRunId({""}));
}

TEST_F(TraceTest, RunIdSwitchesExportToObjectFormat) {
  TraceRecorder& recorder = TraceRecorder::Global();
  { TraceSpan span("tagged"); }
  std::string bare = recorder.ToChromeJson();
  EXPECT_EQ(bare.front(), '[') << "no run id -> historical bare array";
  recorder.SetRunId("deadbeefdeadbeef");
  std::string tagged = recorder.ToChromeJson();
  EXPECT_EQ(tagged.front(), '{');
  EXPECT_NE(tagged.find("\"otherData\""), std::string::npos);
  EXPECT_NE(tagged.find("\"run_id\": \"deadbeefdeadbeef\""),
            std::string::npos);
  EXPECT_NE(tagged.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(tagged.find("\"name\": \"tagged\""), std::string::npos);
  // Survives Clear: the run identity outlives one batch of spans.
  recorder.Clear();
  EXPECT_EQ(recorder.run_id(), "deadbeefdeadbeef");
  recorder.SetRunId("");
  EXPECT_EQ(recorder.ToChromeJson().front(), '[');
}

TEST_F(TraceTest, HostileSpanNamesAreEscapedInChromeJson) {
  { TraceSpan span("we\"ird\\span\nname"); }
  std::string json = TraceRecorder::Global().ToChromeJson();
  EXPECT_NE(json.find("we\\\"ird\\\\span\\nname"), std::string::npos);
  // The raw quote byte must never appear unescaped inside the name.
  EXPECT_EQ(json.find("we\"ird"), std::string::npos);
}

// ----------------------------------------------------------- Wide events

TEST(EventLogTest, EmitStampsContextAndBuffersInOrder) {
  EventLog log;
  log.Emit(EventLevel::kInfo, "test.first", {{"sweep", 3}, {"ok", true}});
  log.Emit(EventLevel::kError, "test.second",
           {{"loglik", -1.5}, {"model", "lda"}});
  std::vector<Event> events = log.Events();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].name, "test.first");
  EXPECT_EQ(events[1].level, EventLevel::kError);
  EXPECT_GT(events[0].thread_id, 0u);
  EXPECT_LE(events[0].ts_us, events[1].ts_us);

  std::string line = events[1].ToJsonLine();
  EXPECT_EQ(line.find("{\"ts_us\": "), 0u);
  EXPECT_NE(line.find("\"level\": \"error\""), std::string::npos);
  EXPECT_NE(line.find("\"name\": \"test.second\""), std::string::npos);
  EXPECT_NE(line.find("\"loglik\": -1.5"), std::string::npos);
  EXPECT_NE(line.find("\"model\": \"lda\""), std::string::npos);
  EXPECT_EQ(line.find('\n'), std::string::npos) << "one line per event";
}

TEST(EventLogTest, MinLevelGateAndDisableDropBeforeConstruction) {
  EventLog log;
  log.SetMinLevel(EventLevel::kWarning);
  EXPECT_FALSE(log.ShouldEmit(EventLevel::kInfo));
  EXPECT_TRUE(log.ShouldEmit(EventLevel::kError));
  log.Emit(EventLevel::kWarning, "test.kept");
  EXPECT_EQ(log.Events().size(), 1u);
  log.Disable();
  EXPECT_FALSE(log.ShouldEmit(EventLevel::kError));
}

TEST(EventLogTest, PerNameSamplingKeepsEveryNth) {
  EventLog log;
  log.SetSampleEvery(3);
  for (int i = 0; i < 7; ++i) {
    log.Emit(EventLevel::kInfo, "test.chatty", {{"i", i}});
  }
  // Ordinals 0, 3, 6 survive; a rare name is untouched by the chatty
  // name's counter.
  log.Emit(EventLevel::kInfo, "test.rare");
  std::vector<Event> events = log.Events();
  ASSERT_EQ(events.size(), 4u);
  EXPECT_EQ(events[3].name, "test.rare");
}

TEST(EventLogTest, NameCardinalityOverflowCollapses) {
  EventLog log;
  for (size_t i = 0; i < EventLog::kMaxNames + 5; ++i) {
    log.Emit(EventLevel::kInfo, "test.name." + std::to_string(i));
  }
  std::vector<Event> events = log.Events();
  ASSERT_EQ(events.size(), EventLog::kMaxNames + 5);
  for (size_t i = 0; i < 5; ++i) {
    EXPECT_EQ(events[EventLog::kMaxNames + i].name, "obs.events.overflow");
  }
}

TEST(EventLogTest, WriteJsonlEmitsOneParseableLinePerEvent) {
  EventLog log;
  log.Emit(EventLevel::kInfo, "test.a", {{"k", 1}});
  log.Emit(EventLevel::kWarning, "test.we\"ird\nname", {{"v", 2.5}});
  std::string path = ::testing::TempDir() + "/events_test.jsonl";
  ASSERT_TRUE(log.WriteJsonl(path).ok());
  std::ifstream in(path);
  std::string line;
  int lines = 0;
  while (std::getline(in, line)) {
    EXPECT_EQ(line.front(), '{');
    EXPECT_EQ(line.back(), '}');
    for (const char* key : {"\"ts_us\"", "\"level\"", "\"name\"",
                            "\"tid\"", "\"span_id\"", "\"attrs\""}) {
      EXPECT_NE(line.find(key), std::string::npos) << key << " in " << line;
    }
    ++lines;
  }
  EXPECT_EQ(lines, 2);
  std::remove(path.c_str());
}

// The statusz `render --events` path: every field an events-JSONL line
// carries reads back exactly, including escaped control characters and
// quotes and a full 63-bit span id.
TEST(EventLogTest, JsonlLinesReadBackFieldByField) {
  EventLog log;
  TraceRecorder::Global().Clear();
  TraceRecorder::Global().Enable();
  {
    TraceSpan span("test.readback");
    log.Emit(EventLevel::kWarning, "a\tb \"q\" \\ \x01z",
             {{"s", std::string("ctl\x01\x1f\n\"q\"\\")},
              {"i", -42},
              {"d", 0.1},
              {"b", true}});
  }
  log.Emit(EventLevel::kError, "plain", {{"zeta", "x"}, {"alpha", "y\tz"}});
  TraceRecorder::Global().Disable();
  TraceRecorder::Global().Clear();
  const std::vector<Event> originals = log.Events();
  ASSERT_EQ(originals.size(), 2u);
  ASSERT_NE(originals[0].span_id, 0);

  const std::string path = ::testing::TempDir() + "/events_readback.jsonl";
  ASSERT_TRUE(log.WriteJsonl(path).ok());
  std::ifstream in(path);
  std::string line;
  size_t i = 0;
  for (; std::getline(in, line); ++i) {
    ASSERT_LT(i, originals.size());
    Result<Event> back = Event::FromJsonLine(line);
    ASSERT_TRUE(back.ok()) << back.status() << " in " << line;
    const Event& want = originals[i];
    EXPECT_EQ(back->ts_us, want.ts_us);
    EXPECT_EQ(back->level, want.level);
    EXPECT_EQ(back->name, want.name);
    EXPECT_EQ(back->thread_id, want.thread_id % 1000000)
        << "lines carry the short tid the trace export uses";
    EXPECT_EQ(back->span_id, want.span_id);
    // JSON objects are unordered: compare attrs as key -> JSON token.
    std::map<std::string, std::string> want_attrs, got_attrs;
    for (const auto& [key, value] : want.attrs) {
      want_attrs[key] = value.ToJson();
    }
    for (const auto& [key, value] : back->attrs) {
      got_attrs[key] = value.ToJson();
    }
    EXPECT_EQ(got_attrs, want_attrs);
  }
  EXPECT_EQ(i, originals.size());
  std::remove(path.c_str());

  EXPECT_FALSE(Event::FromJsonLine("{\"name\": \"torn").ok());
  EXPECT_FALSE(Event::FromJsonLine("[1, 2]").ok());
}

TEST(EventLogTest, MacroGatesAndCapturesCurrentSpan) {
  EventLog& log = EventLog::Global();
  log.Clear();
  log.SetMinLevel(EventLevel::kInfo);
  TraceRecorder::Global().Clear();
  TraceRecorder::Global().Enable();
  int64_t span_id = 0;
  {
    TraceSpan span("test.scope");
    span_id = span.span_id();
    HLM_EVENT("test.inside", {{"step", 1}});
    HLM_EVENT_AT(EventLevel::kDebug, "test.gated");  // below min level
  }
  HLM_EVENT("test.outside");
  TraceRecorder::Global().Disable();
  TraceRecorder::Global().Clear();

  std::vector<Event> events = log.Events();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].name, "test.inside");
  EXPECT_EQ(events[0].span_id, span_id) << "event joins the open span";
  EXPECT_EQ(events[1].span_id, 0) << "no open span -> 0";
  log.Clear();
}

TEST(EventValueTest, SerializesEachKindAsBareJson) {
  EXPECT_EQ(EventValue(true).ToJson(), "true");
  EXPECT_EQ(EventValue(42).ToJson(), "42");
  EXPECT_EQ(EventValue(-1.5).ToJson(), "-1.5");
  EXPECT_EQ(EventValue("s").ToJson(), "\"s\"");
  EXPECT_EQ(EventValue(std::string("a\"b")).ToJson(), "\"a\\\"b\"");
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_EQ(EventValue(inf).ToJson(), "null") << "JSON has no inf";
}

// ------------------------------------------------------- Flight recorder

Event MakeEntry(uint64_t tid, const std::string& name) {
  Event entry;
  entry.ts_us = NowMicros();
  entry.name = name;
  entry.thread_id = tid;
  return entry;
}

TEST(FlightRecorderTest, TailMergesStripesInAdmissionOrder) {
  FlightRecorder recorder;
  // Interleave across stripes (tid picks the stripe).
  for (int i = 0; i < 20; ++i) {
    recorder.Record(MakeEntry(static_cast<uint64_t>(i),
                              "test.entry." + std::to_string(i)));
  }
  std::vector<Event> tail = recorder.Tail(5);
  ASSERT_EQ(tail.size(), 5u);
  for (size_t i = 0; i < 5; ++i) {
    EXPECT_EQ(tail[i].name, "test.entry." + std::to_string(15 + i))
        << "newest five, oldest first";
    if (i > 0) {
      EXPECT_GT(tail[i].seq, tail[i - 1].seq);
    }
  }
}

TEST(FlightRecorderTest, RingOverwritesOldestWithinAStripe) {
  FlightRecorder recorder;
  // One stripe (fixed tid): capacity kPerStripe, 2x that recorded.
  const size_t n = FlightRecorder::kPerStripe * 2;
  for (size_t i = 0; i < n; ++i) {
    recorder.Record(MakeEntry(3, "test.ring." + std::to_string(i)));
  }
  std::vector<Event> tail = recorder.Tail(n);
  ASSERT_EQ(tail.size(), FlightRecorder::kPerStripe);
  EXPECT_EQ(tail.front().name,
            "test.ring." + std::to_string(FlightRecorder::kPerStripe));
  EXPECT_EQ(tail.back().name, "test.ring." + std::to_string(n - 1));
}

TEST(FlightRecorderTest, ToJsonCarriesRunIdEntriesAndDetail) {
  FlightRecorder recorder;
  Event entry = MakeEntry(1, "test.detail");
  entry.attrs.emplace_back("sweep", 3);
  recorder.Record(entry);
  recorder.Record(MakeEntry(2, "test.plain"));  // no attrs
  std::string json = recorder.ToJson();
  EXPECT_NE(json.find("\"run_id\""), std::string::npos);
  EXPECT_NE(json.find("\"attrs\": {\"sweep\": 3}"), std::string::npos);
  EXPECT_NE(json.find("\"attrs\": {}"), std::string::npos)
      << "empty attrs must render as an object, not vanish";
  // Every entry is an events-JSONL line plus its admission seq.
  Result<JsonValue> doc = JsonValue::Parse(json);
  ASSERT_TRUE(doc.ok()) << doc.status();
  const JsonValue* entries = doc->Find("entries");
  ASSERT_NE(entries, nullptr);
  ASSERT_EQ(entries->size(), 2u);
  for (const JsonValue& item : entries->array()) {
    for (const char* key :
         {"seq", "ts_us", "level", "name", "tid", "span_id", "attrs"}) {
      EXPECT_NE(item.Find(key), nullptr) << key;
    }
  }
  EXPECT_EQ(entries->At(1)->Find("name")->AsString(), "test.plain");
}

TEST(FlightRecorderTest, GlobalSeesEventsAndSpanCloses) {
  FlightRecorder& recorder = FlightRecorder::Global();
  recorder.Clear();
  TraceRecorder::Global().Clear();
  TraceRecorder::Global().Enable();
  EventLog::Global().Clear();
  { TraceSpan span("test.flight.span"); }
  HLM_EVENT("test.flight.event", {{"n", 1}});
  TraceRecorder::Global().Disable();
  TraceRecorder::Global().Clear();

  bool saw_span = false, saw_event = false;
  for (const Event& entry : recorder.Tail(16)) {
    if (entry.name == "test.flight.span") {
      saw_span = true;
      EXPECT_EQ(entry.level, EventLevel::kSpan);
      ASSERT_EQ(entry.attrs.size(), 3u);
      EXPECT_EQ(entry.attrs[0].first, "duration_us");
      EXPECT_NE(entry.ToJsonLine().find("\"level\": \"span\""),
                std::string::npos);
    }
    if (entry.name == "test.flight.event") {
      saw_event = true;
      EXPECT_EQ(entry.level, EventLevel::kInfo);
    }
  }
  EXPECT_TRUE(saw_span);
  EXPECT_TRUE(saw_event);
  EventLog::Global().Clear();
  recorder.Clear();
}

// The acceptance-critical crash path: a failed HLM_CHECK must leave a
// parseable hlm-crash-<run_id>.json behind before aborting.
TEST(FlightRecorderDeathTest, CheckFailureDumpsFlightRecorder) {
  const std::string dir = ::testing::TempDir();
  const std::string dump = dir + "/hlm-crash-obsdeath.json";
  std::remove(dump.c_str());
  TraceRecorder::Global().SetRunId("obsdeath");
  SetCrashDumpDir(dir);
  InstallCrashHandler();
  HLM_EVENT("test.death.before", {{"armed", true}});
  EXPECT_DEATH({ HLM_CHECK(1 == 2) << "deliberate"; }, "deliberate");

  // The child process wrote the dump before aborting.
  std::ifstream in(dump);
  ASSERT_TRUE(in.good()) << "missing crash dump " << dump;
  std::stringstream buffer;
  buffer << in.rdbuf();
  const std::string json = buffer.str();
  EXPECT_EQ(json.front(), '{');
  EXPECT_NE(json.find("\"run_id\": \"obsdeath\""), std::string::npos);
  EXPECT_NE(json.find("\"entries\""), std::string::npos);
  EXPECT_NE(json.find("test.death.before"), std::string::npos);
  std::remove(dump.c_str());
  TraceRecorder::Global().SetRunId("");
  SetCrashDumpDir(".");
}

// ----------------------------------------------------------------- Statusz

TEST(StatuszTest, LiveTextNamesEverySection) {
  MetricsRegistry::Global().GetCounter("hlm.statusz.test_total")
      ->Increment(4);
  MetricsRegistry::Global()
      .GetHistogram("hlm.statusz.test_seconds")
      ->Observe(0.125);
  std::string text = StatuszText();
  for (const char* section :
       {"==== hlm statusz ====", "-- counters --", "-- gauges --",
        "-- latency percentiles --", "-- open spans",
        "-- flight recorder tail"}) {
    EXPECT_NE(text.find(section), std::string::npos) << section;
  }
  EXPECT_NE(text.find("hlm.statusz.test_total"), std::string::npos);
  EXPECT_NE(text.find("hlm.statusz.test_seconds"), std::string::npos);
  EXPECT_NE(text.find("name count p50 p90 p99 max"), std::string::npos);
}

TEST(StatuszTest, LiveJsonEmbedsMetricsAndShowsOpenSpans) {
  TraceRecorder::Global().Clear();
  TraceRecorder::Global().Enable();
  TraceSpan open_span("test.statusz.open");
  std::string json = StatuszJson();
  EXPECT_EQ(json.front(), '{');
  EXPECT_NE(json.find("\"metrics\""), std::string::npos);
  EXPECT_NE(json.find("\"percentiles\""), std::string::npos);
  EXPECT_NE(json.find("\"open_spans\""), std::string::npos);
  EXPECT_NE(json.find("\"flight_tail\""), std::string::npos);
  EXPECT_NE(json.find("test.statusz.open"), std::string::npos)
      << "the still-open span must be visible";
  std::string text = StatuszText();
  EXPECT_NE(text.find("test.statusz.open"), std::string::npos);
}

TEST(StatuszTest, RenderersWorkFromDetachedParts) {
  MetricsRegistry registry;
  registry.GetCounter("hlm.render.x_total")->Increment(9);
  OpenSpanInfo open;
  open.span_id = 42;
  open.name = "test.render.span";
  Event entry;
  entry.name = "test.render.event";
  std::string text =
      RenderStatuszText(registry.Snapshot(), {open}, {entry}, {});
  EXPECT_NE(text.find("hlm.render.x_total"), std::string::npos);
  EXPECT_NE(text.find("test.render.span"), std::string::npos);
  EXPECT_NE(text.find("test.render.event"), std::string::npos);
  std::string json =
      RenderStatuszJson(registry.Snapshot(), {open}, {entry}, {});
  EXPECT_NE(json.find("\"hlm.render.x_total\": 9"), std::string::npos);
}

// ------------------------------------------- thread names in trace export

TEST_F(TraceTest, ChromeJsonEmitsThreadNameMetadataFirst) {
  SetCurrentThreadName("hlm-test-main");
  { TraceSpan span("test.named"); }
  std::string json = TraceRecorder::Global().ToChromeJson();
  size_t meta = json.find("\"ph\": \"M\"");
  size_t complete = json.find("\"ph\": \"X\"");
  ASSERT_NE(meta, std::string::npos);
  ASSERT_NE(complete, std::string::npos);
  EXPECT_LT(meta, complete) << "metadata must precede duration events";
  EXPECT_NE(json.find("\"thread_name\""), std::string::npos);
  EXPECT_NE(json.find("\"name\": \"hlm-test-main\""),
            std::string::npos);
}

// ------------------------------------------------- deterministic span ids

TEST_F(TraceTest, SpanIdsReplayAfterClear) {
  auto run = []() {
    TraceRecorder::Global().Clear();
    std::vector<int64_t> ids;
    {
      TraceSpan a("replay.a");
      ids.push_back(a.span_id());
      {
        TraceSpan b("replay.b");
        ids.push_back(b.span_id());
      }
      TraceSpan c("replay.c");
      ids.push_back(c.span_id());
    }
    TraceSpan d("replay.d");
    ids.push_back(d.span_id());
    return ids;
  };
  std::vector<int64_t> first = run();
  std::vector<int64_t> second = run();
  EXPECT_EQ(first, second) << "Clear() must reset the replay state";
  // Same name under different parents/ordinals -> different ids.
  std::set<int64_t> unique(first.begin(), first.end());
  EXPECT_EQ(unique.size(), first.size());
}

// S5: metrics + events + spans hammered from a traced parallel region.
// The TSan tier-1 stage runs this binary, so data races here fail CI.
TEST_F(TraceTest, ConcurrentMetricsEventsAndSpansAreSafe) {
  EventLog::Global().Clear();
  SetNumThreads(4);
  Counter* counter =
      MetricsRegistry::Global().GetCounter("hlm.hammer.items_total");
  long long before = counter->value();
  {
    TraceSpan root("hammer.root");
    ParallelFor(0, 256, /*grain=*/1, [&](size_t i) {
      TraceSpan item("hammer.item");
      counter->Increment();
      if (i % 16 == 0) {
        HLM_EVENT("hammer.event", {{"i", static_cast<long long>(i)}});
      }
    });
  }
  SetNumThreads(0);
  EXPECT_EQ(counter->value(), before + 256);
  EXPECT_EQ(TraceRecorder::Global().Events().size(), 257u);
  size_t hammer_events = 0;
  for (const Event& event : EventLog::Global().Events()) {
    if (event.name == "hammer.event") ++hammer_events;
  }
  EXPECT_EQ(hammer_events, 16u);
  EventLog::Global().Clear();
}

}  // namespace
}  // namespace hlm::obs
