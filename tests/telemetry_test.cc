// Tests for the live-telemetry substrate: the time-series delta ring
// (obs/timeseries.h), the Prometheus text exposition renderer +
// validator (obs/exposition.h), and the generic JSON document parser
// (obs/json.h) that hlm_statusz top uses to consume /statusz. The
// collector tests drive synthetic timestamps through Record() directly,
// so they are fully deterministic — no sleeping, no wall clock.

#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <vector>

#include "obs/exposition.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/percentiles.h"
#include "obs/timeseries.h"

namespace hlm::obs {
namespace {

MetricsSnapshot SnapshotWithCounter(const std::string& name,
                                    long long value) {
  MetricsSnapshot snapshot;
  snapshot.counters[name] = value;
  return snapshot;
}

HistogramSnapshot MakeHistogram(std::vector<double> bounds,
                                std::vector<long long> buckets,
                                double sum) {
  HistogramSnapshot h;
  h.bounds = std::move(bounds);
  h.bucket_counts = std::move(buckets);
  for (long long c : h.bucket_counts) h.count += c;
  h.sum = sum;
  if (h.count > 0) {
    h.min = 0.0;
    h.max = h.bounds.empty() ? 0.0 : h.bounds.back();
  }
  return h;
}

TEST(TimeSeriesTest, FirstRecordOnlyEstablishesBaseline) {
  TimeSeriesCollector collector({1.0, 4});
  EXPECT_FALSE(collector.Record(10.0, SnapshotWithCounter("hlm.x_total", 5)));
  WindowSummary summary = collector.Summarize(10.0, 60.0);
  EXPECT_TRUE(summary.empty());
  EXPECT_EQ(summary.counter_deltas.size(), 0u);
}

TEST(TimeSeriesTest, ShouldRecordRespectsBucketWidth) {
  TimeSeriesCollector collector({1.0, 4});
  EXPECT_TRUE(collector.ShouldRecord(0.0));  // baseline always admitted
  collector.Record(0.0, {});
  EXPECT_FALSE(collector.ShouldRecord(0.5));
  EXPECT_FALSE(collector.Record(0.5, SnapshotWithCounter("hlm.x_total", 1)));
  EXPECT_TRUE(collector.ShouldRecord(1.0));
  EXPECT_TRUE(collector.Record(1.0, SnapshotWithCounter("hlm.x_total", 1)));
}

TEST(TimeSeriesTest, CounterDeltasAndRates) {
  TimeSeriesCollector collector({1.0, 8});
  collector.Record(0.0, SnapshotWithCounter("hlm.req_total", 100));
  collector.Record(1.0, SnapshotWithCounter("hlm.req_total", 110));
  collector.Record(2.0, SnapshotWithCounter("hlm.req_total", 140));

  WindowSummary summary = collector.Summarize(2.0, 60.0);
  EXPECT_FALSE(summary.empty());
  EXPECT_DOUBLE_EQ(summary.covered_s, 2.0);
  EXPECT_EQ(summary.counter_deltas.at("hlm.req_total"), 40);
  EXPECT_DOUBLE_EQ(summary.Rate("hlm.req_total"), 20.0);
  EXPECT_DOUBLE_EQ(summary.Rate("hlm.absent_total"), 0.0);

  // A narrower window sees only the newest bucket.
  WindowSummary narrow = collector.Summarize(2.0, 1.0);
  EXPECT_DOUBLE_EQ(narrow.covered_s, 1.0);
  EXPECT_EQ(narrow.counter_deltas.at("hlm.req_total"), 30);
  EXPECT_DOUBLE_EQ(narrow.Rate("hlm.req_total"), 30.0);
}

TEST(TimeSeriesTest, RingEvictsBeyondCapacity) {
  TimeSeriesCollector collector({1.0, 2});  // keeps only 2 delta buckets
  collector.Record(0.0, SnapshotWithCounter("hlm.req_total", 0));
  collector.Record(1.0, SnapshotWithCounter("hlm.req_total", 1));
  collector.Record(2.0, SnapshotWithCounter("hlm.req_total", 3));
  collector.Record(3.0, SnapshotWithCounter("hlm.req_total", 7));

  // The 0→1 bucket fell off the ring: only 1→3 and 3→7 remain.
  WindowSummary summary = collector.Summarize(3.0, 100.0);
  EXPECT_DOUBLE_EQ(summary.covered_s, 2.0);
  EXPECT_EQ(summary.counter_deltas.at("hlm.req_total"), 6);
}

TEST(TimeSeriesTest, CounterResetRestartsFromZero) {
  TimeSeriesCollector collector({1.0, 8});
  collector.Record(0.0, SnapshotWithCounter("hlm.req_total", 50));
  // Registry reset: cumulative value went backwards. The new cumulative
  // value counts as the whole delta rather than a negative delta.
  collector.Record(1.0, SnapshotWithCounter("hlm.req_total", 3));
  WindowSummary summary = collector.Summarize(1.0, 60.0);
  EXPECT_EQ(summary.counter_deltas.at("hlm.req_total"), 3);
}

TEST(TimeSeriesTest, UnchangedCountersStayOutOfTheSummary) {
  TimeSeriesCollector collector({1.0, 8});
  MetricsSnapshot snapshot;
  snapshot.counters["hlm.idle_total"] = 9;
  snapshot.counters["hlm.busy_total"] = 1;
  collector.Record(0.0, snapshot);
  snapshot.counters["hlm.busy_total"] = 2;
  collector.Record(1.0, snapshot);
  WindowSummary summary = collector.Summarize(1.0, 60.0);
  EXPECT_EQ(summary.counter_deltas.count("hlm.idle_total"), 0u);
  EXPECT_EQ(summary.counter_deltas.at("hlm.busy_total"), 1);
}

TEST(TimeSeriesTest, HistogramDeltasYieldWindowedPercentiles) {
  TimeSeriesCollector collector({1.0, 8});
  MetricsSnapshot base;
  base.histograms["hlm.rt_seconds"] =
      MakeHistogram({0.001, 0.01, 0.1}, {100, 0, 0, 0}, 0.05);
  collector.Record(0.0, base);

  // 40 new observations land in the 0.01–0.1 bucket inside the window;
  // the 100 old fast ones must not dilute the windowed percentiles.
  MetricsSnapshot next;
  next.histograms["hlm.rt_seconds"] =
      MakeHistogram({0.001, 0.01, 0.1}, {100, 0, 40, 0}, 2.05);
  collector.Record(1.0, next);

  WindowSummary summary = collector.Summarize(1.0, 60.0);
  const WindowedHistogram& window = summary.histograms.at("hlm.rt_seconds");
  EXPECT_EQ(window.count, 40);
  HistogramSnapshot snapshot = window.ToSnapshot();
  PercentileSummary percentiles = SummarizePercentiles(snapshot);
  EXPECT_GE(percentiles.p50, 0.01);
  EXPECT_LE(percentiles.p99, 0.1);
}

TEST(TimeSeriesTest, DeterministicAcrossIdenticalRuns) {
  auto drive = [] {
    TimeSeriesCollector collector({1.0, 4});
    for (int i = 0; i <= 5; ++i) {
      collector.Record(static_cast<double>(i),
                       SnapshotWithCounter("hlm.req_total", 10LL * i * i));
    }
    return collector.Summarize(5.0, 3.0);
  };
  WindowSummary a = drive();
  WindowSummary b = drive();
  EXPECT_EQ(a.counter_deltas, b.counter_deltas);
  EXPECT_DOUBLE_EQ(a.covered_s, b.covered_s);
}

TEST(TimeSeriesTest, ClearDropsRingAndBaseline) {
  TimeSeriesCollector collector({1.0, 4});
  collector.Record(0.0, SnapshotWithCounter("hlm.req_total", 1));
  collector.Record(1.0, SnapshotWithCounter("hlm.req_total", 2));
  collector.Clear();
  EXPECT_TRUE(collector.Summarize(1.0, 60.0).empty());
  // Post-clear, the next Record is a baseline again.
  EXPECT_FALSE(collector.Record(2.0, SnapshotWithCounter("hlm.req_total", 9)));
}

TEST(ExpositionTest, SanitizeMetricNameVectors) {
  EXPECT_EQ(SanitizeMetricName("hlm.serve.http.recommend.requests_total"),
            "hlm_serve_http_recommend_requests_total");
  EXPECT_EQ(SanitizeMetricName("already_fine:name"), "already_fine:name");
  EXPECT_EQ(SanitizeMetricName("9starts.with.digit"), "_9starts_with_digit");
  EXPECT_EQ(SanitizeMetricName("spaces and-dashes/slashes"),
            "spaces_and_dashes_slashes");
  EXPECT_EQ(SanitizeMetricName(""), "_");
  EXPECT_EQ(SanitizeMetricName("\"quotes\"\nnewlines"),
            "_quotes__newlines");
}

MetricsSnapshot ExampleSnapshot() {
  MetricsSnapshot snapshot;
  snapshot.counters["hlm.serve.http.recommend.requests_total"] = 42;
  snapshot.counters["hlm.serve.http.recommend.errors_total"] = 2;
  snapshot.gauges["hlm.serve.server.generation"] = 3.0;
  // Exact binary fractions so the 17-digit renderer emits them verbatim.
  snapshot.histograms["hlm.serve.http.recommend.request_seconds"] =
      MakeHistogram({0.125, 0.25, 0.5}, {5, 10, 3, 1}, 0.31);
  return snapshot;
}

TEST(ExpositionTest, RenderedTextPassesTheValidator) {
  const std::string text = RenderPrometheusText(ExampleSnapshot());
  Status status = ValidateExposition(text);
  EXPECT_TRUE(status.ok()) << status.ToString() << "\n" << text;

  EXPECT_NE(
      text.find("# TYPE hlm_serve_http_recommend_requests_total counter"),
      std::string::npos);
  EXPECT_NE(text.find("hlm_serve_http_recommend_requests_total 42"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE hlm_serve_server_generation gauge"),
            std::string::npos);
  EXPECT_NE(
      text.find("# TYPE hlm_serve_http_recommend_request_seconds histogram"),
      std::string::npos);
  // Cumulative buckets: 5, 15, 18, then +Inf == _count == 19.
  EXPECT_NE(text.find("_bucket{le=\"0.125\"} 5"), std::string::npos);
  EXPECT_NE(text.find("_bucket{le=\"0.25\"} 15"), std::string::npos);
  EXPECT_NE(text.find("_bucket{le=\"0.5\"} 18"), std::string::npos);
  EXPECT_NE(text.find("_bucket{le=\"+Inf\"} 19"), std::string::npos);
  EXPECT_NE(text.find("hlm_serve_http_recommend_request_seconds_count 19"),
            std::string::npos);
  // HELP lines keep the dotted source name greppable.
  EXPECT_NE(text.find("hlm.serve.http.recommend.request_seconds"),
            std::string::npos);
  EXPECT_EQ(text.back(), '\n');
}

TEST(ExpositionTest, CollidingNamesAreDeduplicated) {
  MetricsSnapshot snapshot;
  snapshot.counters["hlm.a.b_total"] = 1;
  snapshot.counters["hlm.a-b_total"] = 2;  // sanitizes identically
  const std::string text = RenderPrometheusText(snapshot);
  Status status = ValidateExposition(text);
  EXPECT_TRUE(status.ok()) << status.ToString() << "\n" << text;
  EXPECT_NE(text.find("hlm_a_b_total"), std::string::npos);
  EXPECT_NE(text.find("hlm_a_b_total_2"), std::string::npos);
}

TEST(ExpositionTest, HostileNamesStillRenderValidText) {
  MetricsSnapshot snapshot;
  snapshot.counters["9\"weird\\name\nwith\tjunk_total"] = 7;
  snapshot.gauges[""] = 1.5;
  const std::string text = RenderPrometheusText(snapshot);
  Status status = ValidateExposition(text);
  EXPECT_TRUE(status.ok()) << status.ToString() << "\n" << text;
}

TEST(ExpositionTest, ValidatorRejectsSeededCorruptions) {
  const std::string good = RenderPrometheusText(ExampleSnapshot());
  ASSERT_TRUE(ValidateExposition(good).ok());

  // Missing trailing newline.
  EXPECT_FALSE(
      ValidateExposition(good.substr(0, good.size() - 1)).ok());

  // A sample with no TYPE declaration for its family.
  EXPECT_FALSE(ValidateExposition("lonely_sample 3\n").ok());

  // Unknown TYPE keyword.
  EXPECT_FALSE(
      ValidateExposition("# TYPE x flotilla\nx 1\n").ok());

  // Duplicate series.
  EXPECT_FALSE(ValidateExposition(
                   "# TYPE x counter\nx 1\nx 2\n")
                   .ok());

  // Histogram with le out of order.
  EXPECT_FALSE(
      ValidateExposition("# TYPE h histogram\n"
                         "h_bucket{le=\"0.1\"} 1\n"
                         "h_bucket{le=\"0.01\"} 2\n"
                         "h_bucket{le=\"+Inf\"} 3\n"
                         "h_sum 0.5\nh_count 3\n")
          .ok());

  // Histogram whose cumulative counts decrease.
  EXPECT_FALSE(
      ValidateExposition("# TYPE h histogram\n"
                         "h_bucket{le=\"0.01\"} 5\n"
                         "h_bucket{le=\"0.1\"} 4\n"
                         "h_bucket{le=\"+Inf\"} 5\n"
                         "h_sum 0.5\nh_count 5\n")
          .ok());

  // +Inf bucket disagrees with _count.
  EXPECT_FALSE(
      ValidateExposition("# TYPE h histogram\n"
                         "h_bucket{le=\"+Inf\"} 5\n"
                         "h_sum 0.5\nh_count 6\n")
          .ok());

  // Histogram missing _sum.
  EXPECT_FALSE(
      ValidateExposition("# TYPE h histogram\n"
                         "h_bucket{le=\"+Inf\"} 5\n"
                         "h_count 5\n")
          .ok());

  // Family split by another family (non-contiguous samples).
  EXPECT_FALSE(
      ValidateExposition("# TYPE a counter\na 1\n"
                         "# TYPE b counter\nb 1\n"
                         "a{shard=\"2\"} 1\n")
          .ok());

  // Value that is not a number.
  EXPECT_FALSE(ValidateExposition("# TYPE x counter\nx banana\n").ok());

  // Metric name with an illegal character.
  EXPECT_FALSE(ValidateExposition("# TYPE x counter\nx-y 1\n").ok());
}

TEST(JsonValueTest, ParsesNestedDocuments) {
  auto parsed = JsonValue::Parse(
      "{\"a\": 1.5, \"b\": [true, null, \"s\\\"x\"], "
      "\"c\": {\"d\": -2e3}}");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const JsonValue& doc = parsed.value();
  EXPECT_TRUE(doc.is_object());
  EXPECT_DOUBLE_EQ(doc.Find("a")->AsNumber(), 1.5);
  const JsonValue* b = doc.Find("b");
  ASSERT_NE(b, nullptr);
  ASSERT_TRUE(b->is_array());
  ASSERT_EQ(b->size(), 3u);
  EXPECT_TRUE(b->At(0)->AsBool());
  EXPECT_TRUE(b->At(1)->is_null());
  EXPECT_EQ(b->At(2)->AsString(), "s\"x");
  EXPECT_EQ(b->At(3), nullptr);
  EXPECT_DOUBLE_EQ(doc.Find("c")->Find("d")->AsNumber(), -2000.0);
  EXPECT_EQ(doc.Find("missing"), nullptr);
}

TEST(JsonValueTest, CoercionFallbacks) {
  auto parsed = JsonValue::Parse("{\"s\": \"str\", \"n\": 4}");
  ASSERT_TRUE(parsed.ok());
  const JsonValue& doc = parsed.value();
  EXPECT_DOUBLE_EQ(doc.Find("s")->AsNumber(7.0), 7.0);
  EXPECT_EQ(doc.Find("n")->AsString("fallback"), "fallback");
  EXPECT_EQ(doc.Find("n")->AsInteger(), 4);
  EXPECT_EQ(doc.Find("s")->AsInteger(), std::nullopt);
}

TEST(JsonValueTest, IntegerLiteralsKeepEveryBit) {
  // 2^62 + 1 is not representable as a double; span ids use 63 bits.
  auto parsed = JsonValue::Parse(
      "[4611686018427387905, -7, 2.5, 1e3, 9223372036854775808]");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const JsonValue& doc = parsed.value();
  EXPECT_EQ(doc.At(0)->AsInteger(), 4611686018427387905LL);
  EXPECT_EQ(doc.At(1)->AsInteger(), -7);
  EXPECT_EQ(doc.At(2)->AsInteger(), std::nullopt) << "fraction";
  EXPECT_EQ(doc.At(3)->AsInteger(), 1000) << "integral exponent form";
  EXPECT_EQ(doc.At(4)->AsInteger(), std::nullopt) << "past int64";
}

TEST(JsonValueTest, RejectsMalformedAndHostileInput) {
  EXPECT_FALSE(JsonValue::Parse("").ok());
  EXPECT_FALSE(JsonValue::Parse("{\"a\": }").ok());
  EXPECT_FALSE(JsonValue::Parse("{} trailing").ok());
  EXPECT_FALSE(JsonValue::Parse("{\"a\": 1").ok());
  EXPECT_FALSE(JsonValue::Parse("[1e999]").ok()) << "JSON has no inf";
  // Depth bomb: 200 nested arrays exceeds the 128-level cap.
  std::string bomb(200, '[');
  bomb += std::string(200, ']');
  EXPECT_FALSE(JsonValue::Parse(bomb).ok());
}

TEST(JsonValueTest, DuplicateKeysKeepTheFirstValue) {
  auto parsed = JsonValue::Parse("{\"k\": 1, \"k\": 2}");
  ASSERT_TRUE(parsed.ok());
  EXPECT_DOUBLE_EQ(parsed.value().Find("k")->AsNumber(), 1.0);
}

// End-to-end: a cumulative registry snapshot rendered for /metricsz
// round-trips through the validator, and the same snapshot pushed
// through the collector yields a consistent windowed view — the two
// consumers of MetricsSnapshot stay in sync.
TEST(TelemetryIntegrationTest, SnapshotFeedsBothExpositionAndWindow) {
  MetricsSnapshot t0 = ExampleSnapshot();
  EXPECT_TRUE(ValidateExposition(RenderPrometheusText(t0)).ok());

  TimeSeriesCollector collector({1.0, 8});
  collector.Record(0.0, t0);
  MetricsSnapshot t1 = t0;
  t1.counters["hlm.serve.http.recommend.requests_total"] += 8;
  t1.histograms["hlm.serve.http.recommend.request_seconds"] =
      MakeHistogram({0.125, 0.25, 0.5}, {5, 18, 3, 1}, 0.35);
  EXPECT_TRUE(ValidateExposition(RenderPrometheusText(t1)).ok());
  collector.Record(1.0, t1);

  WindowSummary window = collector.Summarize(1.0, 60.0);
  EXPECT_EQ(window.counter_deltas.at(
                "hlm.serve.http.recommend.requests_total"),
            8);
  EXPECT_EQ(window.histograms.at("hlm.serve.http.recommend.request_seconds")
                .count,
            8);
}

}  // namespace
}  // namespace hlm::obs
