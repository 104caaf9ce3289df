#include "obs/statusz.h"

#include <cstdio>
#include <sstream>

#include "obs/flight_recorder.h"
#include "obs/json.h"
#include "obs/percentiles.h"
#include "obs/profiler.h"

namespace hlm::obs {

namespace {

std::string FormatDouble(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.6g", value);
  return buffer;
}

std::string RunIdOf(const MetricsSnapshot& metrics) {
  auto it = metrics.meta.find("run_id");
  if (it != metrics.meta.end()) return it->second;
  return TraceRecorder::Global().run_id();
}

bool EndsWith(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

bool StartsWith(const std::string& s, const std::string& prefix) {
  return s.compare(0, prefix.size(), prefix) == 0;
}

}  // namespace

std::string RenderStatuszText(const MetricsSnapshot& metrics,
                              const std::vector<OpenSpanInfo>& open_spans,
                              const std::vector<Event>& flight_tail,
                              const WindowSummary& window) {
  std::ostringstream out;
  out << "==== hlm statusz ====\n";
  const std::string run_id = RunIdOf(metrics);
  if (!run_id.empty()) out << "run_id: " << run_id << "\n";
  out << "uptime_us: " << FormatDouble(NowMicros()) << "\n";

  out << "\n-- counters --\n";
  for (const auto& [name, value] : metrics.counters) {
    out << name << " " << value << "\n";
  }

  out << "\n-- gauges --\n";
  for (const auto& [name, value] : metrics.gauges) {
    out << name << " " << FormatDouble(value) << "\n";
  }

  out << "\n-- latency percentiles --\n";
  out << "name count p50 p90 p99 max\n";
  for (const auto& [name, histogram] : metrics.histograms) {
    if (!EndsWith(name, "_seconds")) continue;
    PercentileSummary summary = SummarizePercentiles(histogram);
    out << name << " " << histogram.count << " " << FormatDouble(summary.p50)
        << " " << FormatDouble(summary.p90) << " "
        << FormatDouble(summary.p99) << " " << FormatDouble(summary.max)
        << "\n";
  }

  if (!window.empty()) {
    out << "\n-- windowed (last " << FormatDouble(window.window_s)
        << "s, covered " << FormatDouble(window.covered_s) << "s) --\n";
    out << "counter delta rate_per_s\n";
    for (const auto& [name, delta] : window.counter_deltas) {
      out << name << " " << delta << " " << FormatDouble(window.Rate(name))
          << "\n";
    }
    out << "histogram count qps p50 p90 p99\n";
    for (const auto& [name, histogram] : window.histograms) {
      if (!EndsWith(name, "_seconds")) continue;
      HistogramSnapshot snapshot = histogram.ToSnapshot();
      PercentileSummary summary = SummarizePercentiles(snapshot);
      const double qps =
          window.covered_s > 0
              ? static_cast<double>(histogram.count) / window.covered_s
              : 0.0;
      out << name << " " << histogram.count << " " << FormatDouble(qps)
          << " " << FormatDouble(summary.p50) << " "
          << FormatDouble(summary.p90) << " " << FormatDouble(summary.p99)
          << "\n";
    }
  }

  out << "\n-- resource profile --\n";
  for (const auto& [key, value] : metrics.meta) {
    if (StartsWith(key, "profile.")) out << key << " = " << value << "\n";
  }

  out << "\n-- registry --\n";
  for (const auto& [key, value] : metrics.meta) {
    if (StartsWith(key, "serve.registry.")) {
      out << key << " = " << value << "\n";
    }
  }

  out << "\n-- meta --\n";
  for (const auto& [key, value] : metrics.meta) {
    if (StartsWith(key, "profile.") || StartsWith(key, "serve.registry.")) {
      continue;
    }
    out << key << " = " << value << "\n";
  }

  out << "\n-- open spans (" << open_spans.size() << ") --\n";
  out << "span_id parent_id depth tid started_us name\n";
  for (const OpenSpanInfo& span : open_spans) {
    out << span.span_id << " " << span.parent_id << " " << span.depth << " "
        << (span.thread_id % 1000000) << " " << FormatDouble(span.start_us)
        << " " << span.name << "\n";
  }

  out << "\n-- flight recorder tail (" << flight_tail.size() << ") --\n";
  for (const Event& entry : flight_tail) out << entry.ToJsonLine() << "\n";
  return out.str();
}

std::string RenderStatuszJson(const MetricsSnapshot& metrics,
                              const std::vector<OpenSpanInfo>& open_spans,
                              const std::vector<Event>& flight_tail,
                              const WindowSummary& window) {
  std::ostringstream out;
  out << "{\n\"run_id\": " << JsonQuote(RunIdOf(metrics))
      << ",\n\"uptime_us\": " << FormatDouble(NowMicros()) << ",\n";

  out << "\"window\": {\"window_s\": " << FormatDouble(window.window_s)
      << ", \"covered_s\": " << FormatDouble(window.covered_s)
      << ",\n  \"counter_deltas\": {";
  {
    bool first = true;
    for (const auto& [name, delta] : window.counter_deltas) {
      out << (first ? "" : ", ") << JsonQuote(name) << ": " << delta;
      first = false;
    }
  }
  out << "},\n  \"counter_rates\": {";
  {
    bool first = true;
    for (const auto& [name, delta] : window.counter_deltas) {
      (void)delta;
      out << (first ? "" : ", ") << JsonQuote(name) << ": "
          << FormatDouble(window.Rate(name));
      first = false;
    }
  }
  out << "},\n  \"histograms\": {";
  {
    bool first = true;
    for (const auto& [name, histogram] : window.histograms) {
      HistogramSnapshot snapshot = histogram.ToSnapshot();
      PercentileSummary summary = SummarizePercentiles(snapshot);
      const double qps =
          window.covered_s > 0
              ? static_cast<double>(histogram.count) / window.covered_s
              : 0.0;
      out << (first ? "" : ",") << "\n    " << JsonQuote(name)
          << ": {\"count\": " << histogram.count
          << ", \"qps\": " << FormatDouble(qps)
          << ", \"p50\": " << FormatDouble(summary.p50)
          << ", \"p90\": " << FormatDouble(summary.p90)
          << ", \"p99\": " << FormatDouble(summary.p99) << "}";
      first = false;
    }
  }
  out << "}\n},\n";

  out << "\"percentiles\": {";
  bool first = true;
  for (const auto& [name, histogram] : metrics.histograms) {
    if (!EndsWith(name, "_seconds")) continue;
    PercentileSummary summary = SummarizePercentiles(histogram);
    if (!first) out << ",";
    first = false;
    out << "\n  " << JsonQuote(name) << ": {\"count\": " << histogram.count
        << ", \"p50\": " << FormatDouble(summary.p50)
        << ", \"p90\": " << FormatDouble(summary.p90)
        << ", \"p99\": " << FormatDouble(summary.p99)
        << ", \"max\": " << FormatDouble(summary.max) << "}";
  }
  out << "\n},\n";

  out << "\"open_spans\": [";
  for (size_t i = 0; i < open_spans.size(); ++i) {
    const OpenSpanInfo& span = open_spans[i];
    out << (i > 0 ? "," : "") << "\n  {\"span_id\": " << span.span_id
        << ", \"parent_id\": " << span.parent_id
        << ", \"depth\": " << span.depth
        << ", \"tid\": " << (span.thread_id % 1000000)
        << ", \"started_us\": " << FormatDouble(span.start_us)
        << ", \"name\": " << JsonQuote(span.name) << "}";
  }
  out << "\n],\n";

  out << "\"flight_tail\": [";
  for (size_t i = 0; i < flight_tail.size(); ++i) {
    out << (i > 0 ? "," : "") << "\n  " << flight_tail[i].ToJsonLine();
  }
  out << "\n],\n";

  // The full metrics document (meta + counters + gauges + histograms)
  // as produced by MetricsSnapshot::ToJson, embedded verbatim.
  out << "\"metrics\": " << metrics.ToJson() << "\n}\n";
  return out.str();
}

namespace {

// Gathers the three live parts with profiler meta attached.
struct LiveParts {
  MetricsSnapshot metrics;
  std::vector<OpenSpanInfo> open_spans;
  std::vector<Event> flight_tail;
  WindowSummary window;
};

LiveParts CollectLive(const StatuszOptions& options) {
  LiveParts parts;
  ResourceProfiler::Global().AttachTo(&MetricsRegistry::Global());
  parts.metrics = MetricsRegistry::Global().Snapshot();
  parts.open_spans = TraceRecorder::Global().OpenSpans();
  if (parts.open_spans.size() > options.max_open_spans) {
    parts.open_spans.resize(options.max_open_spans);
  }
  parts.flight_tail = FlightRecorder::Global().Tail(options.flight_tail);
  parts.window = TimeSeriesCollector::Global().Summarize(NowMicros() / 1e6,
                                                         options.window_s);
  return parts;
}

}  // namespace

std::string StatuszText(const StatuszOptions& options) {
  LiveParts parts = CollectLive(options);
  return RenderStatuszText(parts.metrics, parts.open_spans,
                           parts.flight_tail, parts.window);
}

std::string StatuszJson(const StatuszOptions& options) {
  LiveParts parts = CollectLive(options);
  return RenderStatuszJson(parts.metrics, parts.open_spans,
                           parts.flight_tail, parts.window);
}

}  // namespace hlm::obs
