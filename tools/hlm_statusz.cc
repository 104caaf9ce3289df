// hlm_statusz: renders the /statusz introspection page from
// observability dump files, watches a live daemon's /statusz (`top`),
// and self-checks the crash-dump path.
//
// Usage:
//   hlm_statusz render --metrics PATH [--events PATH]
//                      [--format text|json] [--tail N]
//     Renders the same sections a live process would serve: metrics,
//     latency percentiles, resource profile, registry meta, and (when
//     --events points at a JSONL file written via --events_out) the
//     newest N events as the flight tail. Open spans are a live-only
//     section and render empty here.
//
//   hlm_statusz selfcheck-crash --dir DIR
//     Arms the crash handler, emits a few events, then fails an
//     HLM_CHECK on purpose. The process aborts (nonzero exit) after
//     writing DIR/hlm-crash-selfcheck.json; scripts/tier1.sh asserts
//     the dump exists and parses. Exiting ZERO from this command means
//     the crash path is broken.
//
//   hlm_statusz promcheck --file PATH
//     Validates a Prometheus text-exposition payload (a /metricsz
//     scrape) with obs::ValidateExposition; exits non-zero with the
//     offending line on any syntax or histogram-invariant violation.
//     scripts/tier1.sh runs this against the live daemon's scrape.
//
//   hlm_statusz top --port P [--host 127.0.0.1] [--interval_s 1.0] [--once]
//     Live ANSI console for a running hlm_serve daemon. Polls
//     /statusz?format=json over a keep-alive connection and renders
//     per-endpoint QPS, error rate, and windowed p50/p90/p99 latency
//     from the server's time-series ring (see DESIGN.md "Live
//     telemetry"), plus generation / uptime, open and rejected
//     connections, and the newest reload + sampled-request events
//     from the flight recorder. Loop mode repaints every --interval_s
//     via ANSI clear-home; --once prints a single frame with no escape
//     codes (scripts/tier1.sh uses it as a smoke test) and exits
//     non-zero when the daemon cannot be reached or returns malformed
//     JSON.

#include <chrono>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/check.h"
#include "common/flags.h"
#include "common/status.h"
#include "common/string_util.h"
#include "obs/events.h"
#include "obs/exposition.h"
#include "obs/flight_recorder.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/statusz.h"
#include "obs/trace.h"
#include "serve/http_client.h"
#include "serve/request_recorder.h"

namespace {

using hlm::FormatDouble;
using hlm::Status;
using hlm::obs::JsonValue;

hlm::Result<std::string> ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::NotFound("cannot open: " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  if (in.bad()) return Status::Internal("read error: " + path);
  return buffer.str();
}

Status RunRender(const std::string& metrics_path,
                 const std::string& events_path, const std::string& format,
                 size_t tail) {
  HLM_ASSIGN_OR_RETURN(std::string metrics_json, ReadFile(metrics_path));
  HLM_ASSIGN_OR_RETURN(hlm::obs::MetricsSnapshot metrics,
                       hlm::obs::MetricsSnapshot::FromJson(metrics_json));
  std::vector<hlm::obs::Event> flight_tail;
  if (!events_path.empty()) {
    HLM_ASSIGN_OR_RETURN(std::string jsonl, ReadFile(events_path));
    std::istringstream lines(jsonl);
    std::string line;
    uint64_t line_number = 0;
    while (std::getline(lines, line)) {
      ++line_number;
      if (line.empty()) continue;
      hlm::Result<hlm::obs::Event> event =
          hlm::obs::Event::FromJsonLine(line);
      if (!event.ok()) {
        return Status::DataLoss(events_path + ":" +
                                std::to_string(line_number) + ": " +
                                event.status().message());
      }
      // A file has no ring admission order; the line number stands in.
      event->seq = line_number;
      flight_tail.push_back(std::move(event).value());
    }
    if (flight_tail.size() > tail) {
      flight_tail.erase(flight_tail.begin(),
                        flight_tail.end() - static_cast<std::ptrdiff_t>(tail));
    }
  }
  const std::string rendered =
      format == "json"
          ? hlm::obs::RenderStatuszJson(metrics, {}, flight_tail, {})
          : hlm::obs::RenderStatuszText(metrics, {}, flight_tail, {});
  std::cout << rendered;
  return Status::OK();
}

/// Walks nested objects: Path(root, {"metrics", "gauges"}) is
/// root["metrics"]["gauges"] or nullptr anywhere along the way.
const JsonValue* Path(const JsonValue& root,
                      const std::vector<std::string>& keys) {
  const JsonValue* node = &root;
  for (const std::string& key : keys) {
    if (node == nullptr) return nullptr;
    node = node->Find(key);
  }
  return node;
}

double NumberAt(const JsonValue& root, const std::vector<std::string>& keys,
                double fallback = 0.0) {
  const JsonValue* node = Path(root, keys);
  return node == nullptr ? fallback : node->AsNumber(fallback);
}

std::string Millis(double seconds) {
  return FormatDouble(seconds * 1000.0, 2) + "ms";
}

/// One rendered frame of the dashboard. Pure string building so the
/// frame appears atomically (no flicker from incremental writes).
std::string RenderFrame(const JsonValue& doc, const std::string& peer) {
  std::ostringstream out;
  const double uptime_s = NumberAt(doc, {"uptime_us"}) / 1e6;
  const double generation =
      NumberAt(doc, {"metrics", "gauges", "hlm.serve.server.generation"}, -1);
  const JsonValue* run_id = doc.Find("run_id");
  const double connections_open = NumberAt(
      doc, {"metrics", "gauges", "hlm.serve.server.connections_open"});
  const double connections_rejected =
      NumberAt(doc, {"metrics", "counters",
                     "hlm.serve.server.connections_rejected_total"});
  out << "hlm_top — " << peer << "  up " << FormatDouble(uptime_s, 1)
      << "s  generation " << FormatDouble(generation, 0) << "  connections "
      << FormatDouble(connections_open, 0) << " open, "
      << FormatDouble(connections_rejected, 0) << " rejected";
  if (run_id != nullptr && !run_id->AsString().empty()) {
    out << "  run_id " << run_id->AsString();
  }
  out << "\n";

  const double window_s = NumberAt(doc, {"window", "window_s"});
  const double covered_s = NumberAt(doc, {"window", "covered_s"});
  out << "window: last " << FormatDouble(window_s, 0) << "s (covered "
      << FormatDouble(covered_s, 1) << "s)";
  if (covered_s <= 0.0) {
    out << " — no samples yet; the ring fills as requests arrive\n";
  } else {
    out << "\n";
  }

  out << "\n  endpoint     qps        p50        p90        p99    "
         "req     err  err%\n";
  const JsonValue* histograms = Path(doc, {"window", "histograms"});
  const JsonValue* deltas = Path(doc, {"window", "counter_deltas"});
  for (size_t i = 0; i < hlm::serve::kNumRoutes; ++i) {
    const char* route =
        hlm::serve::RouteName(static_cast<hlm::serve::Route>(i));
    const std::string prefix = std::string("hlm.serve.http.") + route;
    const JsonValue* histogram =
        histograms == nullptr
            ? nullptr
            : histograms->Find(prefix + ".request_seconds");
    double requests = 0.0;
    double errors = 0.0;
    if (deltas != nullptr) {
      const JsonValue* value = deltas->Find(prefix + ".requests_total");
      if (value != nullptr) requests = value->AsNumber();
      value = deltas->Find(prefix + ".errors_total");
      if (value != nullptr) errors = value->AsNumber();
    }
    if (histogram == nullptr && requests <= 0.0 && errors <= 0.0) continue;
    const double qps =
        histogram == nullptr ? 0.0 : NumberAt(*histogram, {"qps"});
    const double p50 =
        histogram == nullptr ? 0.0 : NumberAt(*histogram, {"p50"});
    const double p90 =
        histogram == nullptr ? 0.0 : NumberAt(*histogram, {"p90"});
    const double p99 =
        histogram == nullptr ? 0.0 : NumberAt(*histogram, {"p99"});
    const double err_pct = requests > 0.0 ? 100.0 * errors / requests : 0.0;
    char line[160];
    std::snprintf(line, sizeof(line),
                  "  %-9s %7.1f %10s %10s %10s %6.0f %7.0f %5.1f\n", route,
                  qps, Millis(p50).c_str(), Millis(p90).c_str(),
                  Millis(p99).c_str(), requests, errors, err_pct);
    out << line;
  }

  out << "\n  tracing: kept ";
  out << FormatDouble(
      NumberAt(doc, {"window", "counter_deltas", "hlm.serve.trace.kept_total"}),
      0);
  out << " (slow "
      << FormatDouble(NumberAt(doc, {"window", "counter_deltas",
                                     "hlm.serve.trace.slow_total"}),
                      0)
      << ", sampled "
      << FormatDouble(NumberAt(doc, {"window", "counter_deltas",
                                     "hlm.serve.trace.sampled_total"}),
                      0)
      << ") in window; reloads "
      << FormatDouble(NumberAt(doc, {"window", "counter_deltas",
                                     "hlm.serve.server.reloads_total"}),
                      0)
      << "\n";

  const JsonValue* tail = doc.Find("flight_tail");
  out << "\n  recent events:\n";
  size_t shown = 0;
  if (tail != nullptr && tail->is_array()) {
    // Newest last in the tail; walk backwards, print the newest 8.
    for (size_t i = tail->size(); i-- > 0 && shown < 8;) {
      const JsonValue* entry = tail->At(i);
      if (entry == nullptr) continue;
      const JsonValue* name = entry->Find("name");
      if (name == nullptr) continue;
      const std::string event_name = name->AsString();
      if (event_name != "serve.server.reloaded" &&
          event_name != "serve.http.request" &&
          event_name != "serve.server.started") {
        continue;
      }
      const JsonValue* attrs = entry->Find("attrs");
      const double ts_s = NumberAt(*entry, {"ts_us"}) / 1e6;
      out << "    [" << FormatDouble(ts_s, 3) << "s] " << event_name;
      if (attrs != nullptr && attrs->is_object()) {
        for (const auto& [key, value] : attrs->object()) {
          const double number = value.AsNumber();
          const bool whole = number == static_cast<long long>(number);
          out << " " << key << "="
              << value.AsString(FormatDouble(number, whole ? 0 : 6));
        }
      }
      out << "\n";
      ++shown;
    }
  }
  if (shown == 0) out << "    (none kept yet)\n";
  return out.str();
}

Status FetchAndRender(hlm::serve::HttpClient* client, const std::string& peer,
                      bool clear_screen) {
  HLM_ASSIGN_OR_RETURN(hlm::serve::HttpResponse response,
                       client->Get("/statusz?format=json"));
  if (response.status_code != 200) {
    return Status::Internal("/statusz returned HTTP " +
                            std::to_string(response.status_code));
  }
  HLM_ASSIGN_OR_RETURN(JsonValue doc, JsonValue::Parse(response.body));
  const std::string frame = RenderFrame(doc, peer);
  if (clear_screen) std::fputs("\x1b[H\x1b[2J", stdout);
  std::fputs(frame.c_str(), stdout);
  std::fflush(stdout);
  return Status::OK();
}

int RunTop(const std::string& host, long long port, double interval_s,
           bool once) {
  const std::string peer = host + ":" + std::to_string(port);
  std::optional<hlm::serve::HttpClient> client;
  while (true) {
    if (!client.has_value()) {
      hlm::Result<hlm::serve::HttpClient> connected =
          hlm::serve::HttpClient::Connect(host, static_cast<int>(port));
      if (!connected.ok()) {
        std::fprintf(stderr, "hlm_statusz top: %s\n",
                     connected.status().ToString().c_str());
        if (once) return 1;
        std::this_thread::sleep_for(
            std::chrono::duration<double>(interval_s));
        continue;
      }
      client.emplace(std::move(connected).value());
    }
    Status status = FetchAndRender(&client.value(), peer, !once);
    if (!status.ok()) {
      std::fprintf(stderr, "hlm_statusz top: %s\n",
                   status.ToString().c_str());
      if (once) return 1;
      client.reset();  // reconnect on the next tick
    } else if (once) {
      return 0;
    }
    std::this_thread::sleep_for(std::chrono::duration<double>(interval_s));
  }
}

int RunSelfcheckCrash(const std::string& dir) {
  hlm::obs::TraceRecorder::Global().SetRunId("selfcheck");
  hlm::obs::TraceRecorder::Global().Enable();
  hlm::obs::SetCrashDumpDir(dir);
  hlm::obs::InstallCrashHandler();
  // Leave footprints for the dump: a span close and a couple of events.
  {
    hlm::obs::TraceSpan span("statusz.selfcheck");
    HLM_EVENT("statusz.selfcheck.start", {{"dir", dir}});
  }
  HLM_EVENT("statusz.selfcheck.arm", {{"expected_dump", true}});
  HLM_CHECK(false) << "hlm_statusz selfcheck-crash: deliberate failure "
                      "to exercise the crash-dump path";
  // Unreachable: HLM_CHECK(false) aborts after the hook dumps.
  return 0;
}

Status RunPromcheck(const std::string& file) {
  HLM_ASSIGN_OR_RETURN(std::string payload, ReadFile(file));
  return hlm::obs::ValidateExposition(payload);
}

int Usage() {
  std::fprintf(
      stderr,
      "usage: hlm_statusz render --metrics PATH [--events PATH]\n"
      "                          [--format text|json] [--tail N]\n"
      "       hlm_statusz selfcheck-crash --dir DIR\n"
      "       hlm_statusz promcheck --file PATH\n"
      "       hlm_statusz top --port P [--host H] [--interval_s S]"
      " [--once]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  const std::string command = argv[1];

  std::string metrics_path;
  std::string events_path;
  std::string format = "text";
  long long tail = 32;
  std::string dir = ".";
  std::string file;
  std::string host = "127.0.0.1";
  long long port = 0;
  double interval_s = 1.0;
  bool once = false;

  hlm::FlagSet flags;
  flags.AddString("metrics", &metrics_path, "metrics snapshot JSON file");
  flags.AddString("events", &events_path, "events JSONL file (optional)");
  flags.AddString("format", &format, "output format: text or json");
  flags.AddInt64("tail", &tail, "flight-tail entries to keep");
  flags.AddString("dir", &dir, "crash-dump directory for selfcheck-crash");
  flags.AddString("file", &file, "exposition payload for promcheck");
  flags.AddString("host", &host, "top: daemon address (dotted quad)");
  flags.AddInt64("port", &port, "top: daemon port (required)");
  flags.AddDouble("interval_s", &interval_s, "top: refresh interval");
  flags.AddBool("once", &once,
                "top: print one frame and exit (no ANSI codes)");
  Status parsed = flags.Parse(argc - 1, argv + 1);
  if (!parsed.ok()) {
    std::fprintf(stderr, "%s\n%s", parsed.ToString().c_str(),
                 flags.Usage().c_str());
    return 2;
  }
  if (format != "text" && format != "json") return Usage();
  if (tail < 0) return Usage();

  if (command == "render") {
    if (metrics_path.empty()) return Usage();
    Status status = RunRender(metrics_path, events_path, format,
                              static_cast<size_t>(tail));
    if (!status.ok()) {
      std::fprintf(stderr, "hlm_statusz render: %s\n",
                   status.ToString().c_str());
      return 1;
    }
    return 0;
  }
  if (command == "selfcheck-crash") {
    return RunSelfcheckCrash(dir);
  }
  if (command == "promcheck") {
    if (file.empty()) return Usage();
    Status status = RunPromcheck(file);
    if (!status.ok()) {
      std::fprintf(stderr, "hlm_statusz promcheck: %s\n",
                   status.ToString().c_str());
      return 1;
    }
    std::fprintf(stdout, "hlm_statusz promcheck: %s ok\n", file.c_str());
    return 0;
  }
  if (command == "top") {
    if (port <= 0) return Usage();
    return RunTop(host, port, interval_s > 0 ? interval_s : 1.0, once);
  }
  return Usage();
}
