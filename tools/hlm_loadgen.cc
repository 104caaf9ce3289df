// hlm_loadgen: HTTP load generator + correctness checker for hlm_serve
// (see DESIGN.md "Serving").
//
//   hlm_loadgen --port P [--host 127.0.0.1] --mode closed|open|once
//               [--connections N] [--requests_per_connection N]
//               [--qps Q] [--duration_s S] [--path /statusz]
//               [--min_qps Q] [--check_generations]
//               [--expect_min_generations N] [--no_keepalive]
//
// Modes:
//   closed  N connections, each issuing requests back-to-back
//           (requests_per_connection each, or until duration_s).
//   open    N connections on one shared absolute-time schedule of
//           `qps` aggregate requests/second for duration_s — latency
//           under a fixed offered load, not under back-pressure.
//   once    one GET of --path; prints the body (curl-free statusz
//           probe for scripts).
//
// --no_keepalive opens a fresh connection for every closed/open
// request and closes it after the response (connection churn); the
// request latency then includes the connect. A keep-alive connection
// the server closes after its idle timeout is reopened by HttpClient;
// in closed mode, where connections never idle, that counts as a
// failure.
//
// Every closed/open request cycles /v1/recommend -> /v1/similar ->
// /v1/topics. Responses must be HTTP 200; with --check_generations the
// JSON `generation` field must additionally be monotonically
// non-decreasing per connection (hot reloads may never move a client
// backwards) and the run must observe at least
// --expect_min_generations distinct values. Latencies go into the
// hlm.loadgen.request_seconds histogram; the summary prints p50/p90/
// p99 plus achieved QPS, and the exit code is non-zero on any failed
// request, a generation regression, or achieved QPS < --min_qps.
//
// --json_out PATH additionally writes a schema-versioned machine-
// readable report (offered/achieved QPS, latency percentiles,
// failures, generations seen, exit code) via an atomic rename, so
// serve-stage results can land next to BENCH_*.json artifacts.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/atomic_file.h"
#include "common/flags.h"
#include "common/status.h"
#include "common/string_util.h"
#include "obs/metrics.h"
#include "obs/percentiles.h"
#include "serve/http_client.h"

namespace {

using hlm::serve::HttpClient;
using hlm::serve::HttpResponse;

struct WorkerStats {
  long long requests = 0;
  long long failures = 0;
  long long generation_regressions = 0;
  std::set<long long> generations_seen;
  std::string first_error;
};

/// Extracts the integer value of `"generation":` from a JSON body
/// (every /v1/* and /healthz response carries it at the top level).
long long ParseGeneration(const std::string& body) {
  constexpr char kKey[] = "\"generation\":";
  size_t at = body.find(kKey);
  if (at == std::string::npos) return -1;
  at += sizeof(kKey) - 1;
  size_t end = at;
  while (end < body.size() &&
         (body[end] == '-' || (body[end] >= '0' && body[end] <= '9'))) {
    ++end;
  }
  hlm::Result<long long> value = hlm::ParseInt64(body.substr(at, end - at));
  return value.ok() ? value.value() : -1;
}

const char* RequestPath(long long ordinal) {
  switch (ordinal % 3) {
    case 0: return "/v1/recommend?tokens=0,1&k=5";
    case 1: return "/v1/similar?company=0&k=5";
    default: return "/v1/topics?tokens=0,1";
  }
}

struct RunConfig {
  std::string host;
  int port = 0;
  bool open_loop = false;
  long long requests_per_connection = 0;  // 0 = run until deadline
  double duration_s = 0.0;
  double qps = 0.0;  // open loop: aggregate offered load
  int connections = 1;
  bool check_generations = false;
  bool no_keepalive = false;
};

void RunWorker(const RunConfig& config, int worker_index,
               WorkerStats* stats) {
  hlm::obs::Histogram* latency = hlm::obs::MetricsRegistry::Global()
                                     .GetHistogram(
                                         "hlm.loadgen.request_seconds");
  auto fail = [stats](const std::string& error) {
    ++stats->failures;
    if (stats->first_error.empty()) stats->first_error = error;
  };
  hlm::Result<HttpClient> client = hlm::Status::Internal("not connected");
  if (!config.no_keepalive) {
    client = HttpClient::Connect(config.host, config.port);
    if (!client.ok()) {
      fail(client.status().ToString());
      return;
    }
  }
  const auto start = std::chrono::steady_clock::now();
  const auto deadline =
      start + std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                  std::chrono::duration<double>(config.duration_s));
  long long last_generation = -1;
  for (long long i = 0;; ++i) {
    if (config.requests_per_connection > 0 &&
        i >= config.requests_per_connection) {
      break;
    }
    if (config.duration_s > 0 &&
        std::chrono::steady_clock::now() >= deadline) {
      break;
    }
    if (config.open_loop) {
      // Absolute schedule: request i of this worker fires at
      // start + (i * connections + worker_index) / qps, independent of
      // how long earlier requests took (no coordinated omission).
      const double offset_s =
          (static_cast<double>(i) * config.connections + worker_index) /
          config.qps;
      std::this_thread::sleep_until(
          start +
          std::chrono::duration_cast<std::chrono::steady_clock::duration>(
              std::chrono::duration<double>(offset_s)));
      if (config.duration_s > 0 &&
          std::chrono::steady_clock::now() >= deadline) {
        break;
      }
    }
    const auto request_start = std::chrono::steady_clock::now();
    if (config.no_keepalive) {
      client = HttpClient::Connect(config.host, config.port);
    }
    const long long reconnects_before =
        client.ok() ? client.value().reconnects() : 0;
    hlm::Result<HttpResponse> response =
        client.ok() ? client.value().Get(RequestPath(i))
                    : hlm::Result<HttpResponse>(client.status());
    // A closed-loop connection never idles, so the server must not have
    // closed it; an open-loop one may outwait the server's idle timeout.
    const bool dropped = !config.open_loop && client.ok() &&
                         client.value().reconnects() > reconnects_before;
    if (config.no_keepalive) client = hlm::Status::Internal("closed");
    const std::chrono::duration<double> elapsed =
        std::chrono::steady_clock::now() - request_start;
    latency->Observe(elapsed.count());
    ++stats->requests;
    if (!response.ok()) {
      fail(response.status().ToString());
      return;  // transport is poisoned; stop this connection
    }
    if (dropped) fail("server closed a busy keep-alive connection");
    if (response.value().status_code != 200) {
      fail("HTTP " + std::to_string(response.value().status_code) + ": " +
           response.value().body);
      continue;
    }
    if (config.check_generations) {
      const long long generation = ParseGeneration(response.value().body);
      if (generation < 0) {
        fail("response without generation: " + response.value().body);
        continue;
      }
      stats->generations_seen.insert(generation);
      if (generation < last_generation) {
        ++stats->generation_regressions;
        fail("generation went backwards: " + std::to_string(generation) +
             " after " + std::to_string(last_generation));
      }
      last_generation = std::max(last_generation, generation);
    }
  }
}

/// Everything the machine-readable report needs, gathered after the
/// workers join.
struct RunReport {
  std::string mode;
  int connections = 0;
  double elapsed_s = 0.0;
  double offered_qps = 0.0;  // 0 for closed-loop runs
  double achieved_qps = 0.0;
  long long requests = 0;
  long long failures = 0;
  long long generation_regressions = 0;
  std::set<long long> generations_seen;
  hlm::obs::HistogramSnapshot latency;
  hlm::obs::PercentileSummary summary;
  int exit_code = 0;
};

/// Schema-versioned report written via atomic rename; bump
/// schema_version on any field change so downstream parsers can gate.
hlm::Status WriteJsonReport(const std::string& path,
                            const RunReport& report) {
  hlm::AtomicFileWriter writer(path);
  if (!writer.ok()) {
    return hlm::Status::Internal("cannot open for write: " + path);
  }
  std::ostream& out = writer.stream();
  out << "{\n";
  out << "  \"schema_version\": 1,\n";
  out << "  \"tool\": \"hlm_loadgen\",\n";
  out << "  \"mode\": \"" << report.mode << "\",\n";
  out << "  \"connections\": " << report.connections << ",\n";
  out << "  \"elapsed_s\": " << hlm::FormatDouble(report.elapsed_s, 6)
      << ",\n";
  out << "  \"offered_qps\": " << hlm::FormatDouble(report.offered_qps, 6)
      << ",\n";
  out << "  \"achieved_qps\": "
      << hlm::FormatDouble(report.achieved_qps, 6) << ",\n";
  out << "  \"requests\": " << report.requests << ",\n";
  out << "  \"failures\": " << report.failures << ",\n";
  out << "  \"generation_regressions\": " << report.generation_regressions
      << ",\n";
  out << "  \"generations_seen\": [";
  bool first = true;
  for (long long generation : report.generations_seen) {
    out << (first ? "" : ", ") << generation;
    first = false;
  }
  out << "],\n";
  out << "  \"latency_seconds\": {\"count\": " << report.latency.count
      << ", \"mean\": " << hlm::FormatDouble(report.latency.Mean(), 9)
      << ", \"p50\": " << hlm::FormatDouble(report.summary.p50, 9)
      << ", \"p90\": " << hlm::FormatDouble(report.summary.p90, 9)
      << ", \"p99\": " << hlm::FormatDouble(report.summary.p99, 9)
      << ", \"max\": " << hlm::FormatDouble(report.summary.max, 9)
      << "},\n";
  out << "  \"exit_code\": " << report.exit_code << "\n";
  out << "}\n";
  return writer.Commit();
}

int RunOnce(const RunConfig& config, const std::string& path) {
  hlm::Result<HttpClient> client =
      HttpClient::Connect(config.host, config.port);
  if (!client.ok()) {
    std::fprintf(stderr, "hlm_loadgen: %s\n",
                 client.status().ToString().c_str());
    return 1;
  }
  hlm::Result<HttpResponse> response = client.value().Get(path);
  if (!response.ok()) {
    std::fprintf(stderr, "hlm_loadgen: %s\n",
                 response.status().ToString().c_str());
    return 1;
  }
  std::fprintf(stdout, "%s", response.value().body.c_str());
  return response.value().status_code == 200 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  std::string host = "127.0.0.1";
  std::string mode = "closed";
  std::string path = "/statusz";
  long long port = 0;
  long long connections = 4;
  long long requests_per_connection = 0;
  double duration_s = 0.0;
  double qps = 0.0;
  double min_qps = 0.0;
  bool check_generations = false;
  bool no_keepalive = false;
  long long expect_min_generations = 0;
  std::string json_out;

  hlm::FlagSet flags;
  flags.AddString("host", &host, "server address (dotted quad)");
  flags.AddInt64("port", &port, "server port");
  flags.AddString("mode", &mode, "closed | open | once");
  flags.AddString("path", &path, "request path for --mode once");
  flags.AddInt64("connections", &connections, "concurrent connections");
  flags.AddInt64("requests_per_connection", &requests_per_connection,
                 "requests per connection (0 = until --duration_s)");
  flags.AddDouble("duration_s", &duration_s,
                  "stop after this many seconds (0 = request-count only)");
  flags.AddDouble("qps", &qps, "open-loop aggregate offered load");
  flags.AddDouble("min_qps", &min_qps,
                  "fail if achieved QPS falls below this");
  flags.AddBool("check_generations", &check_generations,
                "assert per-connection generation monotonicity");
  flags.AddInt64("expect_min_generations", &expect_min_generations,
                 "fail unless at least this many distinct generations "
                 "were observed (with --check_generations)");
  flags.AddBool("no_keepalive", &no_keepalive,
                "open a new connection for every request");
  flags.AddString("json_out", &json_out,
                  "write a machine-readable run report here");
  hlm::Status parsed = flags.Parse(argc, argv);
  if (!parsed.ok()) {
    std::fprintf(stderr, "%s\n%s", parsed.ToString().c_str(),
                 flags.Usage().c_str());
    return 2;
  }
  if (port <= 0) {
    std::fprintf(stderr, "--port is required\n%s", flags.Usage().c_str());
    return 2;
  }

  RunConfig config;
  config.host = host;
  config.port = static_cast<int>(port);
  config.connections = static_cast<int>(std::max(1LL, connections));
  config.requests_per_connection = requests_per_connection;
  config.duration_s = duration_s;
  config.qps = qps;
  config.check_generations = check_generations;
  config.no_keepalive = no_keepalive;

  if (mode == "once") return RunOnce(config, path);
  if (mode == "open") {
    if (qps <= 0) {
      std::fprintf(stderr, "--mode open requires --qps > 0\n");
      return 2;
    }
    config.open_loop = true;
  } else if (mode != "closed") {
    std::fprintf(stderr, "unknown --mode %s (closed | open | once)\n",
                 mode.c_str());
    return 2;
  }
  if (config.requests_per_connection <= 0 && config.duration_s <= 0) {
    std::fprintf(stderr,
                 "need --requests_per_connection or --duration_s\n");
    return 2;
  }

  std::vector<WorkerStats> stats(config.connections);
  const auto run_start = std::chrono::steady_clock::now();
  {
    std::vector<std::thread> workers;  // hlm-lint: allow(no-raw-thread)
    workers.reserve(config.connections);
    for (int c = 0; c < config.connections; ++c) {
      workers.emplace_back([&config, c, &stats] { RunWorker(config, c, &stats[c]); });
    }
    for (std::thread& worker : workers) {  // hlm-lint: allow(no-raw-thread)
      worker.join();
    }
  }
  const std::chrono::duration<double> run_elapsed =
      std::chrono::steady_clock::now() - run_start;

  long long total_requests = 0;
  long long total_failures = 0;
  long long total_regressions = 0;
  std::set<long long> generations;
  std::string first_error;
  for (const WorkerStats& worker : stats) {
    total_requests += worker.requests;
    total_failures += worker.failures;
    total_regressions += worker.generation_regressions;
    generations.insert(worker.generations_seen.begin(),
                       worker.generations_seen.end());
    if (first_error.empty()) first_error = worker.first_error;
  }
  const double elapsed_s = std::max(run_elapsed.count(), 1e-9);
  const double achieved_qps = static_cast<double>(total_requests) / elapsed_s;

  hlm::obs::HistogramSnapshot latency =
      hlm::obs::MetricsRegistry::Global()
          .GetHistogram("hlm.loadgen.request_seconds")
          ->Snapshot();
  hlm::obs::PercentileSummary summary =
      hlm::obs::SummarizePercentiles(latency);

  std::fprintf(stdout,
               "hlm_loadgen: mode=%s connections=%d requests=%lld "
               "failures=%lld elapsed_s=%.3f qps=%.1f\n",
               mode.c_str(), config.connections, total_requests,
               total_failures, elapsed_s, achieved_qps);
  std::fprintf(stdout,
               "hlm_loadgen: latency_s p50=%.6f p90=%.6f p99=%.6f "
               "max=%.6f\n",
               summary.p50, summary.p90, summary.p99, summary.max);
  if (check_generations) {
    std::fprintf(stdout,
                 "hlm_loadgen: generations=%zu regressions=%lld\n",
                 generations.size(), total_regressions);
  }

  int exit_code = 0;
  if (total_failures > 0) {
    std::fprintf(stderr, "hlm_loadgen: %lld failed requests; first: %s\n",
                 total_failures, first_error.c_str());
    exit_code = 1;
  }
  if (total_regressions > 0) exit_code = 1;
  if (min_qps > 0 && achieved_qps < min_qps) {
    std::fprintf(stderr, "hlm_loadgen: achieved %.1f QPS < required %.1f\n",
                 achieved_qps, min_qps);
    exit_code = 1;
  }
  if (check_generations &&
      static_cast<long long>(generations.size()) < expect_min_generations) {
    std::fprintf(stderr,
                 "hlm_loadgen: observed %zu distinct generations < "
                 "required %lld\n",
                 generations.size(), expect_min_generations);
    exit_code = 1;
  }
  if (!json_out.empty()) {
    RunReport report;
    report.mode = mode;
    report.connections = config.connections;
    report.elapsed_s = elapsed_s;
    report.offered_qps = config.open_loop ? config.qps : 0.0;
    report.achieved_qps = achieved_qps;
    report.requests = total_requests;
    report.failures = total_failures;
    report.generation_regressions = total_regressions;
    report.generations_seen = generations;
    report.latency = latency;
    report.summary = summary;
    report.exit_code = exit_code;
    hlm::Status written = WriteJsonReport(json_out, report);
    if (!written.ok()) {
      std::fprintf(stderr, "hlm_loadgen: %s\n", written.ToString().c_str());
      if (exit_code == 0) exit_code = 1;
    }
  }
  return exit_code;
}
