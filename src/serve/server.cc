#include "serve/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <fstream>
#include <map>
#include <mutex>
#include <sstream>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "cluster/distance.h"
#include "common/logging.h"
#include "common/snapshot.h"
#include "common/string_util.h"
#include "models/lda.h"
#include "obs/errors.h"
#include "obs/events.h"
#include "obs/exposition.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/statusz.h"
#include "obs/timeseries.h"
#include "obs/trace.h"
#include "recsys/similarity_search.h"
#include "serve/registry.h"
#include "serve/request_recorder.h"

namespace hlm::serve {

namespace {

/// Identity of one manifest version: inode mtime plus a content hash.
/// The mtime alone misses same-second rewrites; the hash alone misses
/// `touch`-style republish signals. Either differing counts as changed.
struct ManifestStamp {
  long long mtime_ns = -1;
  uint64_t content_hash = 0;

  bool operator==(const ManifestStamp& other) const {
    return mtime_ns == other.mtime_ns && content_hash == other.content_hash;
  }
};

Result<ManifestStamp> StampManifest(const std::string& manifest_path) {
  struct ::stat st;
  if (::stat(manifest_path.c_str(), &st) != 0) {
    return obs::TrackError(
        "serve", Status::NotFound("cannot stat manifest: " + manifest_path));
  }
  std::ifstream in(manifest_path, std::ios::binary);
  std::ostringstream bytes;
  bytes << in.rdbuf();
  if (!in.good() && !in.eof()) {
    return obs::TrackError(
        "serve", Status::DataLoss("cannot read manifest: " + manifest_path));
  }
  ManifestStamp stamp;
  stamp.mtime_ns =
      static_cast<long long>(st.st_mtim.tv_sec) * 1000000000LL +
      static_cast<long long>(st.st_mtim.tv_nsec);
  stamp.content_hash = Fnv1a64(bytes.str());
  return stamp;
}

/// One immutable serving bundle: the registry that owns the loaded
/// models, plus pre-resolved read-path handles. Built fully before
/// publication and never mutated after, so readers need no lock.
struct ServingSnapshot {
  ModelRegistry registry;
  const models::LdaModel* lda = nullptr;
  std::unique_ptr<recsys::SimilaritySearch> similarity;
  int generation = 0;
  ManifestStamp stamp;
};

Result<std::shared_ptr<const ServingSnapshot>> LoadSnapshot(
    const ServerConfig& config) {
  HLM_ASSIGN_OR_RETURN(ManifestStamp stamp,
                       StampManifest(config.manifest_path));
  auto bundle = std::make_shared<ServingSnapshot>();
  HLM_ASSIGN_OR_RETURN(bundle->registry,
                       ModelRegistry::FromManifest(config.manifest_path));
  HLM_ASSIGN_OR_RETURN(bundle->lda,
                       bundle->registry.Lda(config.recommend_model));
  HLM_ASSIGN_OR_RETURN(
      const std::vector<std::vector<double>>* rows,
      bundle->registry.Representation(config.similar_model));
  bundle->similarity = std::make_unique<recsys::SimilaritySearch>(
      *rows, cluster::DistanceKind::kCosine);
  bundle->generation = bundle->registry.generation();
  bundle->stamp = stamp;
  return std::shared_ptr<const ServingSnapshot>(std::move(bundle));
}

// ---------------------------------------------------------------------------
// Minimal HTTP/1.1 plumbing (GET + keep-alive is all the endpoints need).

struct HttpRequest {
  std::string method;
  std::string path;                          // target before '?'
  std::map<std::string, std::string> params; // decoded query pairs
  bool keep_alive = true;
};

const char* HttpStatusText(int code) {
  switch (code) {
    case 200: return "OK";
    case 400: return "Bad Request";
    case 404: return "Not Found";
    case 405: return "Method Not Allowed";
    case 503: return "Service Unavailable";
    default: return "Internal Server Error";
  }
}

std::string RenderResponse(int code, const std::string& content_type,
                           const std::string& body, bool keep_alive) {
  std::string head = "HTTP/1.1 " + std::to_string(code) + " " +
                     HttpStatusText(code) + "\r\n";
  head += "Content-Type: " + content_type + "\r\n";
  head += "Content-Length: " + std::to_string(body.size()) + "\r\n";
  head += keep_alive ? "Connection: keep-alive\r\n" : "Connection: close\r\n";
  head += "\r\n";
  return head + body;
}

bool SendAll(int fd, const std::string& data) {
  size_t sent = 0;
  while (sent < data.size()) {
    ssize_t n = ::send(fd, data.data() + sent, data.size() - sent,
                       MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    sent += static_cast<size_t>(n);
  }
  return true;
}

/// Reads one request's header block ("\r\n\r\n"-terminated) from a
/// keep-alive socket. `buffer` carries bytes read past the previous
/// request's terminator. Returns false on EOF, error, idle timeout
/// (EAGAIN under SO_RCVTIMEO) or an oversized header; a signal
/// (EINTR) is retried.
bool ReadRequestHead(int fd, std::string& buffer, std::string& head) {
  constexpr size_t kMaxHead = 64 * 1024;
  while (true) {
    size_t end = buffer.find("\r\n\r\n");
    if (end != std::string::npos) {
      head = buffer.substr(0, end);
      buffer.erase(0, end + 4);
      return true;
    }
    if (buffer.size() > kMaxHead) return false;
    char chunk[4096];
    ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    buffer.append(chunk, static_cast<size_t>(n));
  }
}

Result<HttpRequest> ParseRequestHead(const std::string& head) {
  std::istringstream lines(head);
  std::string request_line;
  if (!std::getline(lines, request_line)) {
    return Status::InvalidArgument("empty request");
  }
  if (!request_line.empty() && request_line.back() == '\r') {
    request_line.pop_back();
  }
  std::istringstream parts(request_line);
  HttpRequest request;
  std::string target, version;
  if (!(parts >> request.method >> target >> version)) {
    return Status::InvalidArgument("malformed request line: " + request_line);
  }
  size_t query_at = target.find('?');
  request.path = target.substr(0, query_at);
  if (query_at != std::string::npos) {
    for (std::string_view pair : Split(target.substr(query_at + 1), '&')) {
      size_t eq = pair.find('=');
      if (eq == std::string_view::npos) {
        request.params[std::string(pair)] = "";
      } else {
        request.params[std::string(pair.substr(0, eq))] =
            std::string(pair.substr(eq + 1));
      }
    }
  }
  // HTTP/1.1 defaults to keep-alive; only an explicit close drops it.
  std::string header;
  while (std::getline(lines, header)) {
    if (!header.empty() && header.back() == '\r') header.pop_back();
    std::string lower;
    lower.reserve(header.size());
    for (char c : header) {
      lower.push_back(c >= 'A' && c <= 'Z' ? static_cast<char>(c + 32) : c);
    }
    if (lower.find("connection:") == 0 &&
        lower.find("close") != std::string::npos) {
      request.keep_alive = false;
    }
  }
  return request;
}

Result<std::vector<models::Token>> ParseTokenList(const std::string& spec) {
  std::vector<models::Token> tokens;
  if (spec.empty()) return tokens;
  for (std::string_view item : Split(spec, ',')) {
    HLM_ASSIGN_OR_RETURN(long long value, ParseInt64(item));
    if (value < 0) {
      return Status::InvalidArgument("negative token id: " +
                                     std::string(item));
    }
    tokens.push_back(static_cast<models::Token>(value));
  }
  return tokens;
}

Result<int> ParseCountParam(const std::map<std::string, std::string>& params,
                            const std::string& key, int fallback) {
  auto it = params.find(key);
  if (it == params.end()) return fallback;
  HLM_ASSIGN_OR_RETURN(long long value, ParseInt64(it->second));
  if (value <= 0 || value > 1000000) {
    return Status::InvalidArgument(key + " out of range: " + it->second);
  }
  return static_cast<int>(value);
}

std::string JsonError(const Status& status) {
  return "{\"error\":" + obs::JsonQuote(status.message()) + "}";
}

/// How long the acceptor waits for a worker to come free before it
/// answers a connection at the cap with 503. Covers a worker that is
/// still reading its departed client's EOF, with room for a loaded or
/// sanitizer-slowed host.
constexpr std::chrono::milliseconds kRejectGrace(50);

}  // namespace

// ---------------------------------------------------------------------------

struct Server::Impl {
  ServerConfig config;
  int listen_fd = -1;
  int port = 0;

  /// The serving bundle; swapped wholesale on reload. Readers copy the
  /// shared_ptr once per request and keep the old bundle alive for the
  /// request's lifetime, so swaps never invalidate in-flight work. A
  /// plain mutex guards the pointer instead of atomic<shared_ptr>:
  /// libstdc++'s _Sp_atomic releases its internal spin lock with
  /// relaxed ordering on the load path, which ThreadSanitizer (and a
  /// strict reading of the memory model) flags as a race against the
  /// publishing store. The critical section is a single refcount bump.
  mutable std::mutex snapshot_mu;  // hlm-lint: allow(lock-discipline)
  std::shared_ptr<const ServingSnapshot> snapshot;

  std::atomic<bool> stopping{false};

  /// One pooled connection worker: created by the acceptor when no
  /// worker is idle, reused until Stop(). `handed_fd` and `active_fd`
  /// are guarded by conn_mu.
  struct Worker {
    std::thread thread;  // hlm-lint: allow(no-raw-thread)
    std::condition_variable wake;  // hlm-lint: allow(lock-discipline)
    int handed_fd = -1;  // accepted and handed over, not yet picked up
    int active_fd = -1;  // being served; Stop() shuts it down
  };

  /// Guards the pool (serving-side bookkeeping only; never held while
  /// answering a request). Only the acceptor appends to `workers`.
  std::mutex conn_mu;  // hlm-lint: allow(lock-discipline)
  std::vector<std::unique_ptr<Worker>> workers;
  /// Idle workers, most recently idled last: a handoff pops the back,
  /// so a light load keeps reusing one thread (and one malloc arena).
  std::vector<Worker*> idle;
  /// Signalled when a worker rejoins `idle`; the acceptor waits on it
  /// briefly before answering 503 at the cap.
  std::condition_variable worker_idled;  // hlm-lint: allow(lock-discipline)

  /// Serializes reload attempts (watcher vs. explicit ReloadIfChanged)
  /// and guards last_attempt.
  std::mutex reload_mu;  // hlm-lint: allow(lock-discipline)
  ManifestStamp last_attempt;

  /// Wakes the watcher out of its poll sleep at Stop().
  std::mutex watcher_mu;  // hlm-lint: allow(lock-discipline)
  std::condition_variable watcher_cv;

  std::thread accept_thread;   // hlm-lint: allow(no-raw-thread)
  std::thread watcher_thread;

  obs::Counter* reloads_total = nullptr;
  obs::Counter* connections_rejected_total = nullptr;
  obs::Gauge* generation_gauge = nullptr;
  obs::Gauge* connections_open = nullptr;
  std::unique_ptr<RequestRecorder> recorder;

  void InitMetrics() {
    obs::MetricsRegistry& metrics = obs::MetricsRegistry::Global();
    reloads_total = metrics.GetCounter("hlm.serve.server.reloads_total");
    connections_rejected_total =
        metrics.GetCounter("hlm.serve.server.connections_rejected_total");
    generation_gauge = metrics.GetGauge("hlm.serve.server.generation");
    connections_open =
        metrics.GetGauge("hlm.serve.server.connections_open");
    metrics.GetGauge("hlm.serve.server.port")
        ->Set(static_cast<double>(port));
    RequestRecorderOptions recorder_options;
    recorder_options.slow_request_threshold_s =
        config.slow_request_threshold_s;
    recorder_options.sample_every = config.trace_sample_every;
    recorder = std::make_unique<RequestRecorder>(recorder_options);
  }

  /// Feeds the global time-series collector one delta bucket when it is
  /// due. Called from the watcher loop every poll tick and from the
  /// introspection endpoints, so the windowed /statusz section stays
  /// populated whichever of the two is driving.
  void TickStats() {
    obs::TimeSeriesCollector& collector = obs::TimeSeriesCollector::Global();
    const double now_s = obs::NowMicros() / 1e6;
    if (!collector.ShouldRecord(now_s)) return;
    collector.Record(now_s, obs::MetricsRegistry::Global().Snapshot());
  }

  std::shared_ptr<const ServingSnapshot> CurrentSnapshot() const {
    std::lock_guard<std::mutex> lock(snapshot_mu);  // hlm-lint: allow(lock-discipline)
    return snapshot;
  }

  void PublishSnapshot(std::shared_ptr<const ServingSnapshot> bundle) {
    generation_gauge->Set(static_cast<double>(bundle->generation));
    std::lock_guard<std::mutex> lock(snapshot_mu);  // hlm-lint: allow(lock-discipline)
    snapshot = std::move(bundle);
  }

  Result<bool> ReloadIfChanged() {
    std::lock_guard<std::mutex> lock(reload_mu);  // hlm-lint: allow(lock-discipline)
    HLM_ASSIGN_OR_RETURN(ManifestStamp stamp,
                         StampManifest(config.manifest_path));
    if (stamp == CurrentSnapshot()->stamp || stamp == last_attempt) {
      return false;
    }
    // Remember the attempt before loading: a manifest that fails to
    // load is skipped until it changes again instead of being retried
    // (and error-counted) every poll tick.
    last_attempt = stamp;
    Result<std::shared_ptr<const ServingSnapshot>> loaded =
        LoadSnapshot(config);
    if (!loaded.ok()) {
      HLM_LOG(Warning) << "hot reload failed; keeping generation "
                       << CurrentSnapshot()->generation << ": "
                       << loaded.status().message();
      return loaded.status();
    }
    PublishSnapshot(loaded.value());
    reloads_total->Increment();
    HLM_EVENT("serve.server.reloaded",
              {{"generation", CurrentSnapshot()->generation}});
    return true;
  }

  // -- request handling -----------------------------------------------------

  std::string HandleTopics(const ServingSnapshot& bundle,
                           const HttpRequest& request, int* code) {
    auto tokens_it = request.params.find("tokens");
    Result<std::vector<models::Token>> tokens = ParseTokenList(
        tokens_it == request.params.end() ? "" : tokens_it->second);
    if (!tokens.ok()) {
      *code = 400;
      return JsonError(tokens.status());
    }
    for (models::Token token : tokens.value()) {
      if (token >= bundle.lda->vocab_size()) {
        *code = 400;
        return JsonError(Status::InvalidArgument(
            "token out of vocabulary: " + std::to_string(token)));
      }
    }
    std::vector<double> mixture =
        bundle.lda->InferTopicMixture(tokens.value());
    std::string body = "{\"generation\":" +
                       std::to_string(bundle.generation) + ",\"topics\":[";
    for (size_t i = 0; i < mixture.size(); ++i) {
      if (i > 0) body += ",";
      body += FormatDouble(mixture[i], 9);
    }
    body += "]}";
    return body;
  }

  std::string HandleRecommend(const ServingSnapshot& bundle,
                              const HttpRequest& request, int* code) {
    auto tokens_it = request.params.find("tokens");
    Result<std::vector<models::Token>> tokens = ParseTokenList(
        tokens_it == request.params.end() ? "" : tokens_it->second);
    if (!tokens.ok()) {
      *code = 400;
      return JsonError(tokens.status());
    }
    Result<int> k = ParseCountParam(request.params, "k", 5);
    if (!k.ok()) {
      *code = 400;
      return JsonError(k.status());
    }
    const int vocab = bundle.lda->vocab_size();
    std::vector<bool> owned(vocab, false);
    for (models::Token token : tokens.value()) {
      if (token >= vocab) {
        *code = 400;
        return JsonError(Status::InvalidArgument(
            "token out of vocabulary: " + std::to_string(token)));
      }
      owned[token] = true;
    }
    std::vector<double> scores =
        bundle.lda->NextProductDistribution(tokens.value());
    // Top-k unowned products by score; ties break toward the smaller
    // product id so responses are deterministic.
    std::vector<int> candidates;
    candidates.reserve(scores.size());
    for (int p = 0; p < static_cast<int>(scores.size()); ++p) {
      if (!owned[p]) candidates.push_back(p);
    }
    const size_t keep =
        std::min(candidates.size(), static_cast<size_t>(k.value()));
    std::partial_sort(candidates.begin(), candidates.begin() + keep,
                      candidates.end(), [&scores](int a, int b) {
                        if (scores[a] != scores[b]) {
                          return scores[a] > scores[b];
                        }
                        return a < b;
                      });
    candidates.resize(keep);
    std::string body = "{\"generation\":" +
                       std::to_string(bundle.generation) + ",\"items\":[";
    for (size_t i = 0; i < candidates.size(); ++i) {
      if (i > 0) body += ",";
      body += "{\"product\":" + std::to_string(candidates[i]) +
              ",\"score\":" + FormatDouble(scores[candidates[i]], 9) + "}";
    }
    body += "]}";
    return body;
  }

  std::string HandleSimilar(const ServingSnapshot& bundle,
                            const HttpRequest& request, int* code) {
    auto company_it = request.params.find("company");
    if (company_it == request.params.end()) {
      *code = 400;
      return JsonError(
          Status::InvalidArgument("missing required param: company"));
    }
    Result<long long> company = ParseInt64(company_it->second);
    if (!company.ok()) {
      *code = 400;
      return JsonError(company.status());
    }
    Result<int> k = ParseCountParam(request.params, "k", 5);
    if (!k.ok()) {
      *code = 400;
      return JsonError(k.status());
    }
    Result<std::vector<recsys::Neighbor>> neighbors =
        bundle.similarity->TopK(static_cast<int>(company.value()),
                                k.value());
    if (!neighbors.ok()) {
      *code = 400;
      return JsonError(neighbors.status());
    }
    std::string body = "{\"generation\":" +
                       std::to_string(bundle.generation) +
                       ",\"neighbors\":[";
    for (size_t i = 0; i < neighbors.value().size(); ++i) {
      const recsys::Neighbor& neighbor = neighbors.value()[i];
      if (i > 0) body += ",";
      body += "{\"company\":" + std::to_string(neighbor.company_id) +
              ",\"distance\":" + FormatDouble(neighbor.distance, 9) + "}";
    }
    body += "]}";
    return body;
  }

  /// Routes one parsed request; fills `code`/`content_type` (and the
  /// telemetry out-params `route`/`generation`) and returns the body.
  std::string Dispatch(const HttpRequest& request, int* code,
                       std::string* content_type, Route* route,
                       int* generation) {
    *code = 200;
    *content_type = "application/json";
    *route = RouteForPath(request.path);
    std::shared_ptr<const ServingSnapshot> bundle = CurrentSnapshot();
    *generation = bundle->generation;
    if (request.method != "GET") {
      *code = 405;
      return JsonError(
          Status::InvalidArgument("only GET is supported"));
    }
    if (request.path == "/healthz") {
      auto format = request.params.find("format");
      if (format != request.params.end() && format->second == "text") {
        *content_type = "text/plain";
        return "ok";
      }
      std::string body = "{\"status\":\"ok\",\"generation\":" +
                         std::to_string(bundle->generation);
      body += ",\"uptime_seconds\":" +
              FormatDouble(obs::NowMicros() / 1e6, 3);
      body += ",\"models_loaded\":" +
              std::to_string(bundle->registry.loaded_count()) + "}";
      return body;
    }
    if (request.path == "/statusz") {
      TickStats();
      auto format = request.params.find("format");
      if (format != request.params.end() && format->second == "json") {
        return obs::StatuszJson();
      }
      *content_type = "text/plain";
      return obs::StatuszText();
    }
    if (request.path == "/metricsz") {
      TickStats();
      *content_type = "text/plain; version=0.0.4; charset=utf-8";
      return obs::RenderPrometheusText(
          obs::MetricsRegistry::Global().Snapshot());
    }
    if (request.path == "/v1/topics") {
      return HandleTopics(*bundle, request, code);
    }
    if (request.path == "/v1/recommend") {
      return HandleRecommend(*bundle, request, code);
    }
    if (request.path == "/v1/similar") {
      return HandleSimilar(*bundle, request, code);
    }
    *code = 404;
    return JsonError(Status::NotFound("no such endpoint: " + request.path));
  }

  /// Answers requests on `fd` until the client leaves, errs, asks to
  /// close, or idles out. The calling worker owns and closes `fd`.
  void ServeConnection(int fd) {
    std::string buffer;
    while (!stopping.load(std::memory_order_relaxed)) {
      std::string head;
      if (!ReadRequestHead(fd, buffer, head)) break;
      // The span opens after the request head arrives (keep-alive idle
      // time is not request latency) and closes before the response
      // hits the wire bookkeeping below.
      obs::TraceSpan span("serve.http.request");
      const auto start = std::chrono::steady_clock::now();
      int code = 200;
      std::string content_type;
      std::string body;
      bool keep_alive = false;
      Route route = Route::kOther;
      int generation = -1;
      Result<HttpRequest> request = ParseRequestHead(head);
      if (!request.ok()) {
        code = 400;
        content_type = "application/json";
        body = JsonError(request.status());
      } else {
        keep_alive = request.value().keep_alive;
        body = Dispatch(request.value(), &code, &content_type, &route,
                        &generation);
      }
      const std::chrono::duration<double> elapsed =
          std::chrono::steady_clock::now() - start;
      recorder->Record(route, code, elapsed.count(), generation);
      if (!SendAll(fd, RenderResponse(code, content_type, body,
                                      keep_alive))) {
        break;
      }
      if (!keep_alive) break;
    }
  }

  /// One pooled worker: waits for a handed-over socket, serves it until
  /// the client leaves (or idles out), closes it, and goes back on top
  /// of the idle stack. Returns at Stop().
  void WorkerLoop(Worker* worker) {
    std::unique_lock<std::mutex> lock(conn_mu);  // hlm-lint: allow(lock-discipline)
    while (true) {
      worker->wake.wait(lock, [this, worker] {
        return worker->handed_fd >= 0 ||
               stopping.load(std::memory_order_relaxed);
      });
      if (worker->handed_fd < 0) return;  // Stop() closed anything pending
      const int fd = worker->handed_fd;
      worker->handed_fd = -1;
      worker->active_fd = fd;
      lock.unlock();
      ServeConnection(fd);
      connections_open->Adjust(-1.0);
      lock.lock();
      worker->active_fd = -1;
      ::close(fd);
      if (stopping.load(std::memory_order_relaxed)) return;
      idle.push_back(worker);
      worker_idled.notify_one();
    }
  }

  /// Answers a connection the pool has no room for: a fixed 503 that
  /// never blocks the acceptor, then close.
  void Reject(int fd) {
    static const std::string kBusy =
        RenderResponse(503, "application/json",
                       "{\"error\":\"server at max_connections\"}", false);
    connections_rejected_total->Increment();
    ::send(fd, kBusy.data(), kBusy.size(), MSG_NOSIGNAL | MSG_DONTWAIT);
    ::close(fd);
  }

  void AcceptLoop() {
    struct ::timeval idle_timeout;
    idle_timeout.tv_sec = static_cast<time_t>(config.idle_timeout_s);
    idle_timeout.tv_usec = static_cast<suseconds_t>(
        (config.idle_timeout_s - static_cast<double>(idle_timeout.tv_sec)) *
        1e6);
    // Start() rejects idle_timeout_s <= 0; a zero timeval would mean "no
    // timeout", so a sub-microsecond value rounds up to 1 us.
    if (idle_timeout.tv_sec == 0 && idle_timeout.tv_usec == 0) {
      idle_timeout.tv_usec = 1;
    }
    while (true) {
      int fd = ::accept4(listen_fd, nullptr, nullptr, SOCK_CLOEXEC);
      if (fd < 0) {
        if (stopping.load(std::memory_order_relaxed)) return;
        if (errno == EINTR || errno == ECONNABORTED) continue;
        if (errno == EMFILE || errno == ENFILE || errno == ENOBUFS ||
            errno == ENOMEM) {
          // Out of fds or memory for now: back off instead of spinning
          // or giving up on the listen socket.
          std::this_thread::sleep_for(std::chrono::milliseconds(10));
          continue;
        }
        HLM_LOG(Error) << "accept failed; no longer accepting: "
                       << std::strerror(errno);
        return;
      }
      int nodelay = 1;
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &nodelay, sizeof(nodelay));
      ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &idle_timeout,
                   sizeof(idle_timeout));
      ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &idle_timeout,
                   sizeof(idle_timeout));
      Worker* worker = nullptr;
      {
        std::unique_lock<std::mutex> lock(conn_mu);  // hlm-lint: allow(lock-discipline)
        if (idle.empty() &&
            static_cast<int>(workers.size()) >= config.max_connections) {
          // A worker that has sent its client's last response may not
          // have read that client's EOF yet, so a client that closes and
          // reconnects at once would find the pool full. Give such a
          // worker a moment before answering 503.
          worker_idled.wait_for(lock, kRejectGrace, [this] {
            return !idle.empty() || stopping.load(std::memory_order_relaxed);
          });
        }
        if (stopping.load(std::memory_order_relaxed)) {
          ::close(fd);
          return;
        }
        if (!idle.empty()) {
          worker = idle.back();
          idle.pop_back();
        } else if (static_cast<int>(workers.size()) <
                   config.max_connections) {
          workers.push_back(std::make_unique<Worker>());
          worker = workers.back().get();
          worker->thread =  // hlm-lint: allow(no-raw-thread)
              std::thread([this, worker] { WorkerLoop(worker); });
        }
        if (worker != nullptr) {
          worker->handed_fd = fd;
          connections_open->Adjust(1.0);
        }
      }
      if (worker == nullptr) {
        Reject(fd);
      } else {
        worker->wake.notify_one();
      }
    }
  }

  void WatcherLoop() {
    const auto interval = std::chrono::milliseconds(config.poll_interval_ms);
    while (true) {
      {
        std::unique_lock<std::mutex> lock(watcher_mu);  // hlm-lint: allow(lock-discipline)
        watcher_cv.wait_for(lock, interval, [this] {
          return stopping.load(std::memory_order_relaxed);
        });
      }
      if (stopping.load(std::memory_order_relaxed)) return;
      TickStats();
      Result<bool> swapped = ReloadIfChanged();
      if (!swapped.ok()) {
        // Already error-counted (TrackError) and logged; keep polling —
        // the next manifest version may load fine.
        continue;
      }
    }
  }

  void Stop() {
    {
      // Under conn_mu every fd has exactly one owner: a worker serving
      // it (shut down here, closed by that worker), a pending handoff
      // (closed here), or nobody (already closed -- never touched, so a
      // reused fd number is safe).
      std::lock_guard<std::mutex> lock(conn_mu);  // hlm-lint: allow(lock-discipline)
      if (stopping.exchange(true)) return;
      worker_idled.notify_one();  // an acceptor waiting at the cap
      for (const std::unique_ptr<Worker>& worker : workers) {
        if (worker->active_fd >= 0) ::shutdown(worker->active_fd, SHUT_RDWR);
        if (worker->handed_fd >= 0) {
          ::close(worker->handed_fd);
          worker->handed_fd = -1;
          connections_open->Adjust(-1.0);
        }
        worker->wake.notify_one();
      }
    }
    {
      std::lock_guard<std::mutex> lock(watcher_mu);  // hlm-lint: allow(lock-discipline)
    }
    watcher_cv.notify_all();
    // Shut down the listen socket to kick accept() out of its block.
    if (listen_fd >= 0) ::shutdown(listen_fd, SHUT_RDWR);
    if (accept_thread.joinable()) accept_thread.join();
    if (watcher_thread.joinable()) watcher_thread.join();
    // The acceptor alone grows the pool; with it joined, `workers` is
    // stable.
    for (const std::unique_ptr<Worker>& worker : workers) {
      if (worker->thread.joinable()) worker->thread.join();
    }
    if (listen_fd >= 0) {
      ::close(listen_fd);
      listen_fd = -1;
    }
    HLM_EVENT("serve.server.stopped", {{"port", port}});
  }
};

Server::Server() : impl_(std::make_unique<Impl>()) {}

Server::~Server() { Stop(); }

Result<std::unique_ptr<Server>> Server::Start(const ServerConfig& config) {
  if (config.manifest_path.empty()) {
    return obs::TrackError(
        "serve", Status::InvalidArgument("manifest_path must be set"));
  }
  if (config.max_connections < 1) {
    return obs::TrackError(
        "serve", Status::InvalidArgument("max_connections must be >= 1"));
  }
  if (!(config.idle_timeout_s > 0)) {
    return obs::TrackError(
        "serve", Status::InvalidArgument("idle_timeout_s must be > 0"));
  }
  std::unique_ptr<Server> server(new Server());
  Impl& impl = *server->impl_;
  impl.config = config;

  HLM_ASSIGN_OR_RETURN(std::shared_ptr<const ServingSnapshot> bundle,
                       LoadSnapshot(config));

  impl.listen_fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (impl.listen_fd < 0) {
    return obs::TrackError(
        "serve",
        Status::Internal(std::string("socket: ") + std::strerror(errno)));
  }
  int reuse = 1;
  ::setsockopt(impl.listen_fd, SOL_SOCKET, SO_REUSEADDR, &reuse,
               sizeof(reuse));
  struct sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(config.port));
  if (::bind(impl.listen_fd, reinterpret_cast<struct sockaddr*>(&addr),
             sizeof(addr)) != 0) {
    return obs::TrackError(
        "serve", Status::Internal("bind port " +
                                  std::to_string(config.port) + ": " +
                                  std::strerror(errno)));
  }
  if (::listen(impl.listen_fd, 128) != 0) {
    return obs::TrackError(
        "serve",
        Status::Internal(std::string("listen: ") + std::strerror(errno)));
  }
  socklen_t addr_len = sizeof(addr);
  if (::getsockname(impl.listen_fd,
                    reinterpret_cast<struct sockaddr*>(&addr),
                    &addr_len) != 0) {
    return obs::TrackError(
        "serve",
        Status::Internal(std::string("getsockname: ") +
                         std::strerror(errno)));
  }
  impl.port = static_cast<int>(ntohs(addr.sin_port));

  impl.InitMetrics();
  impl.PublishSnapshot(std::move(bundle));
  impl.last_attempt = impl.CurrentSnapshot()->stamp;

  impl.accept_thread =  // hlm-lint: allow(no-raw-thread)
      std::thread([&impl] { impl.AcceptLoop(); });
  if (config.poll_interval_ms > 0) {
    impl.watcher_thread =  // hlm-lint: allow(no-raw-thread)
        std::thread([&impl] { impl.WatcherLoop(); });
  }
  HLM_EVENT("serve.server.started",
            {{"port", impl.port},
             {"generation", impl.CurrentSnapshot()->generation}});
  return server;
}

int Server::port() const { return impl_->port; }

int Server::generation() const {
  return impl_->CurrentSnapshot()->generation;
}

Result<bool> Server::ReloadIfChanged() { return impl_->ReloadIfChanged(); }

void Server::Stop() { impl_->Stop(); }

}  // namespace hlm::serve
