#ifndef HLM_SERVE_SERVER_H_
#define HLM_SERVE_SERVER_H_

#include <memory>
#include <string>

#include "common/status.h"

namespace hlm::serve {

/// Configuration for one Server instance.
struct ServerConfig {
  /// Registry manifest the server bootstraps from (hlm_snapshot save).
  std::string manifest_path;

  /// TCP port to listen on; 0 binds an ephemeral port (read it back
  /// with Server::port()). Always bound on 127.0.0.1 — this is an
  /// in-process / same-host serving daemon, not an internet frontend.
  int port = 0;

  /// Manifest poll interval for the hot-reload watcher thread. <= 0
  /// disables the watcher entirely; reloads then only happen through
  /// explicit ReloadIfChanged() calls (what the bench suite and the
  /// deterministic tests do).
  int poll_interval_ms = 0;

  /// Registry model names the endpoints resolve at snapshot load.
  /// `recommend_model` must be an LDA snapshot (topics + conditional
  /// scorer); `similar_model` a representation matrix.
  std::string recommend_model = "lda";
  std::string similar_model = "lda-repr";

  /// Tail-sampling policy for per-request tracing (see
  /// serve/request_recorder.h): requests at or above the threshold, or
  /// with an error status, are always kept in the flight recorder;
  /// 1 in `trace_sample_every` of the rest is kept too.
  double slow_request_threshold_s = 0.25;
  long long trace_sample_every = 100;

  /// Cap on connection workers, and so on connections served at once.
  /// A connection accepted while every worker stays busy for a further
  /// 50 ms gets a 503 with `Connection: close` and counts in
  /// hlm.serve.server.connections_rejected_total. Must be >= 1.
  int max_connections = 64;

  /// A connection that sends nothing for this long is closed, freeing
  /// its worker (SO_RCVTIMEO/SO_SNDTIMEO on the accepted socket), so
  /// keep-alive clients must be ready to reconnect (HttpClient does).
  /// Must be > 0.
  double idle_timeout_s = 5.0;
};

/// Online recommendation server over a model-registry snapshot
/// directory (DESIGN.md "Serving").
///
/// Endpoints (HTTP/1.1, GET only, keep-alive):
///   /healthz                        JSON liveness: generation,
///                                   uptime_seconds, models_loaded
///                                   (?format=text returns plain "ok")
///   /statusz[?format=json]          the obs statusz surface, including
///                                   the windowed ("last 60 s") section
///   /metricsz                       Prometheus text exposition scrape
///   /v1/topics?tokens=1,2,3         LDA topic mixture for a history
///   /v1/recommend?tokens=1,2&k=5    top-k next products, owned excluded
///   /v1/similar?company=7&k=5       nearest companies by representation
///
/// Telemetry: every request is timed into the per-route
/// hlm.serve.http.<route>.* metrics (request_recorder.h), wrapped in a
/// serve.http.request trace span, and tail-sampled into the flight
/// recorder. The watcher thread (and the /statusz + /metricsz handlers)
/// tick the global TimeSeriesCollector, so windowed QPS/latency appear
/// whenever the server runs with a watcher or is scraped periodically.
///
/// Read path: every request copies the shared_ptr to one immutable
/// snapshot bundle (registry + eagerly-loaded models + similarity
/// index) under a mutex whose critical section is that refcount bump;
/// nothing else is locked while answering. A watcher thread polls the
/// manifest (mtime + content hash) and publishes a freshly loaded
/// bundle under the same mutex; in-flight requests keep their old
/// bundle alive, so generations can roll with zero dropped requests.
/// A manifest that fails to load is counted and skipped — the server
/// keeps answering from the previous generation.
///
/// Threading: one acceptor thread hands each accepted socket to the
/// most recently idled pooled worker, growing the pool lazily up to
/// config.max_connections (DESIGN.md §14 "Threading").
class Server {
 public:
  /// Loads the initial snapshot, binds + listens, and starts the
  /// accept loop (and the watcher when poll_interval_ms > 0). On error
  /// nothing is left running.
  static Result<std::unique_ptr<Server>> Start(const ServerConfig& config);

  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// The bound TCP port (the ephemeral port when config.port was 0).
  int port() const;

  /// Generation of the snapshot bundle currently answering requests
  /// (monotonically increasing across successful reloads).
  int generation() const;

  /// Manually runs one watcher iteration: reloads and swaps if the
  /// manifest changed since the serving bundle (or since the last
  /// failed attempt) and reports whether a swap happened. Safe to call
  /// concurrently with the watcher and with in-flight requests.
  Result<bool> ReloadIfChanged();

  /// Stops accepting, wakes blocked connections, joins every server
  /// thread. Idempotent; the destructor calls it.
  void Stop();

 private:
  Server();

  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace hlm::serve

#endif  // HLM_SERVE_SERVER_H_
