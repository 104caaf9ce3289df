#include "serve/server.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include "common/snapshot.h"
#include "common/string_util.h"
#include "corpus/generator.h"
#include "math/rng.h"
#include "models/lda.h"
#include "obs/exposition.h"
#include "obs/flight_recorder.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "repr/representation.h"
#include "serve/http_client.h"
#include "serve/registry.h"
#include "serve/request_recorder.h"

namespace hlm::serve {
namespace {

std::string TempDirFor(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

/// Trains a tiny LDA + representation pair into `dir` and writes the
/// manifest. Cheap enough (40 companies, short Gibbs schedule) to run
/// once per test.
std::string BuildSnapshotDir(const std::string& dir) {
  std::filesystem::create_directories(dir);
  auto world = corpus::GenerateDefaultCorpus(40, 11);
  models::LdaConfig config;
  config.num_topics = 3;
  config.burn_in_iterations = 20;
  config.post_burn_in_samples = 4;
  models::LdaModel lda(world.corpus.num_categories(), config);
  EXPECT_TRUE(lda.Train(world.corpus.Sequences()).ok());
  EXPECT_TRUE(lda.SaveToFile(dir + "/lda.snap").ok());
  EXPECT_TRUE(repr::SaveRepresentation(
                  repr::LdaRepresentation(lda, world.corpus),
                  dir + "/lda_repr.snap")
                  .ok());
  ModelRegistry registry;
  EXPECT_TRUE(registry.Register("lda", ModelKind::kLda, "lda.snap").ok());
  EXPECT_TRUE(registry
                  .Register("lda-repr", ModelKind::kRepresentation,
                            "lda_repr.snap")
                  .ok());
  const std::string manifest = dir + "/manifest.txt";
  EXPECT_TRUE(registry.SaveManifest(manifest).ok());
  return manifest;
}

/// Republishes the manifest: rewrites it byte-identically through the
/// atomic writer, which bumps the mtime component of the stamp (what a
/// real `hlm_snapshot save` into the same dir does, minus retraining).
void RepublishManifest(const std::string& manifest) {
  std::ifstream in(manifest, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  in.close();
  std::ofstream out(manifest, std::ios::binary | std::ios::trunc);
  out << bytes;
}

Result<HttpResponse> Get(int port, const std::string& path) {
  auto client = HttpClient::Connect("127.0.0.1", port);
  if (!client.ok()) return client.status();
  return client.value().Get(path);
}

double GaugeValue(const std::string& name) {
  return obs::MetricsRegistry::Global().GetGauge(name)->value();
}

long long CounterValue(const std::string& name) {
  return obs::MetricsRegistry::Global().GetCounter(name)->value();
}

/// A numeric field of /proc/self/status ("Threads", "VmSize" in kB).
long long ProcStatusField(const std::string& field) {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(field + ":", 0) == 0) {
      std::istringstream value(line.substr(field.size() + 1));
      long long number = -1;
      value >> number;
      return number;
    }
  }
  return -1;
}

/// Polls `done` every 5 ms for up to `timeout_s`; true once it holds.
template <typename Predicate>
bool WaitFor(double timeout_s, Predicate done) {
  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double>(timeout_s));
  while (!done()) {
    if (std::chrono::steady_clock::now() >= deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return true;
}

/// A bare loopback socket, for tests that watch what the server does to
/// the connection itself (EOF, timeouts) rather than to one request.
/// Reads give up after 3 s so a wedged server fails the test instead of
/// hanging it.
int ConnectRaw(int port) {
  int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return -1;
  struct sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (::connect(fd, reinterpret_cast<struct sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  struct ::timeval tv;
  tv.tv_sec = 3;
  tv.tv_usec = 0;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  return fd;
}

bool SendRaw(int fd, const std::string& bytes) {
  size_t sent = 0;
  while (sent < bytes.size()) {
    ssize_t n = ::send(fd, bytes.data() + sent, bytes.size() - sent,
                       MSG_NOSIGNAL);
    if (n <= 0) return false;
    sent += static_cast<size_t>(n);
  }
  return true;
}

/// How a raw read ended: the peer closed (EOF or reset), or the
/// connection is still open (the expected bytes arrived, or the 3 s
/// client deadline expired).
enum class ReadEnd { kClosed, kOpen };

/// Reads until the peer closes, or until `stop_after` (when non-empty)
/// ends the bytes read so far.
ReadEnd ReadRaw(int fd, std::string* out, const std::string& stop_after = "") {
  while (true) {
    if (!stop_after.empty() && out->size() >= stop_after.size() &&
        out->compare(out->size() - stop_after.size(), stop_after.size(),
                     stop_after) == 0) {
      return ReadEnd::kOpen;
    }
    char chunk[4096];
    ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n > 0) {
      out->append(chunk, static_cast<size_t>(n));
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      return ReadEnd::kOpen;
    }
    return ReadEnd::kClosed;  // 0 = EOF; ECONNRESET also ends the stream
  }
}

/// Splits a byte stream of Content-Length-framed HTTP responses into
/// their status codes. False if the stream is not a whole number of
/// well-formed responses.
bool ResponseCodes(const std::string& stream, std::vector<int>* codes) {
  size_t at = 0;
  while (at < stream.size()) {
    const size_t head_end = stream.find("\r\n\r\n", at);
    if (head_end == std::string::npos) return false;
    const std::string head = stream.substr(at, head_end - at);
    if (head.rfind("HTTP/1.1 ", 0) != 0 || head.size() < 12) return false;
    Result<long long> code = ParseInt64(head.substr(9, 3));
    if (!code.ok()) return false;
    const size_t length_at = head.find("Content-Length: ");
    if (length_at == std::string::npos) return false;
    Result<long long> length = ParseInt64(
        head.substr(length_at + 16, head.find("\r\n", length_at) -
                                        (length_at + 16)));
    if (!length.ok()) return false;
    at = head_end + 4 + static_cast<size_t>(length.value());
    if (at > stream.size()) return false;
    codes->push_back(static_cast<int>(code.value()));
  }
  return true;
}

TEST(ServerTest, EndpointsServeJsonAndErrors) {
  const std::string dir = TempDirFor("server_endpoints");
  const std::string manifest = BuildSnapshotDir(dir);
  ServerConfig config;
  config.manifest_path = manifest;
  auto server = Server::Start(config);
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  const int port = server.value()->port();
  ASSERT_GT(port, 0);

  auto health = Get(port, "/healthz");
  ASSERT_TRUE(health.ok()) << health.status().ToString();
  EXPECT_EQ(health.value().status_code, 200);
  EXPECT_NE(health.value().body.find("\"generation\":"), std::string::npos);

  auto recommend = Get(port, "/v1/recommend?tokens=0,1&k=3");
  ASSERT_TRUE(recommend.ok());
  EXPECT_EQ(recommend.value().status_code, 200);
  EXPECT_NE(recommend.value().body.find("\"items\":["), std::string::npos);
  // Owned products are excluded from recommendations.
  EXPECT_EQ(recommend.value().body.find("{\"product\":0,"),
            std::string::npos);
  EXPECT_EQ(recommend.value().body.find("{\"product\":1,"),
            std::string::npos);

  auto similar = Get(port, "/v1/similar?company=2&k=3");
  ASSERT_TRUE(similar.ok());
  EXPECT_EQ(similar.value().status_code, 200);
  EXPECT_NE(similar.value().body.find("\"neighbors\":["),
            std::string::npos);

  auto topics = Get(port, "/v1/topics?tokens=0,1,2");
  ASSERT_TRUE(topics.ok());
  EXPECT_EQ(topics.value().status_code, 200);
  EXPECT_NE(topics.value().body.find("\"topics\":["), std::string::npos);

  auto statusz = Get(port, "/statusz");
  ASSERT_TRUE(statusz.ok());
  EXPECT_EQ(statusz.value().status_code, 200);
  EXPECT_NE(statusz.value().body.find("==== hlm statusz ===="),
            std::string::npos);
  auto statusz_json = Get(port, "/statusz?format=json");
  ASSERT_TRUE(statusz_json.ok());
  EXPECT_EQ(statusz_json.value().status_code, 200);
  EXPECT_EQ(statusz_json.value().body.front(), '{');

  // Errors: bad token list, out-of-range company, unknown endpoint.
  auto bad_tokens = Get(port, "/v1/recommend?tokens=abc");
  ASSERT_TRUE(bad_tokens.ok());
  EXPECT_EQ(bad_tokens.value().status_code, 400);
  auto bad_company = Get(port, "/v1/similar?company=100000");
  ASSERT_TRUE(bad_company.ok());
  EXPECT_EQ(bad_company.value().status_code, 400);
  auto not_found = Get(port, "/v1/nope");
  ASSERT_TRUE(not_found.ok());
  EXPECT_EQ(not_found.value().status_code, 404);

  // One keep-alive connection answers many requests.
  auto client = HttpClient::Connect("127.0.0.1", port);
  ASSERT_TRUE(client.ok());
  for (int i = 0; i < 10; ++i) {
    auto response = client.value().Get("/healthz");
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    EXPECT_EQ(response.value().status_code, 200);
  }
  server.value()->Stop();
}

TEST(ServerTest, ManualReloadSwapsGenerationExactlyWhenChanged) {
  const std::string dir = TempDirFor("server_reload");
  const std::string manifest = BuildSnapshotDir(dir);
  ServerConfig config;
  config.manifest_path = manifest;
  auto server = Server::Start(config);
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  const int initial_generation = server.value()->generation();
  ASSERT_GT(initial_generation, 0);

  // Unchanged manifest: no swap.
  auto unchanged = server.value()->ReloadIfChanged();
  ASSERT_TRUE(unchanged.ok());
  EXPECT_FALSE(unchanged.value());
  EXPECT_EQ(server.value()->generation(), initial_generation);

  RepublishManifest(manifest);
  auto reloaded = server.value()->ReloadIfChanged();
  ASSERT_TRUE(reloaded.ok()) << reloaded.status().ToString();
  EXPECT_TRUE(reloaded.value());
  EXPECT_GT(server.value()->generation(), initial_generation);

  // A manifest that breaks mid-publish keeps the old generation serving
  // and does not hammer the load path on every poll.
  const int good_generation = server.value()->generation();
  std::ofstream out(manifest, std::ios::binary | std::ios::trunc);
  out << "hlm-registry 1\nlda lda\n";  // truncated record
  out.close();
  auto broken = server.value()->ReloadIfChanged();
  EXPECT_FALSE(broken.ok());
  EXPECT_EQ(server.value()->generation(), good_generation);
  auto still_broken = server.value()->ReloadIfChanged();
  ASSERT_TRUE(still_broken.ok());  // same broken stamp: skipped, no error
  EXPECT_FALSE(still_broken.value());
  auto health = Get(server.value()->port(), "/healthz");
  ASSERT_TRUE(health.ok());
  EXPECT_EQ(health.value().status_code, 200);
  server.value()->Stop();
}

// A snapshot that passes its checksum can still carry a hostile shape
// (here 2^40 rows of width 0). Republishing one must fail the reload
// with a Status and keep the old generation answering, not abort.
TEST(ServerTest, HostileRepublishedSnapshotKeepsOldGenerationServing) {
  const std::string dir = TempDirFor("server_hostile_reload");
  const std::string manifest = BuildSnapshotDir(dir);
  ServerConfig config;
  config.manifest_path = manifest;
  auto server = Server::Start(config);
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  const int port = server.value()->port();
  const int good_generation = server.value()->generation();

  SnapshotWriter hostile("repr", 1);
  hostile.payload() << "1099511627776 0\n";
  ASSERT_TRUE(hostile.CommitToFile(dir + "/lda_repr.snap").ok());
  RepublishManifest(manifest);
  auto reloaded = server.value()->ReloadIfChanged();
  ASSERT_FALSE(reloaded.ok());
  EXPECT_EQ(reloaded.status().code(), StatusCode::kDataLoss)
      << reloaded.status().ToString();
  EXPECT_EQ(server.value()->generation(), good_generation);

  auto client = HttpClient::Connect("127.0.0.1", port);
  ASSERT_TRUE(client.ok());
  for (int company = 0; company < 10; ++company) {
    auto similar = client.value().Get("/v1/similar?company=" +
                                      std::to_string(company) + "&k=3");
    ASSERT_TRUE(similar.ok()) << similar.status().ToString();
    EXPECT_EQ(similar.value().status_code, 200);
  }
  server.value()->Stop();
}

// The tentpole race test: clients hammer every endpoint while the
// watcher republishes generations underneath them. Zero requests may
// fail, and no client may ever observe the generation move backwards.
// Run under -DHLM_SANITIZE=thread in tier-1 to certify the swap path.
TEST(ServerTest, HotReloadUnderLoadDropsNoRequests) {
  const std::string dir = TempDirFor("server_race");
  const std::string manifest = BuildSnapshotDir(dir);
  ServerConfig config;
  config.manifest_path = manifest;
  config.poll_interval_ms = 5;
  auto server = Server::Start(config);
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  const int port = server.value()->port();
  const int initial_generation = server.value()->generation();

  constexpr int kClients = 4;
  constexpr int kRequestsPerClient = 150;
  std::atomic<int> failures{0};
  std::atomic<int> regressions{0};
  std::atomic<long long> reconnects{0};

  auto client_loop = [&](int client_index) {
    auto client = HttpClient::Connect("127.0.0.1", port);
    if (!client.ok()) {
      failures.fetch_add(kRequestsPerClient);
      return;
    }
    long long last_generation = -1;
    for (int i = 0; i < kRequestsPerClient; ++i) {
      const char* path = (i + client_index) % 3 == 0
                             ? "/v1/recommend?tokens=0,1&k=3"
                             : ((i + client_index) % 3 == 1
                                    ? "/v1/similar?company=1&k=3"
                                    : "/healthz");
      auto response = client.value().Get(path);
      if (!response.ok() || response.value().status_code != 200) {
        failures.fetch_add(1);
        continue;
      }
      const std::string& body = response.value().body;
      size_t at = body.find("\"generation\":");
      if (at == std::string::npos) {
        failures.fetch_add(1);
        continue;
      }
      long long generation = std::atoll(body.c_str() + at + 13);
      if (generation < last_generation) regressions.fetch_add(1);
      if (generation > last_generation) last_generation = generation;
    }
    // A reload must not close a connection under the client.
    reconnects.fetch_add(client.value().reconnects());
  };

  std::vector<std::thread> clients;  // hlm-lint: allow(no-raw-thread)
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&client_loop, c] { client_loop(c); });
  }
  // Publisher: republish the manifest a handful of times mid-run so
  // several generation swaps land while requests are in flight.
  for (int publish = 0; publish < 5; ++publish) {
    std::this_thread::sleep_for(std::chrono::milliseconds(15));
    RepublishManifest(manifest);
  }
  for (std::thread& client : clients) {  // hlm-lint: allow(no-raw-thread)
    client.join();
  }

  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(regressions.load(), 0);
  EXPECT_EQ(reconnects.load(), 0);
  // The watcher picked up at least one republish (generations are
  // process-wide monotone, so any swap strictly increases it).
  for (int wait = 0; wait < 100; ++wait) {
    if (server.value()->generation() > initial_generation) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_GT(server.value()->generation(), initial_generation);
  server.value()->Stop();
}

TEST(ServerTest, HealthzServesJsonAndPlainText) {
  const std::string dir = TempDirFor("server_healthz");
  const std::string manifest = BuildSnapshotDir(dir);
  ServerConfig config;
  config.manifest_path = manifest;
  auto server = Server::Start(config);
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  const int port = server.value()->port();

  auto json = Get(port, "/healthz");
  ASSERT_TRUE(json.ok()) << json.status().ToString();
  EXPECT_EQ(json.value().status_code, 200);
  auto parsed = obs::JsonValue::Parse(json.value().body);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString() << "\n"
                           << json.value().body;
  const obs::JsonValue& doc = parsed.value();
  EXPECT_EQ(doc.Find("status")->AsString(), "ok");
  EXPECT_GE(doc.Find("generation")->AsNumber(), 1.0);
  EXPECT_GT(doc.Find("uptime_seconds")->AsNumber(), 0.0);
  EXPECT_GE(doc.Find("models_loaded")->AsNumber(), 2.0);

  // Plain probes (shell scripts, LB health checks) get the old body.
  auto text = Get(port, "/healthz?format=text");
  ASSERT_TRUE(text.ok());
  EXPECT_EQ(text.value().status_code, 200);
  EXPECT_EQ(text.value().body, "ok");
  server.value()->Stop();
}

TEST(ServerTest, MetricszServesValidatedExposition) {
  const std::string dir = TempDirFor("server_metricsz");
  const std::string manifest = BuildSnapshotDir(dir);
  ServerConfig config;
  config.manifest_path = manifest;
  auto server = Server::Start(config);
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  const int port = server.value()->port();

  // Drive a couple of real requests so the per-route series move.
  ASSERT_TRUE(Get(port, "/v1/recommend?tokens=0,1&k=3").ok());
  ASSERT_TRUE(Get(port, "/v1/nope").ok());

  auto scrape = Get(port, "/metricsz");
  ASSERT_TRUE(scrape.ok()) << scrape.status().ToString();
  EXPECT_EQ(scrape.value().status_code, 200);
  const std::string& body = scrape.value().body;
  Status valid = obs::ValidateExposition(body);
  EXPECT_TRUE(valid.ok()) << valid.ToString();
  // Per-route families appear under their sanitized exposition names,
  // pre-registered so the scrape schema is complete from the start.
  EXPECT_NE(body.find("# TYPE hlm_serve_http_recommend_requests_total "
                      "counter"),
            std::string::npos);
  EXPECT_NE(
      body.find("# TYPE hlm_serve_http_recommend_request_seconds histogram"),
      std::string::npos);
  EXPECT_NE(body.find("hlm_serve_http_other_status_4xx_total"),
            std::string::npos);
  EXPECT_NE(body.find("hlm_serve_trace_kept_total"), std::string::npos);
  server.value()->Stop();
}

TEST(ServerTest, StatuszJsonCarriesTheWindowSection) {
  const std::string dir = TempDirFor("server_window");
  const std::string manifest = BuildSnapshotDir(dir);
  ServerConfig config;
  config.manifest_path = manifest;
  auto server = Server::Start(config);
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  const int port = server.value()->port();

  auto statusz = Get(port, "/statusz?format=json");
  ASSERT_TRUE(statusz.ok()) << statusz.status().ToString();
  auto parsed = obs::JsonValue::Parse(statusz.value().body);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const obs::JsonValue* window = parsed.value().Find("window");
  ASSERT_NE(window, nullptr);
  EXPECT_DOUBLE_EQ(window->Find("window_s")->AsNumber(), 60.0);
  EXPECT_NE(window->Find("counter_deltas"), nullptr);
  EXPECT_NE(window->Find("histograms"), nullptr);
  server.value()->Stop();
}

// Connection churn must not grow the process: every connection reuses a
// pooled worker, so threads and address space stay flat. (The old
// thread-per-connection server leaked an 8 MB stack mapping per
// connection, about 16 GB of VmSize over this loop.)
TEST(ServerPoolTest, ChurnReusesBoundedWorkers) {
  const std::string dir = TempDirFor("server_pool_churn");
  const std::string manifest = BuildSnapshotDir(dir);
  ServerConfig config;
  config.manifest_path = manifest;
  config.max_connections = 4;
  auto server = Server::Start(config);
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  const int port = server.value()->port();
  // Fill the pool to its cap first. That one-time growth (per worker a
  // thread, its stack and, on glibc, a 64 MB malloc arena reservation)
  // is by design and depends on how the churn below races its workers
  // back to idle; what must not grow is anything per connection. The
  // held clients' departure also exercises the acceptor's wait for a
  // worker that has not yet read its client's EOF: a reconnect that
  // beats its worker back to idle must still be served, not refused.
  {
    std::vector<HttpClient> held;
    for (int c = 0; c < config.max_connections; ++c) {
      auto client = HttpClient::Connect("127.0.0.1", port);
      ASSERT_TRUE(client.ok()) << client.status().ToString();
      ASSERT_EQ(client.value().Get("/healthz").value().status_code, 200);
      held.push_back(std::move(client).value());
    }
  }
  const long long threads_before = ProcStatusField("Threads");
  const long long vm_kb_before = ProcStatusField("VmSize");
  const long long rejected_before =
      CounterValue("hlm.serve.server.connections_rejected_total");
  ASSERT_GT(threads_before, 0);
  ASSERT_GT(vm_kb_before, 0);

  constexpr int kConnections = 2000;
  int failures = 0;
  for (int i = 0; i < kConnections; ++i) {
    Result<HttpResponse> response = Get(port, "/healthz?format=text");
    if (!response.ok() || response.value().status_code != 200) ++failures;
  }
  EXPECT_EQ(failures, 0);
  EXPECT_EQ(CounterValue("hlm.serve.server.connections_rejected_total") -
                rejected_before,
            0);
  EXPECT_LE(ProcStatusField("Threads") - threads_before, 5);
  EXPECT_LT(ProcStatusField("VmSize") - vm_kb_before, 256 * 1024);
  server.value()->Stop();
}

// A client that closes and reconnects at once can beat its worker back
// to the idle stack (the worker has yet to read the EOF), so the pool
// looks full. The acceptor waits briefly for a worker instead of
// answering 503. Here the reconnect deterministically arrives first: it
// is accepted while the only worker still holds the old connection,
// which closes 5 ms later.
TEST(ServerPoolTest, ReconnectWaitsBrieflyForABusyWorker) {
  const std::string dir = TempDirFor("server_pool_reconnect_at_cap");
  const std::string manifest = BuildSnapshotDir(dir);
  ServerConfig config;
  config.manifest_path = manifest;
  config.max_connections = 1;
  auto server = Server::Start(config);
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  const int port = server.value()->port();
  const long long rejected_before =
      CounterValue("hlm.serve.server.connections_rejected_total");
  for (int round = 0; round < 5; ++round) {
    auto old_client = HttpClient::Connect("127.0.0.1", port);
    ASSERT_TRUE(old_client.ok()) << old_client.status().ToString();
    ASSERT_EQ(old_client.value().Get("/healthz").value().status_code, 200);
    const int fd = ConnectRaw(port);
    ASSERT_GE(fd, 0);
    ASSERT_TRUE(SendRaw(fd, "GET /healthz?format=text HTTP/1.1\r\n\r\n"));
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    old_client = Status::Internal("closed by the test");
    std::string response;
    EXPECT_EQ(ReadRaw(fd, &response, "\r\n\r\nok"), ReadEnd::kOpen);
    EXPECT_EQ(response.rfind("HTTP/1.1 200 OK\r\n", 0), 0u)
        << "round " << round << ": " << response;
    ::close(fd);
  }
  EXPECT_EQ(CounterValue("hlm.serve.server.connections_rejected_total") -
                rejected_before,
            0);
  server.value()->Stop();
}

// At the cap a further connection is answered 503 and counted; once a
// held connection leaves, its worker serves the next one.
TEST(ServerPoolTest, RejectsBeyondMaxConnectionsThenRecovers) {
  const std::string dir = TempDirFor("server_pool_cap");
  const std::string manifest = BuildSnapshotDir(dir);
  ServerConfig config;
  config.manifest_path = manifest;
  config.max_connections = 2;
  auto server = Server::Start(config);
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  const int port = server.value()->port();
  const long long rejected_before =
      CounterValue("hlm.serve.server.connections_rejected_total");
  const double open_before = GaugeValue("hlm.serve.server.connections_open");

  auto first = HttpClient::Connect("127.0.0.1", port);
  auto second = HttpClient::Connect("127.0.0.1", port);
  ASSERT_TRUE(first.ok() && second.ok());
  // One answered request each: both connections now own a worker.
  ASSERT_EQ(first.value().Get("/healthz").value().status_code, 200);
  ASSERT_EQ(second.value().Get("/healthz").value().status_code, 200);
  EXPECT_EQ(GaugeValue("hlm.serve.server.connections_open") - open_before,
            2.0);

  auto third = Get(port, "/healthz");
  ASSERT_TRUE(third.ok()) << third.status().ToString();
  EXPECT_EQ(third.value().status_code, 503);
  EXPECT_NE(third.value().body.find("max_connections"), std::string::npos);
  EXPECT_EQ(CounterValue("hlm.serve.server.connections_rejected_total") -
                rejected_before,
            1);
  // The held connections are unaffected.
  EXPECT_EQ(first.value().Get("/healthz").value().status_code, 200);

  // Closing one frees its worker (it sees EOF and rejoins the pool).
  first = Status::Internal("closed by the test");
  ASSERT_TRUE(WaitFor(2.0, [&] {
    return GaugeValue("hlm.serve.server.connections_open") - open_before ==
           1.0;
  }));
  auto fourth = Get(port, "/healthz");
  ASSERT_TRUE(fourth.ok()) << fourth.status().ToString();
  EXPECT_EQ(fourth.value().status_code, 200);
  EXPECT_EQ(CounterValue("hlm.serve.server.connections_rejected_total") -
                rejected_before,
            1);
  server.value()->Stop();
}

// A client that connects and says nothing is closed after the idle
// timeout, and its worker returns to the pool.
TEST(ServerPoolTest, IdleTimeoutClosesSilentClients) {
  const std::string dir = TempDirFor("server_pool_idle");
  const std::string manifest = BuildSnapshotDir(dir);
  ServerConfig config;
  config.manifest_path = manifest;
  config.idle_timeout_s = 0.2;
  auto server = Server::Start(config);
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  const double open_before = GaugeValue("hlm.serve.server.connections_open");

  const int fd = ConnectRaw(server.value()->port());
  ASSERT_GE(fd, 0);
  const auto start = std::chrono::steady_clock::now();
  std::string bytes;
  EXPECT_EQ(ReadRaw(fd, &bytes), ReadEnd::kClosed);
  const std::chrono::duration<double> waited =
      std::chrono::steady_clock::now() - start;
  EXPECT_TRUE(bytes.empty()) << bytes;
  EXPECT_LT(waited.count(), 1.0);
  ::close(fd);
  EXPECT_TRUE(WaitFor(1.0, [&] {
    return GaugeValue("hlm.serve.server.connections_open") == open_before;
  }));
  server.value()->Stop();
}

// The idle timeout closes a keep-alive connection between requests; the
// client finds it closed on its next request, reconnects once and is
// answered.
TEST(ServerPoolTest, KeepAliveClientReconnectsAfterIdleTimeout) {
  const std::string dir = TempDirFor("server_pool_reconnect");
  const std::string manifest = BuildSnapshotDir(dir);
  ServerConfig config;
  config.manifest_path = manifest;
  config.idle_timeout_s = 0.2;
  auto server = Server::Start(config);
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  const double open_before = GaugeValue("hlm.serve.server.connections_open");

  auto client = HttpClient::Connect("127.0.0.1", server.value()->port());
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  auto first = client.value().Get("/healthz");
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_EQ(first.value().status_code, 200);
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  ASSERT_TRUE(WaitFor(1.0, [&] {
    return GaugeValue("hlm.serve.server.connections_open") == open_before;
  })) << "the idle connection was not closed";

  auto second = client.value().Get("/healthz");
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_EQ(second.value().status_code, 200);
  EXPECT_EQ(client.value().reconnects(), 1);
  // The fresh connection is an ordinary keep-alive one.
  auto third = client.value().Get("/healthz");
  ASSERT_TRUE(third.ok()) << third.status().ToString();
  EXPECT_EQ(client.value().reconnects(), 1);
  server.value()->Stop();
}

TEST(ServerPoolTest, StartRejectsAnUnboundedOrEmptyPool) {
  const std::string dir = TempDirFor("server_pool_config");
  ServerConfig config;
  config.manifest_path = BuildSnapshotDir(dir);
  config.max_connections = 0;
  EXPECT_EQ(Server::Start(config).status().code(),
            StatusCode::kInvalidArgument);
  config.max_connections = 1;
  for (double timeout_s : {0.0, -1.0, std::nan("")}) {
    config.idle_timeout_s = timeout_s;
    EXPECT_EQ(Server::Start(config).status().code(),
              StatusCode::kInvalidArgument)
        << timeout_s;
  }
}

// Stop() must not wait out idle keep-alive clients: it shuts down the
// sockets workers own, and every client sees its connection end.
TEST(ServerPoolTest, StopEndsIdleKeepAliveConnectionsPromptly) {
  const std::string dir = TempDirFor("server_pool_stop");
  const std::string manifest = BuildSnapshotDir(dir);
  ServerConfig config;
  config.manifest_path = manifest;
  auto server = Server::Start(config);
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  const double open_before = GaugeValue("hlm.serve.server.connections_open");

  std::vector<int> fds;
  for (int c = 0; c < 3; ++c) {
    const int fd = ConnectRaw(server.value()->port());
    ASSERT_GE(fd, 0);
    fds.push_back(fd);
    ASSERT_TRUE(SendRaw(fd, "GET /healthz?format=text HTTP/1.1\r\n\r\n"));
    std::string response;
    ASSERT_EQ(ReadRaw(fd, &response, "\r\n\r\nok"), ReadEnd::kOpen);
    ASSERT_EQ(response.rfind("HTTP/1.1 200 OK\r\n", 0), 0u) << response;
  }
  std::atomic<bool> stopped{false};
  std::thread stopper([&] {  // hlm-lint: allow(no-raw-thread)
    server.value()->Stop();
    stopped.store(true);
  });
  EXPECT_TRUE(WaitFor(1.0, [&] { return stopped.load(); }))
      << "Stop() waited on idle keep-alive clients";
  for (int fd : fds) {
    if (stopped.load()) {
      std::string rest;
      EXPECT_EQ(ReadRaw(fd, &rest), ReadEnd::kClosed);
      EXPECT_TRUE(rest.empty()) << rest;
    }
    ::close(fd);  // also frees a Stop() that is still waiting
  }
  stopper.join();
  EXPECT_EQ(GaugeValue("hlm.serve.server.connections_open"), open_before);
}

// Seeded hostile-bytes property test over the request reader and
// parsers: truncated heads, a bare terminator, binary garbage with
// NULs, over-long heads and mangled token lists. Every connection must
// end in well-formed 4xx (or 200 for a request that happens to parse)
// responses or a plain close; afterwards the server still answers
// /healthz and holds no connection.
TEST(ServerPoolTest, HostileBytesGetErrorsOrCloseNeverACrash) {
  const std::string dir = TempDirFor("server_pool_hostile");
  const std::string manifest = BuildSnapshotDir(dir);
  ServerConfig config;
  config.manifest_path = manifest;
  auto server = Server::Start(config);
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  const int port = server.value()->port();
  const double open_before = GaugeValue("hlm.serve.server.connections_open");

  const std::string valid =
      "GET /v1/recommend?tokens=0,1&k=3 HTTP/1.1\r\nHost: hlm\r\n\r\n";
  Rng rng(20190326);
  auto random_bytes = [&rng](size_t n, const std::string& alphabet) {
    std::string out;
    for (size_t i = 0; i < n; ++i) {
      out.push_back(alphabet.empty()
                        ? static_cast<char>(rng.NextBounded(256))
                        : alphabet[rng.NextBounded(alphabet.size())]);
    }
    return out;
  };
  constexpr int kConnections = 300;
  for (int i = 0; i < kConnections; ++i) {
    const int kind = i % 5;
    std::string payload;
    bool may_succeed = false;
    switch (kind) {
      case 0:  // head cut before its terminator
        payload = valid.substr(0, rng.NextBounded(valid.size() - 3));
        break;
      case 1:  // nothing but the terminator
        payload = "\r\n\r\n";
        break;
      case 2:  // binary garbage, NULs included
        payload = random_bytes(1 + rng.NextBounded(512), "") + "\r\n\r\n";
        break;
      case 3:  // a head over the 64 KiB limit
        payload = "GET /" + std::string(70 * 1024, 'a');
        break;
      default: {  // a real route with a mangled token list and header
        const std::string token_chars("0123456789,-x\0", 14);
        payload = "GET /v1/recommend?tokens=" +
                  random_bytes(rng.NextBounded(24), token_chars) +
                  " HTTP/1.1\r\nX-Junk: " +
                  random_bytes(rng.NextBounded(40), "") + "\r\n\r\n";
        may_succeed = true;
        break;
      }
    }
    const int fd = ConnectRaw(port);
    ASSERT_GE(fd, 0) << "connection " << i;
    // An over-long head may be cut off by the server mid-send.
    const bool sent = SendRaw(fd, payload);
    EXPECT_TRUE(sent || kind == 3) << "connection " << i;
    ::shutdown(fd, SHUT_WR);
    std::string stream;
    EXPECT_EQ(ReadRaw(fd, &stream), ReadEnd::kClosed) << "connection " << i;
    ::close(fd);
    std::vector<int> codes;
    ASSERT_TRUE(ResponseCodes(stream, &codes))
        << "connection " << i << " kind " << kind << ": " << stream;
    for (int code : codes) {
      EXPECT_TRUE((code >= 400 && code < 500) || (may_succeed && code == 200))
          << "connection " << i << " kind " << kind << " answered " << code;
    }
    if (kind == 0 || kind == 3) {
      EXPECT_TRUE(codes.empty()) << "connection " << i << " kind " << kind;
    }
    if (kind == 1) {
      EXPECT_EQ(codes, std::vector<int>{400});
    }
  }

  auto health = Get(port, "/healthz");
  ASSERT_TRUE(health.ok()) << health.status().ToString();
  EXPECT_EQ(health.value().status_code, 200);
  EXPECT_TRUE(WaitFor(1.0, [&] {
    return GaugeValue("hlm.serve.server.connections_open") == open_before;
  }));
  server.value()->Stop();
}

TEST(RequestRecorderTest, CountsRoutesAndKeepsTails) {
  obs::MetricsRegistry& metrics = obs::MetricsRegistry::Global();
  auto value = [&](const std::string& name) {
    return metrics.GetCounter(name)->value();
  };
  const long long recommend_before =
      value("hlm.serve.http.recommend.requests_total");
  const long long recommend_2xx_before =
      value("hlm.serve.http.recommend.status_2xx_total");
  const long long similar_errors_before =
      value("hlm.serve.http.similar.errors_total");
  const long long similar_4xx_before =
      value("hlm.serve.http.similar.status_4xx_total");
  const long long kept_before = value("hlm.serve.trace.kept_total");
  const long long slow_before = value("hlm.serve.trace.slow_total");
  const long long sampled_before = value("hlm.serve.trace.sampled_total");

  RequestRecorderOptions options;
  options.slow_request_threshold_s = 0.05;
  options.sample_every = 3;
  RequestRecorder recorder(options);

  // Ordinals 1 and 2: fast, successful, unsampled — not kept.
  recorder.Record(Route::kRecommend, 200, 0.001, 1);
  recorder.Record(Route::kRecommend, 200, 0.001, 1);
  // Ordinal 3: the 1-in-3 sample fires — kept via sampling.
  recorder.Record(Route::kRecommend, 200, 0.001, 1);
  // Error: always kept, never double-counted as sampled.
  recorder.Record(Route::kSimilar, 404, 0.001, 1);
  // Slow: at/above the threshold — always kept.
  recorder.Record(Route::kTopics, 200, 0.2, 1);

  EXPECT_EQ(value("hlm.serve.http.recommend.requests_total") -
                recommend_before,
            3);
  EXPECT_EQ(value("hlm.serve.http.recommend.status_2xx_total") -
                recommend_2xx_before,
            3);
  EXPECT_EQ(value("hlm.serve.http.similar.errors_total") -
                similar_errors_before,
            1);
  EXPECT_EQ(value("hlm.serve.http.similar.status_4xx_total") -
                similar_4xx_before,
            1);
  EXPECT_EQ(value("hlm.serve.trace.kept_total") - kept_before, 3);
  EXPECT_EQ(value("hlm.serve.trace.slow_total") - slow_before, 1);
  EXPECT_EQ(value("hlm.serve.trace.sampled_total") - sampled_before, 1);
}

TEST(RequestRecorderTest, RouteForPathMatchesExactPathsOnly) {
  EXPECT_EQ(RouteForPath("/v1/recommend"), Route::kRecommend);
  EXPECT_EQ(RouteForPath("/v1/similar"), Route::kSimilar);
  EXPECT_EQ(RouteForPath("/v1/topics"), Route::kTopics);
  EXPECT_EQ(RouteForPath("/healthz"), Route::kHealthz);
  EXPECT_EQ(RouteForPath("/statusz"), Route::kStatusz);
  EXPECT_EQ(RouteForPath("/metricsz"), Route::kMetricsz);
  EXPECT_EQ(RouteForPath("/v1/nope"), Route::kOther);
  EXPECT_EQ(RouteForPath("/healthz2"), Route::kOther);
}

// A peer that completes the TCP handshake (listen backlog) but never
// reads or answers: the client's recv must fail with kDeadlineExceeded
// after io_timeout_s, not hang for the kernel default.
TEST(HttpClientTest, RecvTimeoutSurfacesAsDeadlineExceeded) {
  int listener = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(listener, 0);
  struct sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;
  ASSERT_EQ(::bind(listener, reinterpret_cast<struct sockaddr*>(&addr),
                   sizeof(addr)),
            0);
  ASSERT_EQ(::listen(listener, 1), 0);
  socklen_t len = sizeof(addr);
  ASSERT_EQ(::getsockname(listener,
                          reinterpret_cast<struct sockaddr*>(&addr), &len),
            0);
  const int port = ntohs(addr.sin_port);

  HttpClientOptions options;
  options.io_timeout_s = 0.2;
  auto client = HttpClient::Connect("127.0.0.1", port, options);
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  auto response = client.value().Get("/healthz");
  ASSERT_FALSE(response.ok());
  EXPECT_EQ(response.status().code(), StatusCode::kDeadlineExceeded)
      << response.status().ToString();
  ::close(listener);
}

}  // namespace
}  // namespace hlm::serve
