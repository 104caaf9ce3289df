#ifndef HLM_SERVE_HTTP_CLIENT_H_
#define HLM_SERVE_HTTP_CLIENT_H_

#include <string>

#include "common/status.h"

namespace hlm::serve {

/// One parsed HTTP response.
struct HttpResponse {
  int status_code = 0;
  std::string body;
};

/// Client-side deadlines. A stuck or wedged server must never hang
/// hlm_loadgen, hlm_statusz top, or a test forever: connect is bounded
/// by a poll()-based non-blocking handshake, send/recv by SO_SNDTIMEO /
/// SO_RCVTIMEO. <= 0 disables that bound.
struct HttpClientOptions {
  double connect_timeout_s = 5.0;
  double io_timeout_s = 5.0;
};

/// Minimal blocking HTTP/1.1 client over one keep-alive connection —
/// exactly what hlm_loadgen, hlm_statusz top, the serve bench suite, and
/// the server tests need to drive Server without an external dependency.
/// Not a general client: GET only, Content-Length responses only
/// (which is all Server emits). An expired deadline surfaces as a
/// kDeadlineExceeded status and poisons the connection like any other
/// transport failure. The server closes a keep-alive connection that
/// idles past its timeout, so Get() reconnects when it finds a reused
/// connection closed (see Get).
class HttpClient {
 public:
  /// Opens a TCP connection to host:port (host is a dotted-quad
  /// address, e.g. "127.0.0.1").
  static Result<HttpClient> Connect(const std::string& host, int port,
                                    const HttpClientOptions& options = {});

  ~HttpClient();

  HttpClient(HttpClient&& other) noexcept;
  HttpClient& operator=(HttpClient&& other) noexcept;
  HttpClient(const HttpClient&) = delete;
  HttpClient& operator=(const HttpClient&) = delete;

  /// Issues one GET on the persistent connection and reads the full
  /// response. When the connection has already answered a request and
  /// the peer turns out to have closed or reset it before any byte of
  /// this response, the GET is sent once more on a fresh connection.
  /// Any other transport or parse failure poisons the connection
  /// (callers reconnect).
  Result<HttpResponse> Get(const std::string& path);

  /// How many times Get() resent a request on a fresh connection. A
  /// client that never idles past the server's timeout expects 0.
  long long reconnects() const { return reconnects_; }

 private:
  HttpClient(int fd, const std::string& host, int port,
             const HttpClientOptions& options)
      : fd_(fd), host_(host), port_(port), options_(options) {}

  /// Sends `request` and reads one response on fd_. Sets `*peer_gone`
  /// when the failure is a peer close or reset seen before any
  /// response byte.
  Result<HttpResponse> Exchange(const std::string& request, bool* peer_gone);

  int fd_ = -1;
  std::string host_;  // where Get() reconnects
  int port_ = 0;
  HttpClientOptions options_;
  bool answered_ = false;  // fd_ has carried a complete response
  long long reconnects_ = 0;
  std::string buffer_;     // bytes read past the previous response
};

}  // namespace hlm::serve

#endif  // HLM_SERVE_HTTP_CLIENT_H_
