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
/// transport failure.
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
  /// response. Any transport or parse failure poisons the connection
  /// (callers reconnect).
  Result<HttpResponse> Get(const std::string& path);

 private:
  explicit HttpClient(int fd, double io_timeout_s)
      : fd_(fd), io_timeout_s_(io_timeout_s) {}

  int fd_ = -1;
  double io_timeout_s_ = 0.0;  // for deadline-specific error text
  std::string buffer_;         // bytes read past the previous response
};

}  // namespace hlm::serve

#endif  // HLM_SERVE_HTTP_CLIENT_H_
