#include "serve/http_client.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <cerrno>
#include <cmath>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "common/string_util.h"

namespace hlm::serve {

namespace {

Status TransportError(const std::string& what) {
  return Status::Internal(what + ": " + std::strerror(errno));
}

/// Maps a failed send/recv result onto the right status: 0 is a peer
/// close (errno is stale then), and EAGAIN/EWOULDBLOCK on a socket
/// with SO_RCVTIMEO/SO_SNDTIMEO set means the deadline expired, not a
/// transport fault.
Status IoError(const std::string& what, double timeout_s, ssize_t n) {
  if (n == 0) return Status::Internal(what + ": connection closed by peer");
  if (errno == EAGAIN || errno == EWOULDBLOCK) {
    return Status::DeadlineExceeded(what + ": no data within " +
                                    FormatDouble(timeout_s, 3) + "s");
  }
  return TransportError(what);
}

/// A failed send/recv that means the peer closed or reset the
/// connection, as opposed to a deadline or a local fault.
bool PeerGone(ssize_t n) {
  return n == 0 || errno == ECONNRESET || errno == EPIPE;
}

struct ::timeval ToTimeval(double seconds) {
  struct ::timeval tv;
  tv.tv_sec = static_cast<time_t>(seconds);
  tv.tv_usec = static_cast<suseconds_t>(
      (seconds - std::floor(seconds)) * 1e6);
  return tv;
}

}  // namespace

Result<HttpClient> HttpClient::Connect(const std::string& host, int port,
                                       const HttpClientOptions& options) {
  int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return TransportError("socket");
  struct sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    return Status::InvalidArgument("not a dotted-quad address: " + host);
  }
  const std::string peer = host + ":" + std::to_string(port);
  if (options.connect_timeout_s > 0) {
    // Non-blocking connect bounded by poll: a blackholed peer fails in
    // connect_timeout_s instead of the kernel's minutes-long default.
    const int flags = ::fcntl(fd, F_GETFL, 0);
    ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
    int rc = ::connect(fd, reinterpret_cast<struct sockaddr*>(&addr),
                       sizeof(addr));
    if (rc != 0 && errno != EINPROGRESS) {
      ::close(fd);
      return TransportError("connect " + peer);
    }
    if (rc != 0) {
      struct ::pollfd pfd;
      pfd.fd = fd;
      pfd.events = POLLOUT;
      pfd.revents = 0;
      const int timeout_ms =
          static_cast<int>(options.connect_timeout_s * 1000.0);
      const int ready = ::poll(&pfd, 1, timeout_ms);
      if (ready == 0) {
        ::close(fd);
        return Status::DeadlineExceeded(
            "connect " + peer + ": no answer within " +
            FormatDouble(options.connect_timeout_s, 3) + "s");
      }
      int so_error = 0;
      socklen_t len = sizeof(so_error);
      if (ready < 0 ||
          ::getsockopt(fd, SOL_SOCKET, SO_ERROR, &so_error, &len) != 0 ||
          so_error != 0) {
        if (so_error != 0) errno = so_error;
        ::close(fd);
        return TransportError("connect " + peer);
      }
    }
    ::fcntl(fd, F_SETFL, flags);  // back to blocking for send/recv
  } else {
    if (::connect(fd, reinterpret_cast<struct sockaddr*>(&addr),
                  sizeof(addr)) != 0) {
      ::close(fd);
      return TransportError("connect " + peer);
    }
  }
  if (options.io_timeout_s > 0) {
    struct ::timeval tv = ToTimeval(options.io_timeout_s);
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
  }
  int nodelay = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &nodelay, sizeof(nodelay));
  return HttpClient(fd, host, port, options);
}

HttpClient::~HttpClient() {
  if (fd_ >= 0) ::close(fd_);
}

HttpClient::HttpClient(HttpClient&& other) noexcept
    : fd_(other.fd_),
      host_(std::move(other.host_)),
      port_(other.port_),
      options_(other.options_),
      answered_(other.answered_),
      reconnects_(other.reconnects_),
      buffer_(std::move(other.buffer_)) {
  other.fd_ = -1;
}

HttpClient& HttpClient::operator=(HttpClient&& other) noexcept {
  if (this != &other) {
    if (fd_ >= 0) ::close(fd_);
    fd_ = other.fd_;
    host_ = std::move(other.host_);
    port_ = other.port_;
    options_ = other.options_;
    answered_ = other.answered_;
    reconnects_ = other.reconnects_;
    buffer_ = std::move(other.buffer_);
    other.fd_ = -1;
  }
  return *this;
}

Result<HttpResponse> HttpClient::Get(const std::string& path) {
  if (fd_ < 0) return Status::FailedPrecondition("connection closed");
  const std::string request = "GET " + path +
                              " HTTP/1.1\r\nHost: hlm\r\n"
                              "Connection: keep-alive\r\n\r\n";
  bool peer_gone = false;
  Result<HttpResponse> response = Exchange(request, &peer_gone);
  if (!response.ok() && peer_gone && answered_) {
    // The server closed this keep-alive connection between requests
    // (its idle timeout) and never saw the request; a GET is safe to
    // send again, once, on a fresh connection.
    HLM_ASSIGN_OR_RETURN(HttpClient fresh, Connect(host_, port_, options_));
    std::swap(fd_, fresh.fd_);  // `fresh` closes the dead socket
    buffer_.clear();
    answered_ = false;
    ++reconnects_;
    response = Exchange(request, &peer_gone);
  }
  if (response.ok()) answered_ = true;
  return response;
}

Result<HttpResponse> HttpClient::Exchange(const std::string& request,
                                          bool* peer_gone) {
  const double io_timeout_s = options_.io_timeout_s;
  size_t sent = 0;
  while (sent < request.size()) {
    ssize_t n = ::send(fd_, request.data() + sent, request.size() - sent,
                       MSG_NOSIGNAL);
    if (n <= 0) {
      *peer_gone = PeerGone(n);
      return IoError("send", io_timeout_s, n);
    }
    sent += static_cast<size_t>(n);
  }

  // Read up to the end of the header block.
  size_t head_end;
  while ((head_end = buffer_.find("\r\n\r\n")) == std::string::npos) {
    char chunk[4096];
    ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (n <= 0) {
      *peer_gone = buffer_.empty() && PeerGone(n);
      return IoError("recv (headers)", io_timeout_s, n);
    }
    buffer_.append(chunk, static_cast<size_t>(n));
  }
  const std::string head = buffer_.substr(0, head_end);
  buffer_.erase(0, head_end + 4);

  HttpResponse response;
  long long content_length = -1;
  {
    size_t line_end = head.find("\r\n");
    const std::string status_line =
        head.substr(0, line_end == std::string::npos ? head.size()
                                                     : line_end);
    // "HTTP/1.1 200 OK" — the code is the second token.
    std::vector<std::string> parts = Split(status_line, ' ');
    if (parts.size() < 2) {
      return Status::DataLoss("malformed status line: " + status_line);
    }
    HLM_ASSIGN_OR_RETURN(long long code, ParseInt64(parts[1]));
    response.status_code = static_cast<int>(code);
    size_t pos = line_end == std::string::npos ? head.size() : line_end + 2;
    while (pos < head.size()) {
      size_t next = head.find("\r\n", pos);
      if (next == std::string::npos) next = head.size();
      std::string header = head.substr(pos, next - pos);
      pos = next + 2;
      std::string lower;
      lower.reserve(header.size());
      for (char c : header) {
        lower.push_back(c >= 'A' && c <= 'Z' ? static_cast<char>(c + 32)
                                             : c);
      }
      constexpr char kContentLength[] = "content-length:";
      if (lower.rfind(kContentLength, 0) == 0) {
        HLM_ASSIGN_OR_RETURN(
            content_length,
            ParseInt64(Trim(header.substr(sizeof(kContentLength) - 1))));
      }
    }
  }
  if (content_length < 0) {
    return Status::DataLoss("response without Content-Length");
  }
  while (buffer_.size() < static_cast<size_t>(content_length)) {
    char chunk[4096];
    ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (n <= 0) return IoError("recv (body)", io_timeout_s, n);
    buffer_.append(chunk, static_cast<size_t>(n));
  }
  response.body = buffer_.substr(0, static_cast<size_t>(content_length));
  buffer_.erase(0, static_cast<size_t>(content_length));
  return response;
}

}  // namespace hlm::serve
