#include "gapsched/serve/protocol.hpp"

#include <arpa/inet.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/types.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>

namespace gapsched::serve {

namespace {

/// Splices a frame header into a one-line codec document: '{' + header +
/// ',' + the document's members.
std::string with_header(std::string head, std::string doc) {
  head += ',';
  doc.insert(1, head);
  return doc;
}

}  // namespace

std::string hello_frame(std::size_t shards, std::size_t solvers) {
  return "{\"frame\":\"hello\",\"server\":\"gapsched_serve\",\"protocol\":" +
         std::to_string(kProtocolVersion) +
         ",\"shards\":" + std::to_string(shards) +
         ",\"solvers\":" + std::to_string(solvers) + "}";
}

std::string request_frame(std::int64_t id, std::string_view solver,
                          const engine::SolveRequest& request,
                          double deadline_ms) {
  std::string head = "\"frame\":\"request\",\"id\":" + std::to_string(id);
  if (deadline_ms > 0.0) {
    head += ",\"deadline_ms\":";
    io::append_double(head, deadline_ms);
  }
  return with_header(std::move(head), io::request_to_json(solver, request));
}

std::string result_frame(std::int64_t id, const engine::SolveResult& result) {
  return with_header("\"frame\":\"result\",\"id\":" + std::to_string(id),
                     io::result_to_json(result));
}

std::string stats_request_frame() { return "{\"frame\":\"stats\"}"; }

std::string stats_frame(const io::ServerStatsWire& stats) {
  return with_header("\"frame\":\"stats\"", io::server_stats_to_json(stats));
}

std::string drain_frame() { return "{\"frame\":\"drain\"}"; }

std::string error_frame(std::int64_t id, std::string_view message) {
  std::string out = "{\"frame\":\"error\",\"id\":" + std::to_string(id) +
                    ",\"message\":";
  io::append_escaped(out, message);
  out += "}";
  return out;
}

// --------------------------------------------------------- LineBuffer --

LineBuffer::LineBuffer(std::size_t max_line) : max_line_(max_line) {}

bool LineBuffer::append(std::string_view bytes) {
  if (overflowed_) return false;
  buffer_.append(bytes);
  if (buffer_.size() - start_ > max_line_ &&
      buffer_.find('\n', start_) == std::string::npos) {
    overflowed_ = true;
    return false;
  }
  return true;
}

std::optional<std::string> LineBuffer::next() {
  for (;;) {
    const std::size_t nl = buffer_.find('\n', start_);
    if (nl == std::string::npos) {
      // Compact the consumed prefix away so long sessions stay bounded.
      if (start_ > 0) {
        buffer_.erase(0, start_);
        start_ = 0;
      }
      if (buffer_.size() > max_line_) overflowed_ = true;
      return std::nullopt;
    }
    std::string line = buffer_.substr(start_, nl - start_);
    start_ = nl + 1;
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (line.empty()) continue;  // blank keep-alive lines are skipped
    if (line.size() > max_line_) {
      overflowed_ = true;
      return std::nullopt;
    }
    return line;
  }
}

// ------------------------------------------------------- TCP plumbing --

bool parse_host_port(std::string_view spec, std::string* host, int* port) {
  const std::size_t colon = spec.rfind(':');
  if (colon == std::string_view::npos || colon == 0 ||
      colon + 1 >= spec.size()) {
    return false;
  }
  const std::string_view port_text = spec.substr(colon + 1);
  int value = 0;
  for (char c : port_text) {
    if (c < '0' || c > '9') return false;
    value = value * 10 + (c - '0');
    if (value > 65535) return false;
  }
  if (value <= 0) return false;
  *host = std::string(spec.substr(0, colon));
  *port = value;
  return true;
}

namespace {

bool resolve(const std::string& host, int port, sockaddr_in* addr,
             std::string* error) {
  std::memset(addr, 0, sizeof *addr);
  addr->sin_family = AF_INET;
  addr->sin_port = htons(static_cast<std::uint16_t>(port));
  const std::string node = host == "localhost" ? "127.0.0.1" : host;
  if (inet_pton(AF_INET, node.c_str(), &addr->sin_addr) != 1) {
    if (error != nullptr) {
      *error = "cannot resolve host '" + host + "' (IPv4 literal expected)";
    }
    return false;
  }
  return true;
}

}  // namespace

TcpStream::~TcpStream() { close(); }

TcpStream::TcpStream(TcpStream&& other) noexcept
    : fd_(std::exchange(other.fd_, -1)) {}

TcpStream& TcpStream::operator=(TcpStream&& other) noexcept {
  if (this != &other) {
    close();
    fd_ = std::exchange(other.fd_, -1);
  }
  return *this;
}

std::optional<TcpStream> TcpStream::connect(const std::string& host, int port,
                                            std::string* error) {
  sockaddr_in addr;
  if (!resolve(host, port, &addr, error)) return std::nullopt;
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    if (error != nullptr) *error = std::strerror(errno);
    return std::nullopt;
  }
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    if (error != nullptr) {
      *error = std::string(std::strerror(errno)) + " (" + host + ":" +
               std::to_string(port) + ")";
    }
    ::close(fd);
    return std::nullopt;
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  return TcpStream(fd);
}

bool TcpStream::send_all(std::string_view bytes, std::string* error) {
  while (!bytes.empty()) {
    const ssize_t sent =
        ::send(fd_, bytes.data(), bytes.size(), MSG_NOSIGNAL);
    if (sent < 0) {
      if (errno == EINTR) continue;
      if (error != nullptr) *error = std::strerror(errno);
      return false;
    }
    bytes.remove_prefix(static_cast<std::size_t>(sent));
  }
  return true;
}

long TcpStream::recv_some(char* buf, std::size_t cap) {
  for (;;) {
    const ssize_t got = ::recv(fd_, buf, cap, 0);
    if (got < 0 && errno == EINTR) continue;
    return static_cast<long>(got);
  }
}

void TcpStream::shutdown_write() {
  if (fd_ >= 0) ::shutdown(fd_, SHUT_WR);
}

void TcpStream::shutdown_both() {
  if (fd_ >= 0) ::shutdown(fd_, SHUT_RDWR);
}

void TcpStream::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

TcpListener::~TcpListener() {
  if (fd_ >= 0) ::close(fd_);
}

TcpListener::TcpListener(TcpListener&& other) noexcept
    : fd_(std::exchange(other.fd_, -1)), port_(other.port_) {}

TcpListener& TcpListener::operator=(TcpListener&& other) noexcept {
  if (this != &other) {
    if (fd_ >= 0) ::close(fd_);
    fd_ = std::exchange(other.fd_, -1);
    port_ = other.port_;
  }
  return *this;
}

std::optional<TcpListener> TcpListener::listen(const std::string& host,
                                               int port, std::string* error) {
  sockaddr_in addr;
  if (!resolve(host, port, &addr, error)) return std::nullopt;
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    if (error != nullptr) *error = std::strerror(errno);
    return std::nullopt;
  }
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0 ||
      ::listen(fd, 128) != 0) {
    if (error != nullptr) {
      *error = std::string(std::strerror(errno)) + " (" + host + ":" +
               std::to_string(port) + ")";
    }
    ::close(fd);
    return std::nullopt;
  }
  sockaddr_in bound;
  socklen_t len = sizeof bound;
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len) != 0) {
    if (error != nullptr) *error = std::strerror(errno);
    ::close(fd);
    return std::nullopt;
  }
  TcpListener listener;
  listener.fd_ = fd;
  listener.port_ = ntohs(bound.sin_port);
  return listener;
}

std::optional<TcpStream> TcpListener::accept() {
  if (fd_ < 0) return std::nullopt;
  const int fd = ::accept(fd_, nullptr, nullptr);
  if (fd < 0) return std::nullopt;  // closed or shut down
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  return TcpStream(fd);
}

void TcpListener::close() {
  // Shutdown (not close) so a concurrently blocked accept() returns
  // instead of racing the fd number; the destructor releases the fd.
  if (fd_ >= 0) ::shutdown(fd_, SHUT_RDWR);
}

// ------------------------------------------------------ ClientChannel --

std::optional<ClientChannel> ClientChannel::dial(const std::string& host,
                                                 int port,
                                                 std::string* error) {
  auto stream = TcpStream::connect(host, port, error);
  if (!stream.has_value()) return std::nullopt;
  ClientChannel channel;
  channel.stream_ = std::move(*stream);
  return channel;
}

bool ClientChannel::send(const std::string& frame, std::string* error) {
  return stream_.send_all(frame + "\n", error);
}

std::optional<std::string> ClientChannel::next_frame(std::string* error) {
  if (error != nullptr) error->clear();
  for (;;) {
    if (auto line = lines_.next(); line.has_value()) return line;
    if (lines_.overflowed()) {
      if (error != nullptr) *error = "oversized frame from peer";
      return std::nullopt;
    }
    char buf[16384];
    const long got = stream_.recv_some(buf, sizeof buf);
    if (got <= 0) {
      if (got < 0 && error != nullptr) *error = std::strerror(errno);
      return std::nullopt;  // EOF keeps *error empty
    }
    lines_.append(std::string_view(buf, static_cast<std::size_t>(got)));
  }
}

}  // namespace gapsched::serve
