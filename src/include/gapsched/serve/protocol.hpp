#pragma once
// gapsched::serve protocol layer — newline-delimited JSON frames over TCP.
//
// Every frame is one io/json.hpp document — the codec writes each on a
// single line — terminated by '\n', with a routing header spliced in
// front of the top-level object's members:
//
//   client -> server
//     {"frame":"request","id":7,"deadline_ms":2000, <request document>}
//     {"frame":"stats"}                 ask for the server's tallies
//     {"frame":"drain"}                 begin graceful server drain
//   server -> client
//     {"frame":"hello","server":..,"protocol":1,"shards":N,"solvers":M}
//     {"frame":"result","id":7, <result document>}     completion order!
//     {"frame":"stats", <server stats document>}
//     {"frame":"drain"}                 drain acknowledged
//     {"frame":"error","id":7,"message":"..."}         id -1 = no request
//
// The body fields live at the same top level as the header, so the
// io/json.hpp readers — which ignore unknown fields — parse a frame
// directly: io::frame_head_from_json for routing, then
// io::request_from_json / io::result_from_json / io::server_stats_from_json
// for the payload. One codec end to end.
//
// Responses stream back in *completion* order, not request order: exact
// solvers have wildly heterogeneous per-request latency, and holding a
// finished answer hostage to an older slow one would serialize the whole
// connection. The client contract is therefore: tag every request with a
// unique id, match each result frame by its id, and reorder locally
// (solver_cli --connect and perfbench's load client both do).
//
// This header also carries the minimal blocking TCP plumbing the server
// and the clients share (no third-party dependency): a listener, a stream,
// and the LineBuffer that turns a byte stream back into bounded frames.

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "gapsched/engine/types.hpp"
#include "gapsched/io/json.hpp"

namespace gapsched::serve {

/// Wire protocol revision; the hello frame carries it and clients refuse
/// to speak to a different one.
inline constexpr int kProtocolVersion = 1;

/// Frames larger than this are a protocol violation: the connection gets
/// one error frame and is closed (a line that never ends would otherwise
/// grow the reassembly buffer without bound).
inline constexpr std::size_t kDefaultMaxFrameBytes = 8u << 20;

// ---------------------------------------------------------- frame text --

/// {"frame":"hello",...}: protocol version, shard count, solver count.
std::string hello_frame(std::size_t shards, std::size_t solvers);

/// {"frame":"request","id":id,...}: a full request document with routing
/// header. `deadline_ms` <= 0 omits the deadline.
std::string request_frame(std::int64_t id, std::string_view solver,
                          const engine::SolveRequest& request,
                          double deadline_ms = 0.0);

/// {"frame":"result","id":id,...}: a full result document.
std::string result_frame(std::int64_t id, const engine::SolveResult& result);

/// {"frame":"stats"} with no body: the client-side stats request.
std::string stats_request_frame();

/// {"frame":"stats",...}: the server stats document.
std::string stats_frame(const io::ServerStatsWire& stats);

/// {"frame":"drain"}: request (client) or acknowledgement (server).
std::string drain_frame();

/// {"frame":"error","id":id,"message":...}; id -1 when the error is not
/// attributable to one request (malformed frame, drain rejection, ...).
std::string error_frame(std::int64_t id, std::string_view message);

/// Parsed routing header of one frame line (io::frame_head_from_json).
using FrameHead = io::FrameHead;

// --------------------------------------------------------- line frames --

/// Incremental newline splitter with a hard per-line bound. Feed raw
/// socket bytes with append(); take complete frames with next(). When a
/// line exceeds `max_line` the buffer enters a poisoned state: next()
/// reports the overflow once and the connection must be closed (framing
/// cannot be resynchronized after an unbounded line).
class LineBuffer {
 public:
  explicit LineBuffer(std::size_t max_line = kDefaultMaxFrameBytes);

  /// Appends raw bytes. Returns false when the buffer is poisoned by an
  /// over-long line (bytes are dropped from then on).
  bool append(std::string_view bytes);

  /// Next complete line without its '\n' (empty lines are skipped as
  /// keep-alives); nullopt when no full line is buffered.
  std::optional<std::string> next();

  bool overflowed() const { return overflowed_; }

 private:
  std::size_t max_line_;
  std::string buffer_;
  std::size_t start_ = 0;  // consumed prefix, compacted lazily
  bool overflowed_ = false;
};

// ------------------------------------------------------- TCP plumbing --

/// Splits "host:port"; false on a malformed spec.
bool parse_host_port(std::string_view spec, std::string* host, int* port);

/// A connected blocking socket (move-only RAII over the fd).
class TcpStream {
 public:
  TcpStream() = default;
  explicit TcpStream(int fd) : fd_(fd) {}
  ~TcpStream();

  TcpStream(TcpStream&& other) noexcept;
  TcpStream& operator=(TcpStream&& other) noexcept;
  TcpStream(const TcpStream&) = delete;
  TcpStream& operator=(const TcpStream&) = delete;

  /// Blocking connect to host:port (IPv4 dotted or "localhost").
  static std::optional<TcpStream> connect(const std::string& host, int port,
                                          std::string* error);

  bool valid() const { return fd_ >= 0; }

  /// Sends every byte (loops over partial writes, SIGPIPE suppressed).
  bool send_all(std::string_view bytes, std::string* error = nullptr);

  /// Blocking read into `buf`; > 0 bytes, 0 on orderly EOF, < 0 on error.
  long recv_some(char* buf, std::size_t cap);

  /// Half-close: flush-side FIN (SHUT_WR). The peer sees EOF after
  /// receiving everything already sent; data it is still sending is NOT
  /// destroyed (unlike shutting the read side, which RSTs late arrivals).
  void shutdown_write();

  /// Shuts down both directions (unblocks a peer's recv) without
  /// releasing the fd.
  void shutdown_both();

  void close();

 private:
  int fd_ = -1;
};

/// A listening socket. close() only shuts the socket down so a blocked
/// accept() returns cleanly; the fd is released by the destructor.
class TcpListener {
 public:
  TcpListener() = default;
  ~TcpListener();

  TcpListener(TcpListener&& other) noexcept;
  TcpListener& operator=(TcpListener&& other) noexcept;
  TcpListener(const TcpListener&) = delete;
  TcpListener& operator=(const TcpListener&) = delete;

  /// Binds and listens on host:port; port 0 picks an ephemeral port
  /// (report it back through port()).
  static std::optional<TcpListener> listen(const std::string& host, int port,
                                           std::string* error);

  bool valid() const { return fd_ >= 0; }
  int port() const { return port_; }

  /// Blocking accept; nullopt once the listener was close()d.
  std::optional<TcpStream> accept();

  void close();

 private:
  int fd_ = -1;
  int port_ = 0;
};

/// Blocking frame-level client connection: dial, send frames, read frames.
/// Shared by solver_cli --connect and the tests.
class ClientChannel {
 public:
  static std::optional<ClientChannel> dial(const std::string& host, int port,
                                           std::string* error);

  bool send(const std::string& frame, std::string* error = nullptr);

  /// Blocks for the next complete frame line. nullopt with *error set on
  /// a malformed peer (oversized line) or transport error; nullopt with
  /// an empty *error on orderly EOF.
  std::optional<std::string> next_frame(std::string* error = nullptr);

  void close() { stream_.close(); }

 private:
  TcpStream stream_;
  LineBuffer lines_;
};

}  // namespace gapsched::serve
