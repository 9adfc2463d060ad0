#include "gapsched/serve/server.hpp"

#include <algorithm>
#include <chrono>
#include <optional>
#include <string>
#include <utility>

namespace gapsched::serve {

using Clock = std::chrono::steady_clock;

/// Per-connection state shared by its reader, its writer, and every shard
/// task it has in flight.
struct Server::Connection {
  Connection(TcpStream stream_in, std::size_t outbound_capacity,
             std::size_t max_frame_bytes)
      : stream(std::move(stream_in)),
        outbound(outbound_capacity),
        lines(max_frame_bytes) {}

  TcpStream stream;
  /// Completion-order frames awaiting the writer; bounded, so a slow
  /// client backpressures the shard workers producing for it.
  BoundedQueue<std::string> outbound;
  LineBuffer lines;  // reader-only reassembly buffer

  std::mutex mu;
  std::condition_variable idle_cv;
  std::size_t in_flight = 0;  // shard tasks not yet delivered

  void task_started() {
    std::lock_guard<std::mutex> lk(mu);
    ++in_flight;
  }
  void task_finished() {
    std::lock_guard<std::mutex> lk(mu);
    --in_flight;
    if (in_flight == 0) idle_cv.notify_all();
  }
  void wait_idle() {
    std::unique_lock<std::mutex> lk(mu);
    idle_cv.wait(lk, [&] { return in_flight == 0; });
  }
};

Server::Server(ServerOptions options)
    : options_(std::move(options)),
      engine_({.cache_capacity = options_.cache_capacity,
               .store_path = options_.store_path,
               .store_spill_min_ms = options_.store_spill_min_ms,
               .store_max_bytes = options_.store_max_bytes}) {
  if (options_.shards == 0) {
    const std::size_t hw = std::thread::hardware_concurrency();
    options_.shards = std::max<std::size_t>(1, std::min<std::size_t>(4, hw));
  }
}

Server::~Server() { drain(); }

std::size_t Server::shards() const { return options_.shards; }

bool Server::start(std::string* error) {
  if (options_.port < 0 || options_.port > 65535) {
    *error = "port " + std::to_string(options_.port) +
             " is outside [0, 65535]";
    return false;
  }
  if (options_.shards > kMaxShards) {
    *error = std::to_string(options_.shards) + " shards exceed the limit of " +
             std::to_string(kMaxShards);
    return false;
  }
  if (!engine_.store_error().empty()) {
    *error = engine_.store_error();
    return false;
  }
  auto listener = TcpListener::listen(options_.host, options_.port, error);
  if (!listener.has_value()) return false;
  listener_ = std::move(*listener);
  port_ = listener_.port();
  shard_states_.reserve(options_.shards);
  for (std::size_t i = 0; i < options_.shards; ++i) {
    shard_states_.push_back(std::make_unique<ShardState>());
    shard_states_.back()->tally.shard = static_cast<std::int64_t>(i);
  }
  shard_pool_ =
      std::make_unique<ShardPool>(options_.shards, options_.shard_queue);
  started_.store(true);
  acceptor_ = std::thread([this] { accept_loop(); });
  return true;
}

void Server::accept_loop() {
  for (;;) {
    auto stream = listener_.accept();
    if (!stream.has_value()) return;  // listener closed: drain under way
    if (draining_.load()) continue;   // racing connect during drain
    auto conn = std::make_shared<Connection>(std::move(*stream),
                                             options_.outbound_queue,
                                             options_.max_frame_bytes);
    std::lock_guard<std::mutex> lk(conns_mu_);
    reap_finished_locked();
    ConnEntry entry;
    entry.conn = conn;
    entry.reader = std::thread([this, conn] { reader_loop(conn); });
    entry.writer = std::thread([this, conn] { writer_loop(conn); });
    conns_.push_back(std::move(entry));
  }
}

void Server::reap_finished_locked() {
  // A finished connection has both queues settled: its writer exited
  // (outbound closed and drained) and its reader returned. joinable()
  // alone cannot tell, so probe cheaply: a connection whose outbound
  // queue is closed and whose in_flight is zero is joinable without
  // blocking the acceptor for long. Everything still live is left alone;
  // drain() joins the remainder.
  std::vector<ConnEntry> live;
  live.reserve(conns_.size());
  for (ConnEntry& entry : conns_) {
    bool idle = false;
    {
      std::lock_guard<std::mutex> clk(entry.conn->mu);
      idle = entry.conn->in_flight == 0;
    }
    if (idle && entry.conn.use_count() == 1) {
      // Only the registry holds it: both threads dropped their copies on
      // exit, so the joins below cannot block.
      if (entry.reader.joinable()) entry.reader.join();
      if (entry.writer.joinable()) entry.writer.join();
    } else {
      live.push_back(std::move(entry));
    }
  }
  conns_ = std::move(live);
}

void Server::writer_loop(const std::shared_ptr<Connection>& conn) {
  conn->outbound.push(hello_frame(options_.shards, registry().size()));
  bool broken = false;
  while (auto frame = conn->outbound.pop()) {
    if (broken) continue;  // doomed peer: drain the queue, free producers
    if (!conn->stream.send_all(*frame + "\n")) broken = true;
  }
  // Queue closed and drained: everything deliverable was flushed. Send
  // FIN (write half only) so the client sees EOF *after* the flushed
  // frames. Shutting the read half here would make the kernel RST the
  // connection if the client still has bytes in flight — destroying the
  // very results just queued for delivery.
  conn->stream.shutdown_write();
}

void Server::reader_loop(const std::shared_ptr<Connection>& conn) {
  char buf[16384];
  for (;;) {
    while (auto line = conn->lines.next()) handle_line(conn, *line);
    if (conn->lines.overflowed()) {
      conn->outbound.push(error_frame(
          -1, "frame exceeds " + std::to_string(options_.max_frame_bytes) +
                  " bytes; closing connection"));
      break;
    }
    const long got = conn->stream.recv_some(buf, sizeof buf);
    if (got <= 0) break;  // EOF or transport error
    conn->lines.append(std::string_view(buf, static_cast<std::size_t>(got)));
  }
  // Let every in-flight shard task deliver its result frame, then close
  // the outbound queue so the writer flushes and exits.
  conn->wait_idle();
  conn->outbound.close();
}

void Server::handle_line(const std::shared_ptr<Connection>& conn,
                         const std::string& line) {
  std::string error;
  const auto head = io::frame_head_from_json(line, &error);
  if (!head.has_value()) {
    conn->outbound.push(error_frame(-1, "bad frame: " + error));
    return;
  }
  if (head->frame == "request") {
    dispatch_request(conn, *head, line);
    return;
  }
  if (head->frame == "stats") {
    conn->outbound.push(stats_frame(stats()));
    return;
  }
  if (head->frame == "drain") {
    // Acknowledge, then record the request for the owning front end; the
    // actual drain() joins this very thread, so it must run elsewhere.
    conn->outbound.push(drain_frame());
    drain_requested_.store(true);
    drain_cv_.notify_all();
    return;
  }
  conn->outbound.push(
      error_frame(head->id, "unknown frame type '" + head->frame + "'"));
}

void Server::dispatch_request(const std::shared_ptr<Connection>& conn,
                              const FrameHead& head, const std::string& line) {
  if (head.id < 0) {
    conn->outbound.push(
        error_frame(-1, "request frame requires a non-negative id"));
    return;
  }
  if (draining_.load()) {
    conn->outbound.push(
        error_frame(head.id, "server draining; request rejected"));
    return;
  }
  std::string solver_name;
  std::string error;
  auto request = io::request_from_json(line, &solver_name, &error);
  if (!request.has_value()) {
    conn->outbound.push(error_frame(head.id, "bad request: " + error));
    return;
  }

  const engine::Solver* solver = registry().find(solver_name);
  const std::uint64_t key = solver != nullptr
                                ? shard_key(*solver, *request)
                                : shard_key(solver_name);
  const std::size_t shard = shard_of(key, options_.shards);

  std::optional<Clock::time_point> deadline;
  if (head.deadline_ms > 0.0) {
    deadline = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                  std::chrono::duration<double, std::milli>(
                                      head.deadline_ms));
  }

  conn->task_started();
  const std::int64_t id = head.id;
  const bool accepted = shard_pool_->submit(
      shard, [this, conn, shard, id, deadline, solver,
              solver_name = std::move(solver_name),
              request = std::move(*request)]() mutable {
        // One clock read decides both expiry and the remaining budget, so
        // a request that is not expired always gets a positive limit (a
        // limit <= 0 would read as "no limit").
        std::optional<double> remaining_s;
        if (deadline.has_value()) {
          remaining_s =
              std::chrono::duration<double>(*deadline - Clock::now()).count();
        }
        engine::SolveResult result;
        if (remaining_s.has_value() && *remaining_s <= 0.0) {
          // Expired while queued: answer timed_out instead of burning a
          // solver call the client already gave up on.
          result = engine::SolveResult::rejected(
              "deadline exceeded before solve (queue wait)");
          result.timed_out = true;
        } else {
          // The engine's budget is advisory (solvers are single-shot), but
          // it converts an over-deadline answer into a flagged timed_out
          // response rather than an unqualified success.
          if (remaining_s.has_value() &&
              (request.params.time_limit_s <= 0.0 ||
               *remaining_s < request.params.time_limit_s)) {
            request.params.time_limit_s = *remaining_s;
          }
          // The solver was looked up once, for the shard key; an unknown
          // name still gets the engine's rejection.
          result = solver != nullptr ? engine_.solve(*solver, request)
                                     : engine_.solve(solver_name, request);
        }
        {
          ShardState& state = *shard_states_[shard];
          std::lock_guard<std::mutex> lk(state.mu);
          state.tally.absorb(result);
        }
        conn->outbound.push(result_frame(id, result));
        conn->task_finished();
      });
  if (!accepted) {
    // The pool is draining: answer like any other drain-time rejection.
    conn->task_finished();
    conn->outbound.push(
        error_frame(head.id, "server draining; request rejected"));
  }
}

bool Server::wait_drain_requested(double timeout_s) {
  std::unique_lock<std::mutex> lk(drain_mu_);
  drain_cv_.wait_for(
      lk, std::chrono::duration<double>(timeout_s),
      [&] { return drain_requested_.load(); });
  return drain_requested_.load();
}

void Server::drain() {
  if (!started_.load()) return;
  if (drained_.exchange(true)) return;
  draining_.store(true);

  // 1. No new connections.
  listener_.close();
  if (acceptor_.joinable()) acceptor_.join();

  // 2. Complete everything already accepted onto a shard. Readers are
  //    still serving: new request frames bounce with an error frame
  //    (draining_ is set), stats/drain frames still answer.
  shard_pool_->drain();

  // 3. Flush and close every connection: closing the outbound queue makes
  //    the writer deliver what remains, send FIN, and exit. Only AFTER the
  //    writer is joined (everything flushed and FIN'd) is the read half
  //    forced down too, so a reader blocked in recv() on a lingering
  //    client exits instead of holding the drain hostage.
  {
    std::lock_guard<std::mutex> lk(conns_mu_);
    for (ConnEntry& entry : conns_) entry.conn->outbound.close();
    for (ConnEntry& entry : conns_) {
      if (entry.writer.joinable()) entry.writer.join();
      entry.conn->stream.shutdown_both();
      if (entry.reader.joinable()) entry.reader.join();
    }
    conns_.clear();
  }

  // 4. Everything answered is answered; make it durable too. A drained
  //    server must leave the store holding every qualifying solve it did.
  engine_.flush_store();
}

io::ServerStatsWire Server::stats() const {
  io::ServerStatsWire out;
  out.cache = engine_.cache_stats();
  for (std::size_t i = 0; i < shard_states_.size(); ++i) {
    const ShardState& state = *shard_states_[i];
    std::lock_guard<std::mutex> lk(state.mu);
    out.shards.push_back(state.tally);
    out.pipeline += state.tally;
  }
  return out;
}

}  // namespace gapsched::serve
