#pragma once
// gapsched::serve sharding layer — how a mega-batch of requests spreads
// across worker shards without losing the cache's dedup wins.
//
// Requests are routed by *canonical-key hash*: the same content digest the
// engine's solve cache keys by (solver + objective + consumed params +
// prep-canonicalized instance). Identical clusters — byte-identical after
// canonicalization, however they were shifted or permuted on the wire —
// therefore always land on the same shard, where they execute serially:
// the first one populates the shared SolveCache and every duplicate is a
// hit instead of a racing duplicate solve. Distinct content spreads
// uniformly, which is what load-balances the heterogeneous per-request
// latencies of the exact solver families.
//
// Each shard runs one worker thread over a *bounded* queue. A full queue
// blocks the producer (the connection reader), which stops reading the
// socket, which backs the TCP window up to the client — end-to-end
// backpressure with no unbounded buffering anywhere in the server.

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string_view>
#include <thread>
#include <vector>

#include "gapsched/engine/solver.hpp"
#include "gapsched/engine/types.hpp"

namespace gapsched::serve {

/// Content digest used for shard routing: the engine cache key's hash64
/// digest of (solver, objective, consumed params, canonicalized instance).
/// Canonical-equivalent requests — time-shifted or job-permuted copies —
/// share a key, so they share a shard and dedup in its cache walk.
std::uint64_t shard_key(const engine::Solver& solver,
                        const engine::SolveRequest& request);

/// Routing fallback for requests naming an unknown solver (they still
/// travel a shard to produce their rejection in order).
std::uint64_t shard_key(std::string_view solver_name);

/// Maps a key onto one of `shards` workers (shards >= 1).
std::size_t shard_of(std::uint64_t key, std::size_t shards);

/// A bounded multi-producer single-consumer queue. push() blocks while the
/// queue is at capacity — that block is the backpressure seam — and
/// returns false once the queue is closed. pop() blocks for the next item
/// and returns nullopt when the queue is closed *and* empty, so a closed
/// queue still drains everything that was accepted.
template <typename T>
class BoundedQueue {
 public:
  explicit BoundedQueue(std::size_t capacity)
      : capacity_(capacity == 0 ? 1 : capacity) {}

  bool push(T item) {
    std::unique_lock<std::mutex> lk(mu_);
    cv_space_.wait(lk,
                   [&] { return closed_ || items_.size() < capacity_; });
    if (closed_) return false;
    items_.push_back(std::move(item));
    cv_item_.notify_one();
    return true;
  }

  std::optional<T> pop() {
    std::unique_lock<std::mutex> lk(mu_);
    cv_item_.wait(lk, [&] { return closed_ || !items_.empty(); });
    if (items_.empty()) return std::nullopt;  // closed and drained
    T item = std::move(items_.front());
    items_.pop_front();
    cv_space_.notify_one();
    return item;
  }

  /// Stops accepting pushes; queued items remain poppable.
  void close() {
    std::lock_guard<std::mutex> lk(mu_);
    closed_ = true;
    cv_item_.notify_all();
    cv_space_.notify_all();
  }

  std::size_t size() const {
    std::lock_guard<std::mutex> lk(mu_);
    return items_.size();
  }

 private:
  const std::size_t capacity_;
  mutable std::mutex mu_;
  std::condition_variable cv_item_;
  std::condition_variable cv_space_;
  std::deque<T> items_;
  bool closed_ = false;
};

/// N worker shards, each a thread draining its own bounded task queue.
/// Tasks routed to one shard run serially in submission order; distinct
/// shards run concurrently. drain() closes every queue, lets the workers
/// finish everything already accepted, and joins them — no accepted task
/// is ever dropped.
class ShardPool {
 public:
  using Task = std::function<void()>;

  /// `shards` workers (>= 1 enforced), each with a `queue_capacity`-deep
  /// bounded queue.
  ShardPool(std::size_t shards, std::size_t queue_capacity);
  ~ShardPool();

  ShardPool(const ShardPool&) = delete;
  ShardPool& operator=(const ShardPool&) = delete;

  std::size_t shards() const { return workers_.size(); }

  /// Enqueues onto shard `shard` (mod shards()). Blocks while that
  /// shard's queue is full; false once the pool is draining.
  bool submit(std::size_t shard, Task task);

  /// Queue depth of one shard (diagnostic).
  std::size_t queued(std::size_t shard) const;

  /// Completes every accepted task, then joins the workers. Idempotent.
  void drain();

 private:
  std::vector<std::unique_ptr<BoundedQueue<Task>>> queues_;
  std::vector<std::thread> workers_;
  std::mutex drain_mu_;
  bool drained_ = false;
};

}  // namespace gapsched::serve
