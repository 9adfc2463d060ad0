#include "gapsched/serve/shard.hpp"

#include <utility>

#include "gapsched/core/hash.hpp"
#include "gapsched/engine/cache.hpp"
#include "gapsched/prep/prep.hpp"

namespace gapsched::serve {

std::uint64_t shard_key(const engine::Solver& solver,
                        const engine::SolveRequest& request) {
  // The whole-instance cache key digest: routing granularity matches the
  // cache's whole-solve entries, so identical mega-batch clusters always
  // meet on one shard. (Decomposition components key separately inside
  // the pipeline; routing at whole-request granularity is what keeps one
  // request on one worker.)
  const prep::Canonical canon = prep::canonicalize(request.instance);
  return engine::make_cache_key(solver.info(), request.objective,
                                request.params, canon.instance)
      .digest;
}

std::uint64_t shard_key(std::string_view solver_name) {
  return fnv1a64(solver_name);
}

std::size_t shard_of(std::uint64_t key, std::size_t shards) {
  if (shards <= 1) return 0;
  // Fibonacci multiplicative spread: the cache digest's low bits are
  // already well mixed, but cheap insurance against modulo bias costs one
  // multiply.
  return static_cast<std::size_t>((key * 11400714819323198485ull) >> 32) %
         shards;
}

ShardPool::ShardPool(std::size_t shards, std::size_t queue_capacity) {
  const std::size_t n = shards == 0 ? 1 : shards;
  queues_.reserve(n);
  workers_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    queues_.push_back(std::make_unique<BoundedQueue<Task>>(queue_capacity));
  }
  for (std::size_t i = 0; i < n; ++i) {
    workers_.emplace_back([queue = queues_[i].get()] {
      while (auto task = queue->pop()) {
        (*task)();
      }
    });
  }
}

ShardPool::~ShardPool() { drain(); }

bool ShardPool::submit(std::size_t shard, Task task) {
  return queues_[shard % queues_.size()]->push(std::move(task));
}

std::size_t ShardPool::queued(std::size_t shard) const {
  return queues_[shard % queues_.size()]->size();
}

void ShardPool::drain() {
  {
    std::lock_guard<std::mutex> lk(drain_mu_);
    if (drained_) return;
    drained_ = true;
  }
  for (auto& queue : queues_) queue->close();
  for (auto& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
}

}  // namespace gapsched::serve
