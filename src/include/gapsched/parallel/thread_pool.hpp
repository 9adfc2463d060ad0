#pragma once
// Minimal work-stealing-free thread pool: one FIFO queue, fixed workers.
// It backs every pool in the library — a Session's batch pool
// (Engine::solve_batch), the pipeline's shared Dispatch fan-out over
// decomposition components, and dp_pool() for the DP candidate scan — and
// the benchmark sweeps. Each solve is deterministic whatever the thread
// count: parallel callers only split independent work (requests,
// components, candidate branches) and merge it in a fixed order.

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace gapsched {

class ThreadPool {
 public:
  /// Spawns `threads` workers (defaults to hardware concurrency, min 1).
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueue a task. Tasks must not throw.
  void submit(std::function<void()> task);

  /// Block until every submitted task has finished.
  void wait_idle();

  std::size_t thread_count() const { return workers_.size(); }

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  std::queue<std::function<void()>> queue_;
  std::mutex mu_;
  std::condition_variable cv_task_;
  std::condition_variable cv_idle_;
  std::size_t in_flight_ = 0;
  bool stop_ = false;
};

/// Runs fn(i) for i in [0, n) across the pool and waits for completion.
/// fn must be safe to invoke concurrently for distinct i.
void parallel_for(ThreadPool& pool, std::size_t n,
                  const std::function<void(std::size_t)>& fn);

}  // namespace gapsched
