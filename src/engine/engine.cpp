#include "gapsched/engine/engine.hpp"

#include <algorithm>
#include <atomic>
#include <mutex>
#include <thread>
#include <utility>

#include "gapsched/parallel/thread_pool.hpp"

namespace gapsched::engine {

Engine::Engine(EngineOptions options)
    : options_(std::move(options)),
      registry_(SolverRegistry::create_with_builtins()) {
  if (!options_.cache) {
    if (!options_.store_path.empty()) {
      store_error_ = "store_path requires the cache";
    }
    return;
  }
  std::unique_ptr<store::DiskStore> store;
  if (!options_.store_path.empty()) {
    // Open failure leaves the engine memory-only: a corrupt or foreign
    // store file degrades persistence, never a solve.
    store = store::DiskStore::open(
        options_.store_path, {.max_bytes = options_.store_max_bytes},
        &store_error_);
  }
  cache_ = std::make_unique<SolveCache>(options_.cache_capacity,
                                        std::move(store),
                                        options_.store_spill_min_ms);
}

Engine::~Engine() = default;

SolveResult Engine::solve(std::string_view solver,
                          const SolveRequest& request) {
  if (const Solver* s = registry_->find(solver); s != nullptr) {
    return solve(*s, request);
  }
  return SolveResult::rejected("unknown solver '" + std::string(solver) +
                               "'");
}

SolveResult Engine::solve(const Solver& solver, const SolveRequest& request) {
  return solver.solve(request, cache_.get());
}

std::vector<SolveResult> Engine::solve_batch(
    const std::vector<BatchJob>& jobs) {
  return solve_stream(jobs, nullptr);
}

std::vector<SolveResult> Engine::solve_stream(
    const std::vector<BatchJob>& jobs, const StreamCallback& on_result) {
  std::vector<SolveResult> results(jobs.size());
  std::mutex callback_mu;
  std::atomic<std::size_t> next{0};
  const auto drain = [&] {
    for (std::size_t i = next.fetch_add(1); i < jobs.size();
         i = next.fetch_add(1)) {
      results[i] = solve(jobs[i].solver, jobs[i].request);
      if (on_result) {
        std::lock_guard<std::mutex> lk(callback_mu);
        on_result(i, results[i]);
      }
    }
  };
  // Whole requests run on threads scoped to this call, never on the
  // executor: a solve grows its thread's malloc arena, and the executor's
  // long-lived workers would keep that memory for the life of the process,
  // raising a server's peak RSS after one large batch. Components inside
  // each solve still fan out on the executor.
  const std::size_t width =
      std::min(options_.threads == 0 ? executor_threads() : options_.threads,
               jobs.size());
  std::vector<std::thread> threads;
  threads.reserve(width);
  for (std::size_t t = 0; t < width; ++t) threads.emplace_back(drain);
  for (std::thread& t : threads) t.join();
  return results;
}

CacheStats Engine::cache_stats() const {
  return cache_ != nullptr ? cache_->stats() : CacheStats{};
}

void Engine::clear_cache() {
  if (cache_ != nullptr) cache_->clear();
}

void Engine::flush_store() {
  if (cache_ != nullptr) cache_->flush_spill();
}

}  // namespace gapsched::engine
