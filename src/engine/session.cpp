#include "gapsched/engine/session.hpp"

#include <algorithm>
#include <atomic>
#include <string>
#include <thread>

#include "gapsched/parallel/thread_pool.hpp"

namespace gapsched::engine {

Session::Session(const SolverRegistry& registry, SolveCache* cache,
                 std::size_t threads)
    : registry_(registry), cache_(cache), threads_(threads) {}

SolveResult Session::solve(std::string_view solver,
                           const SolveRequest& request) {
  const Solver* s = registry_.find(solver);
  if (s == nullptr) {
    SolveResult rejected =
        SolveResult::rejected("unknown solver '" + std::string(solver) + "'");
    record(rejected);
    return rejected;
  }
  return solve(*s, request);
}

SolveResult Session::solve(const Solver& solver, const SolveRequest& request) {
  SolveResult result = solver.solve(request, SolveHooks{cache_});
  record(result);
  return result;
}

std::vector<SolveResult> Session::solve_batch(
    const std::vector<BatchJob>& jobs) {
  return solve_stream(jobs, nullptr);
}

std::vector<SolveResult> Session::solve_stream(
    const std::vector<BatchJob>& jobs, const StreamCallback& on_result) {
  std::vector<SolveResult> results(jobs.size());
  // Resolve solver names up front so every entry hits the registry once and
  // worker threads only touch immutable Solver objects.
  std::vector<const Solver*> solvers(jobs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    solvers[i] = registry_.find(jobs[i].solver);
  }
  const SolveHooks hooks{cache_};
  std::mutex callback_mu;
  std::atomic<std::size_t> next{0};
  const auto drain = [&] {
    for (std::size_t i = next.fetch_add(1); i < jobs.size();
         i = next.fetch_add(1)) {
      results[i] = solvers[i] != nullptr
                       ? solvers[i]->solve(jobs[i].request, hooks)
                       : SolveResult::rejected("unknown solver '" +
                                               jobs[i].solver + "'");
      record(results[i]);
      if (on_result) {
        std::lock_guard<std::mutex> lk(callback_mu);
        on_result(i, results[i]);
      }
    }
  };
  // Whole requests run on threads scoped to this call, never on the
  // executor: a solve grows its thread's malloc arena, and the executor's
  // long-lived workers would keep that memory for the life of the process,
  // raising a server's peak RSS after one large batch. Components and DP
  // chunks inside each solve still fan out on the executor.
  const std::size_t width = std::min(
      threads_ == 0 ? executor_threads() : threads_, jobs.size());
  std::vector<std::thread> threads;
  threads.reserve(width);
  for (std::size_t t = 0; t < width; ++t) threads.emplace_back(drain);
  for (std::thread& t : threads) t.join();
  return results;
}

pipeline::PipelineStats Session::pipeline_stats() const {
  std::lock_guard<std::mutex> lk(stats_mu_);
  return stats_;
}

void Session::reset_pipeline_stats() {
  std::lock_guard<std::mutex> lk(stats_mu_);
  stats_ = pipeline::PipelineStats{};
}

void Session::record(const SolveResult& result) {
  std::lock_guard<std::mutex> lk(stats_mu_);
  stats_.absorb(result.stats);
}

}  // namespace gapsched::engine
