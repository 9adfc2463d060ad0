#pragma once
// gapsched::engine::Session — the execution seam between a stateful front
// end and the staged solve pipeline (engine/pipeline.hpp).
//
// A Session owns the pipeline's per-deployment configuration and runtime:
//
//   * the SolveHooks environment every request is threaded through — the
//     content-addressed solve cache (owned by the caller, typically an
//     Engine; null disables sharing),
//   * the batch width: solve_batch/solve_stream run each batch on that many
//     threads of their own, spawned for the call and joined before it
//     returns,
//   * the lifetime PipelineStats roll-up: per-stage run/skip counts and
//     summed wall time of every request this session pushed through the
//     pipeline.
//
// Engine::solve / solve_batch / solve_stream all delegate here, and a
// server front end is expected to hold one Session per tenant (or one
// shared one) around the same registry and cache. The Session itself is
// thread-safe: concurrent solve()/solve_stream() calls share the cache and
// the stats roll-up under their own locks.

#include <cstddef>
#include <functional>
#include <mutex>
#include <string_view>
#include <vector>

#include "gapsched/engine/pipeline.hpp"
#include "gapsched/engine/registry.hpp"
#include "gapsched/engine/solver.hpp"
#include "gapsched/engine/types.hpp"

namespace gapsched::engine {

class SolveCache;

class Session {
 public:
  /// `registry` and `cache` are borrowed and must outlive the session;
  /// `cache` may be null (nothing shared across requests). `threads` is the
  /// number of threads a batch runs on (0 = hardware concurrency).
  Session(const SolverRegistry& registry, SolveCache* cache,
          std::size_t threads);

  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  /// One pipeline walk. Unknown names come back as a rejection. Every
  /// result — including rejections — is folded into pipeline_stats().
  SolveResult solve(std::string_view solver, const SolveRequest& request);
  SolveResult solve(const Solver& solver, const SolveRequest& request);

  /// Called once per completed entry with its request index. Invocations
  /// are serialized (no locking needed inside), but arrive in completion
  /// order, not request order; the returned vector restores request order.
  using StreamCallback =
      std::function<void(std::size_t index, const SolveResult& result)>;

  /// Bulk batch: results[i] answers jobs[i].
  std::vector<SolveResult> solve_batch(const std::vector<BatchJob>& jobs);

  /// Streaming batch: like solve_batch, delivering each result through
  /// `on_result` the moment it completes. A null callback degenerates to
  /// solve_batch.
  std::vector<SolveResult> solve_stream(const std::vector<BatchJob>& jobs,
                                        const StreamCallback& on_result);

  /// Snapshot of the lifetime per-stage roll-up (runs, skips, summed ms,
  /// absorbed request count).
  pipeline::PipelineStats pipeline_stats() const;
  void reset_pipeline_stats();

 private:
  /// Folds one finished result into the stats roll-up.
  void record(const SolveResult& result);

  const SolverRegistry& registry_;
  SolveCache* cache_;  // borrowed; null when caching is off
  std::size_t threads_;

  mutable std::mutex stats_mu_;
  pipeline::PipelineStats stats_;
};

}  // namespace gapsched::engine
