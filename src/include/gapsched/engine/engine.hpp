#pragma once
// gapsched::engine::Engine — the stateful front end of the solver engine,
// and the one every consumer (CLI, benches, tests, the server in
// serve/server.hpp) solves through.
//
// An Engine owns the cross-request state:
//
//   * its solver registry (every built-in family pre-registered; add() more
//     per engine without touching the process-wide instance()),
//   * a content-addressed solve cache (engine/cache.hpp), optionally backed
//     by a persistent store (store/store.hpp) that the cache owns and
//     reads through with an oracle re-audit: requests are keyed by the
//     canonical form of (prep-canonicalized — and, for gap components,
//     dead-time-compressed — instance, objective, the parameters the
//     solver consumes). Repeated solves, time-shifted or job-permuted
//     copies, and identical components inside one decomposed instance all
//     collapse onto one entry; SolveStats::cache_hit /
//     component_cache_hits / components_deduped report what was reused.
//     Cached entries store no audit state: a hit under params.validate is
//     re-audited against the requester's own instance by the independent
//     oracle.
//
// Every solve lands in Solver::solve(request, cache) with this engine's
// cache. The Engine keeps no roll-up of its results: whoever holds them
// folds them into a pipeline::PipelineStats. The Engine is thread-safe:
// concurrent callers share the cache under its own locks.
//
// Batches: solve_batch() is the bulk call — results[i] always answers
// jobs[i]. solve_stream() is the same with a completion callback — each
// SolveResult is delivered as it finishes (callback invocations are
// serialized, completion order is non-deterministic) while the returned
// vector keeps request order. Both run on `threads` threads scoped to the
// call. The server does not batch: each shard worker calls solve() for one
// request at a time.
//
// Determinism: with the cache DISABLED, batch results are bitwise
// reproducible at any thread count (solvers are single-threaded and
// deterministic). With the cache enabled, a canonical-equivalent request
// may be served from an entry another request populated, and whether it
// hits depends on cache state and completion timing — costs of exact
// families and all feasibility verdicts are unaffected (any served answer
// is optimal and oracle-checked), but heuristic families, being job-order
// sensitive, may return a different valid answer than a fresh solve
// would. Benches that require reproducible output use {.cache = false}.

#include <cstddef>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "gapsched/engine/cache.hpp"
#include "gapsched/engine/pipeline.hpp"
#include "gapsched/engine/registry.hpp"
#include "gapsched/engine/solver.hpp"
#include "gapsched/engine/types.hpp"

namespace gapsched::engine {

struct EngineOptions {
  /// Worker threads for solve_batch/solve_stream; 0 = hardware concurrency.
  std::size_t threads = 0;
  /// Enables the content-addressed solve cache.
  bool cache = true;
  /// Cache entry cap (LRU eviction); 0 = unbounded. Ignored when !cache.
  std::size_t cache_capacity = 4096;
  /// Path of the persistent on-disk solve store (store/store.hpp), shared
  /// across processes and restarts; empty keeps the cache memory-only.
  /// Opened (created when missing) at construction; an open failure is
  /// recorded in Engine::store_error() and the engine runs memory-only —
  /// a broken store file can cost speed, never correctness or startup.
  /// Requires cache; without it store_error() says so.
  std::string store_path = {};
  /// Cost-weighted spill admission: only entries whose solve wall time was
  /// at least this many ms are persisted (a cached 10 ms DP answer is
  /// worth a disk record; a 10 us one is not).
  double store_spill_min_ms = 0.1;
  /// Store file size budget in bytes; exceeding appends trigger
  /// keep-most-expensive compaction. 0 = unbounded.
  std::size_t store_max_bytes = 0;
};

class Engine {
 public:
  explicit Engine(EngineOptions options = {});
  ~Engine();

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  const EngineOptions& options() const { return options_; }

  /// This engine's registry (mutable so custom solvers can be add()ed
  /// per engine).
  SolverRegistry& registry() { return *registry_; }
  const SolverRegistry& registry() const { return *registry_; }

  /// One cache-aware solve. Unknown names come back as a rejection.
  SolveResult solve(std::string_view solver, const SolveRequest& request);
  SolveResult solve(const Solver& solver, const SolveRequest& request);

  /// Bulk batch: results[i] answers jobs[i]. Bitwise reproducible at any
  /// thread count when the cache is disabled; see the header comment for
  /// the cache-on determinism caveat.
  std::vector<SolveResult> solve_batch(const std::vector<BatchJob>& jobs);

  /// Called once per completed entry with its request index. Invocations
  /// are serialized (no locking needed inside), but arrive in completion
  /// order, not request order; the returned vector restores request order.
  using StreamCallback =
      std::function<void(std::size_t index, const SolveResult& result)>;

  /// Streaming batch: like solve_batch, delivering each result through
  /// `on_result` the moment it completes. A null callback degenerates to
  /// solve_batch.
  std::vector<SolveResult> solve_stream(const std::vector<BatchJob>& jobs,
                                        const StreamCallback& on_result);

  /// Hit/miss/eviction counters of the solve cache (zeros when disabled).
  /// With a store this includes the disk tier: disk_hits, disk_rejects,
  /// spilled, disk_entries.
  CacheStats cache_stats() const;
  /// Drops the in-memory cache tier; the persistent store is untouched.
  void clear_cache();

  /// The persistent store, if one was opened (null otherwise); owned by
  /// the cache.
  store::DiskStore* store() {
    return cache_ != nullptr ? cache_->store() : nullptr;
  }
  /// Why store_path could not be opened ("" when it was, or none was set).
  /// Non-empty exactly when store_path is set and store() is null.
  const std::string& store_error() const { return store_error_; }
  /// Blocks until every queued write-behind spill reached the store — the
  /// barrier to call before handing the store file to another process.
  void flush_store();

 private:
  EngineOptions options_;
  std::unique_ptr<SolverRegistry> registry_;
  std::string store_error_;
  std::unique_ptr<SolveCache> cache_;  // null when options_.cache is false
};

}  // namespace gapsched::engine
