#pragma once
// gapsched::engine::pipeline — the staged solve path behind Solver::solve.
//
// Every request walks the same seven named stages, in order:
//
//   Canonicalize → Decompose → Compress → CacheLookup → Dispatch
//                                                → Recombine → Audit
//
// Each stage is a small unit operating on an explicit per-request
// SolveContext (the request, its canonical form, the component set, cache
// keys and hits, the partial results, and per-stage timings) instead of
// locals threaded through one monolithic function.
//
// There is one route. Every request is canonicalized and split into
// m >= 1 components, and every later stage works on that component set:
//
//   * additive requests — an exact family, a gap or power objective,
//     SolveParams::decompose set, and n >= 2 — are cut wherever job
//     clusters lie far apart (prep::decompose) and dead-time compressed at
//     the objective's length-aware cap unless SolveParams::compress is
//     cleared;
//   * every other request gets the identity decomposition: one component
//     that is the canonical form itself (also for n = 0), cap 0.
//
// Which stages run — recorded in SolveStats::stages, so a caller can see
// exactly which parts of the pipeline served its answer — depends only on
// the cache, the cap, and which components hit:
//
//   * Canonicalize, Decompose and Recombine run for every request;
//   * Compress runs when the cap is positive and some component is not
//     already in compressed form;
//   * CacheLookup runs whenever the caller passed a SolveCache. It hands
//     SolveCache::lookup each component's key together with the instance
//     that key hashes, the objective, the params and the solver's
//     exactness, so a record read through from the cache's store is always
//     re-audited by the oracle before it serves;
//   * Dispatch runs the family adapter on the components the cache did
//     not serve, and is skipped when it served them all. A lone
//     uncompressed component is solved as the requester's original
//     instance, so job-order-sensitive heuristics answer exactly as they
//     would without a cache; its schedule is stored in component
//     coordinates;
//   * Recombine merges the parts and maps them back to the requester's
//     job ids and origin;
//   * Audit re-derives the answer with the independent oracle under
//     params.validate.
//
// The only cross-request state is the SolveCache an Engine passes to
// Solver::solve. The pipeline itself is stateless across requests; a null
// cache is the stateless solve path.

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "gapsched/core/transforms.hpp"
#include "gapsched/engine/cache.hpp"
#include "gapsched/engine/solver.hpp"
#include "gapsched/engine/types.hpp"
#include "gapsched/prep/prep.hpp"

namespace gapsched::engine::pipeline {

/// Explicit per-request state of one pipeline walk. Created by
/// Pipeline::run, filled in stage by stage; owns every intermediate the
/// stages exchange so nothing is threaded through function locals.
struct SolveContext {
  SolveContext(const Solver& solver_in, const SolveRequest& request_in,
               SolveCache* cache_in)
      : solver(solver_in), request(request_in), cache(cache_in) {}

  const Solver& solver;
  const SolveRequest& request;
  /// The cross-request solve cache; null shares nothing.
  SolveCache* cache;

  // ---- Canonicalize product; Decompose moves from it ----
  /// The request's one instance copy: every later stage rewrites it in
  /// place instead of copying it again.
  prep::Canonical canon;

  // ---- Decompose / Compress products ----
  /// The components own the canonical jobs, moved out of `canon` and
  /// shifted in place. Each component's instance (compressed in place when
  /// Compress ran) is what CacheLookup hashes and audits and Dispatch
  /// solves; Dispatch may move it out, and nothing reads it after.
  prep::Decomposition dec;
  /// Length-aware dead-time cap for Compress; 0 disables compression.
  Time cap = 0;
  /// Per component: only the time maps (`instance` is empty), since
  /// Compress rewrote the component itself. Both maps stay empty (the
  /// identity) when the cap is 0 or the component was already in
  /// compressed form.
  std::vector<CompressedInstance> compressed;

  // ---- CacheLookup products ----
  std::vector<CacheKey> keys;
  /// Components left to genuinely solve / served from the cross-request
  /// cache / intra-request duplicates of an earlier component.
  std::vector<std::size_t> to_solve;
  std::vector<std::size_t> hit_components;
  std::vector<std::size_t> dup_of;

  // ---- Dispatch / Recombine products ----
  /// Per component: its fresh solve, or the cache's shared entry itself.
  std::vector<std::shared_ptr<const SolveResult>> parts;
  /// Prep/caching stats aggregated across stages, folded into the final
  /// result by Recombine.
  SolveStats agg;

  /// The answer under construction; final after Recombine + Audit.
  SolveResult result;

  /// Per-stage wall time and ran/skipped verdicts, copied into
  /// result.stats.stages when the walk completes.
  std::array<StageStats, kPipelineStageCount> stages{};
};

/// The staged request pipeline. `run` drives the fixed stage sequence over
/// a fresh SolveContext; the per-stage units are private — callers go
/// through Solver::solve, directly or from an Engine.
class Pipeline {
 public:
  /// Walks all seven stages for one pre-validated request (Solver::check
  /// must have passed) and returns the finished result, stage timings
  /// included.
  static SolveResult run(const Solver& solver, const SolveRequest& request,
                         SolveCache* cache);

 private:
  static void canonicalize(SolveContext& ctx);
  static void decompose(SolveContext& ctx);
  static void compress(SolveContext& ctx);
  static void cache_lookup(SolveContext& ctx);
  static void dispatch(SolveContext& ctx);
  static void recombine(SolveContext& ctx);
  static void audit(SolveContext& ctx);
};

/// Tallies of one pipeline stage across the results a roll-up absorbed:
/// how often it ran, how often the pipeline skipped it, and the summed
/// wall time of the runs.
struct StageTally {
  std::uint64_t runs = 0;
  std::uint64_t skips = 0;
  double total_ms = 0.0;
};

/// The one roll-up of finished results. Whoever holds results folds them
/// (a server shard, the CLI, a bench); the Engine keeps none. Each flag
/// counts on its own: a rejected result that timed out counts in both
/// `rejected` and `timed_out`.
struct PipelineStats {
  /// Results absorbed. Requests rejected at Solver::check never enter the
  /// pipeline and show up as an all-skip row.
  std::uint64_t requests = 0;
  std::uint64_t rejected = 0;  // !ok: outside the solver's envelope
  std::uint64_t feasible = 0;
  std::uint64_t timed_out = 0;  // over params.time_limit_s or a deadline
  std::uint64_t audited = 0;
  std::uint64_t refuted = 0;  // audited with a non-empty audit_error
  std::uint64_t cache_hits = 0;
  std::uint64_t component_cache_hits = 0;
  /// Indexed by PipelineStage.
  std::array<StageTally, kPipelineStageCount> stages{};

  /// Folds one finished result into the tallies.
  void absorb(const SolveResult& result);
  /// Merges another roll-up into this one.
  PipelineStats& operator+=(const PipelineStats& other);

  /// True when every result ran inside its envelope, none exceeded its
  /// time budget, and no audited answer was refuted.
  bool success() const {
    return rejected == 0 && timed_out == 0 && refuted == 0;
  }
};

}  // namespace gapsched::engine::pipeline
