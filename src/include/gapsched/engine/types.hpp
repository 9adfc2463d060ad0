#pragma once
// Common request/result currency of the solver engine.
//
// Every solver family in the library — the Theorem 1/2 exact DPs, the
// reference brute forces, the span search, the FHKN and procrastination
// greedies, the Theorem 3 approximation, the Theorem 11 restart greedy, and
// the online strategies — is adapted behind one (SolveRequest -> SolveResult)
// interface so that the CLI, the benches, and batched drivers can treat them
// uniformly (the solver-shootout / heuristic-ladder methodology of
// Baptiste-Chrobak-Durr and related minimum-energy scheduling work).

#include <array>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "gapsched/core/instance.hpp"
#include "gapsched/core/schedule.hpp"

namespace gapsched::engine {

/// The three objectives the paper studies.
enum class Objective {
  /// Minimize sleep->active transitions (Sections 2, 4, 5).
  kGaps,
  /// Minimize active time + alpha * wake-ups (Sections 2, 3).
  kPower,
  /// Maximize scheduled jobs under a span budget (Section 6, Theorem 11).
  kThroughput,
};

std::string_view to_string(Objective objective);
std::optional<Objective> objective_from_string(std::string_view name);

/// The named stages of the engine's solve pipeline
/// (gapsched::engine::pipeline), in execution order. Every solve walks the
/// same sequence; stages that do not apply to a request are skipped and
/// say so in their StageStats entry.
enum class PipelineStage : std::size_t {
  kCanonicalize = 0,  // sorted jobs, origin 0 (prep::canonicalize)
  kDecompose,         // m >= 1 components: cut clusters, or the identity
  kCompress,          // length-aware dead-time compression per component
  kCacheLookup,       // content-addressed lookup + intra-request dedup
  kDispatch,          // the family adapter (do_solve), fanned out per component
  kRecombine,         // merge parts, map schedules back, aggregate stats
  kAudit,             // independent oracle re-derivation (params.validate)
};

inline constexpr std::size_t kPipelineStageCount = 7;

std::string_view to_string(PipelineStage stage);
std::optional<PipelineStage> pipeline_stage_from_string(std::string_view name);

/// Per-request accounting of one pipeline stage.
struct StageStats {
  /// Wall time spent inside the stage for this request.
  double ms = 0.0;
  /// True when the stage did real work for this request; false when the
  /// pipeline skipped it (e.g. CacheLookup on a cache-off engine, Dispatch
  /// when every component was served from the cache, Audit without
  /// params.validate).
  bool ran = false;
};

/// Solver-family parameters beyond the instance itself. Unused fields are
/// ignored by solvers that do not consume them.
struct SolveParams {
  /// Wake-up cost for the power objectives. Must be >= 0.
  double alpha = 2.0;
  /// Span budget for the throughput objective ("k gaps"). Must be >= 1.
  std::size_t max_spans = 1;
  /// Idle threshold for the online power-down strategy; < 0 selects the
  /// canonical 2-competitive value (= alpha).
  double powerdown_threshold = -1.0;
  /// Swap size of the Theorem 3 set-packing local search (0, 1 or 2).
  int swap_size = 2;
  /// Block length k of the Theorem 3 / Lemma 5 construction (2..4).
  int block_size = 2;
  /// Advisory wall-clock budget in seconds; 0 means unlimited. Solvers are
  /// single-shot and not preemptible, so the engine cannot abort a running
  /// solve — it flags SolveResult::timed_out when the budget was exceeded so
  /// batch drivers and ladders can discard or demote the result.
  double time_limit_s = 0.0;
  /// When true, the engine re-checks the returned schedule and cost with
  /// the independent gapsched::oracle layer after the solve; any violation
  /// lands in SolveResult::audit_error (audit time is excluded from
  /// stats.wall_ms).
  bool validate = false;
  /// When true (the default), the engine runs the gapsched::prep pipeline
  /// before exact gap/power solves: the instance is canonicalized and split
  /// into independent components wherever job clusters are separated by
  /// more than n (and, for power, at least ceil(alpha)) empty time units —
  /// cuts across which the optima are provably additive. Components are
  /// solved separately and the schedule/cost/stats recombined; the oracle
  /// audit (params.validate) runs on the recombined result. Heuristic and
  /// throughput families ignore this flag. `solver_cli --no-decompose`
  /// clears it.
  bool decompose = true;
  /// When true (the default), components of a decomposed exact solve are
  /// dead-time compressed before the solver sees them: interior idle runs
  /// no job can use shrink to one unit for gap solves and to
  /// ceil(alpha) + 1 units for power solves — the length-aware cap that
  /// preserves every min(gap, alpha) bridge term exactly. Compression also
  /// normalizes cache keys across dead-run lengths. Heuristic and
  /// throughput families ignore this flag, and it has no effect when
  /// `decompose` is false (compression lives inside the prep pipeline).
  /// `solver_cli --no-compress` clears it.
  bool compress = true;
};

/// One unit of engine work: an instance, an objective, and parameters.
struct SolveRequest {
  Instance instance;
  Objective objective = Objective::kGaps;
  SolveParams params;
};

/// One batch entry: a request routed to a named solver, so a single batch
/// can mix families (the shootout/ladder pattern). Consumed by
/// Engine::solve_batch / Engine::solve_stream.
struct BatchJob {
  std::string solver;
  SolveRequest request;
};

/// Solver-reported diagnostics, uniform across families (fields a family
/// does not produce stay 0).
struct SolveStats {
  /// Wall time of the underlying solver call (excludes request validation).
  double wall_ms = 0.0;
  /// Memoized DP states (Theorem 1/2 DPs; bcd_poly_* subproblem count) —
  /// the F1 scaling measurement.
  std::size_t states = 0;
  /// Search nodes expanded (span search); Pareto table cells kept
  /// (bcd_poly_* families).
  std::size_t nodes = 0;
  /// Jobs scheduled. Equals n for complete schedules; the objective value
  /// for the (partial-schedule) throughput solvers.
  std::size_t scheduled = 0;
  /// Components m of the request's decomposition: the independent
  /// far-apart clusters of a decomposed exact solve, 1 for the identity
  /// decomposition (no cut found, or decomposition off or not applicable).
  /// 0 only on a request rejected before the pipeline.
  std::size_t components = 0;
  /// True when the whole answer was served from the engine's
  /// content-addressed solve cache without invoking any solver — every
  /// component hit (or deduplicated against one that did).
  /// `states`/`nodes` always sum the solver work embodied in the answer's
  /// unique parts: fresh solves plus the work that originally produced
  /// each cached entry; deduplicated component copies add nothing.
  bool cache_hit = false;
  /// Components of this solve served from the cross-request solve cache.
  std::size_t component_cache_hits = 0;
  /// Components that were byte-identical (post canonicalization and
  /// dead-time compression) to an earlier component of the same request
  /// and reused its result instead of solving again.
  std::size_t components_deduped = 0;
  /// Dead time units removed by the prep pipeline's length-aware
  /// compression, summed over components (0 when compression did not run
  /// or found nothing to truncate).
  std::int64_t dead_time_removed = 0;

  /// Per-stage wall time and ran/skipped verdicts of the solve pipeline,
  /// indexed by PipelineStage. Every request reports all seven stages; a
  /// stage the request never needed has ran = false and ms ~ 0. Summed
  /// over the results a caller folds into a PipelineStats.
  std::array<StageStats, kPipelineStageCount> stages{};

  // DP memo-layer diagnostics (Theorem 1/2 execution layer), summed over
  // components. Serialized on the io/json wire alongside the stage
  // timings: a server front end reports how an answer was computed, not
  // just what it is.
  /// Component solves whose state box was dense enough for the flat arena
  /// memo / that fell back to the packed-key hash table.
  std::size_t memo_arena_solves = 0;
  std::size_t memo_hash_solves = 0;
  /// Memo lookups, hash probe-chain steps (0 for arena solves), and
  /// candidate branches cut by the dominance prunes.
  std::uint64_t memo_find_calls = 0;
  std::uint64_t memo_probe_steps = 0;
  std::uint64_t memo_pruned = 0;
};

/// Uniform outcome of a dispatch.
///
/// `ok` is the engine-level verdict: the request was well-formed, inside the
/// solver's capability envelope, and the solver ran. A rejected request
/// (wrong objective, multi-interval jobs handed to a one-interval DP, n over
/// a brute-force cap, ...) yields ok = false with `error` set and no solver
/// call. `feasible`/`cost`/`schedule` are only meaningful when ok.
struct SolveResult {
  bool ok = false;
  std::string error;

  bool feasible = false;
  /// Objective value: transitions (kGaps), total power (kPower), or the
  /// number of scheduled jobs (kThroughput — a maximization, larger is
  /// better; every other objective minimizes).
  double cost = 0.0;
  /// Sleep->active transitions of the produced schedule (diagnostic; for
  /// kGaps this equals cost).
  std::int64_t transitions = 0;
  Schedule schedule;
  SolveStats stats;
  /// True when params.time_limit_s > 0 and the solve ran longer than that.
  bool timed_out = false;

  /// True when the independent oracle audit ran (params.validate on a
  /// non-rejected result).
  bool audited = false;
  /// Non-empty when the audit found a violation — the solver's claim does
  /// not survive independent re-derivation (i.e. a solver bug, not a bad
  /// request). `ok` is left untouched so callers can distinguish "request
  /// rejected" from "answer refuted".
  std::string audit_error;

  /// Convenience factory for an engine-level rejection.
  static SolveResult rejected(std::string why) {
    SolveResult r;
    r.ok = false;
    r.error = std::move(why);
    return r;
  }
};

}  // namespace gapsched::engine
