// The staged solve path (see engine/pipeline.hpp): one route for every
// request, a decomposition with m >= 1 components. Answers must stay
// bit-for-bit those of the plain family adapter wherever the prep pipeline
// does not apply — the differential, metamorphic, fuzz, and prep suites all
// pin that.

#include "gapsched/engine/pipeline.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <utility>

#include "gapsched/oracle/oracle.hpp"
#include "gapsched/parallel/thread_pool.hpp"
#include "gapsched/util/stopwatch.hpp"

namespace gapsched::engine::pipeline {

namespace {

/// Components are fanned out on the executor only when more than one is
/// left to solve and the largest is at least this many jobs: dispatch
/// overhead exceeds an entire small-cluster DP solve, so small
/// decompositions (and every single solve) run inline.
constexpr std::size_t kParallelFanoutMinComponentJobs = 16;

constexpr std::size_t kNoDup = static_cast<std::size_t>(-1);

/// Decomposition is sound exactly for the families whose reported objective
/// is provably additive across far-apart components: the exact gap and
/// power solvers. Heuristics may legally return different (still valid)
/// answers per component, and the throughput objective shares one global
/// span budget across components, so both get the identity decomposition.
bool is_additive(const SolverInfo& info, const SolveRequest& request) {
  return request.params.decompose && info.exact &&
         request.objective != Objective::kThroughput &&
         request.instance.n() >= 2;
}

/// Cut threshold: separation > n keeps the Prop 2.1 candidate
/// neighbourhoods of distinct components disjoint and makes gap optima
/// additive; power additionally needs the dead run to be >= alpha so that
/// bridging a processor across the cut is never cheaper than the fresh
/// wake-up the right component already prices (see prep.hpp).
Time cut_threshold(const SolveRequest& request) {
  Time threshold = static_cast<Time>(request.instance.n());
  if (request.objective == Objective::kPower) {
    const double alpha_ceil = std::ceil(request.params.alpha);
    // check() only guarantees alpha >= 0; an enormous (or infinite) alpha
    // must disable cutting rather than overflow the Time cast.
    if (!(alpha_ceil <
          static_cast<double>(std::numeric_limits<Time>::max() / 2))) {
      return std::numeric_limits<Time>::max();
    }
    threshold = std::max(threshold, static_cast<Time>(alpha_ceil));
  }
  return threshold;
}

/// Compress runs on the decomposed components (core/transforms), which
/// cuts the Prop 2.1 candidate axis and makes canonical cache keys
/// independent of interior dead-run lengths. The cap is length-aware per
/// objective: gap components shrink every run no job can use to one unit
/// (busy-time adjacency is all that matters), while power components keep
/// min(run, ceil(alpha) + 1) units so that every idle-bridging term
/// min(gap, alpha) is preserved exactly — a truncated run alone is already
/// longer than alpha, so any gap it shortens sits on the min's alpha
/// plateau before and after the map. Only additive requests (gaps or
/// power) are compressed; returns 0 when params.compress opts out or an
/// unrepresentable ceil(alpha) must disable truncation rather than
/// overflow.
Time compression_cap(const SolveRequest& request) {
  if (!request.params.compress) return 0;
  if (request.objective == Objective::kGaps) return 1;
  const double alpha_ceil = std::ceil(request.params.alpha);
  if (!(alpha_ceil <
        static_cast<double>(std::numeric_limits<Time>::max() / 2))) {
    return 0;
  }
  return static_cast<Time>(alpha_ceil) + 1;
}

/// Rewrites an original-coordinate schedule in the job order and origin of
/// `comp`, the identity component of its instance (prep::recombine is the
/// inverse). Infeasible answers carry an empty schedule and stay empty.
Schedule canonicalize_schedule(const Schedule& in,
                               const prep::Component& comp) {
  Schedule out(in.size());
  for (std::size_t j = 0; j < in.size(); ++j) {
    const std::optional<Placement>& slot = in.at(comp.jobs[j]);
    if (slot.has_value()) {
      out.place(j, slot->time - comp.shift, slot->processor);
    }
  }
  return out;
}

StageStats& stage_of(SolveContext& ctx, PipelineStage stage) {
  return ctx.stages[static_cast<std::size_t>(stage)];
}

}  // namespace

// --------------------------------------------------------------- stages --

/// Sorts the request's jobs and shifts its origin to 0 (prep::canonicalize);
/// Decompose splits this form.
void Pipeline::canonicalize(SolveContext& ctx) {
  stage_of(ctx, PipelineStage::kCanonicalize).ran = true;
  ctx.canon = prep::canonicalize(ctx.request.instance);
}

/// Splits the canonical form into m >= 1 components. Additive requests cut
/// it into independent far-apart components (prep::decompose) and pick the
/// compression cap; every other request gets the identity decomposition —
/// one component that is the canonical form itself, also when n = 0.
void Pipeline::decompose(SolveContext& ctx) {
  stage_of(ctx, PipelineStage::kDecompose).ran = true;
  if (is_additive(ctx.solver.info(), ctx.request)) {
    ctx.dec =
        prep::decompose(std::move(ctx.canon), cut_threshold(ctx.request));
    ctx.cap = compression_cap(ctx.request);
  } else {
    ctx.dec.components.push_back(prep::Component{
        std::move(ctx.canon.instance), ctx.canon.shift,
        std::move(ctx.canon.order)});
  }
  const std::size_t m = ctx.dec.components.size();
  ctx.compressed.resize(m);
  ctx.parts.resize(m);
  ctx.dup_of.assign(m, kNoDup);
  // Default routing solves every component; CacheLookup refines this to
  // the genuinely-new ones when the request carries a cache.
  ctx.to_solve.resize(m);
  for (std::size_t c = 0; c < m; ++c) ctx.to_solve[c] = c;
  ctx.agg.components = m;
}

/// Dead-time compresses every component in place at the length-aware cap
/// (when the cap is positive), keeping only the time maps. The compressed
/// image is both what Dispatch solves and what CacheLookup hashes — two
/// components differing only in interior dead-run lengths (beyond the cap)
/// share an entry. The stage counts as ran only when it moved some
/// component: one already in compressed form keeps empty maps.
void Pipeline::compress(SolveContext& ctx) {
  if (ctx.cap == 0) return;
  bool moved = false;
  for (std::size_t c = 0; c < ctx.dec.components.size(); ++c) {
    ctx.compressed[c] = compress_dead_time_capped_in_place(
        ctx.dec.components[c].instance, ctx.cap);
    ctx.agg.dead_time_removed += ctx.compressed[c].dead_time_removed();
    moved = moved || !ctx.compressed[c].identity();
  }
  stage_of(ctx, PipelineStage::kCompress).ran = moved;
}

/// Consults the content-addressed cache for every component,
/// additionally deduplicating byte-identical components within this one
/// request. Leaves only genuinely new work in `to_solve`.
void Pipeline::cache_lookup(SolveContext& ctx) {
  if (ctx.cache == nullptr) return;
  stage_of(ctx, PipelineStage::kCacheLookup).ran = true;
  const std::size_t m = ctx.dec.components.size();
  ctx.keys.reserve(m);
  for (std::size_t c = 0; c < m; ++c) {
    ctx.keys.push_back(make_cache_key(ctx.solver.info(), ctx.request.objective,
                                      ctx.request.params,
                                      ctx.dec.components[c].instance));
  }
  ctx.to_solve.clear();
  std::map<std::string_view, std::size_t> first_with_key;
  for (std::size_t c = 0; c < m; ++c) {
    const auto [it, inserted] = first_with_key.try_emplace(ctx.keys[c].text, c);
    if (!inserted) {
      ctx.dup_of[c] = it->second;
      ++ctx.agg.components_deduped;
      continue;
    }
    // Component keys hash the instance Dispatch would solve (the
    // compressed image when compressing), so a disk record is audited
    // against exactly that form.
    std::shared_ptr<const SolveResult> hit = ctx.cache->lookup(
        ctx.keys[c], ctx.dec.components[c].instance, ctx.request.objective,
        ctx.request.params, ctx.solver.info().exact);
    if (hit != nullptr) {
      ctx.parts[c] = std::move(hit);
      ctx.hit_components.push_back(c);
      ++ctx.agg.component_cache_hits;
    } else {
      ctx.to_solve.push_back(c);
    }
  }
  ctx.agg.cache_hit =
      ctx.to_solve.empty() && ctx.agg.component_cache_hits > 0;
}

/// Runs the family adapter on every component left to solve — fanned out
/// on the executor when several large ones remain — and publishes fresh
/// results to the cache. Skipped entirely when the cache already served
/// everything.
void Pipeline::dispatch(SolveContext& ctx) {
  stage_of(ctx, PipelineStage::kDispatch).ran = !ctx.to_solve.empty();
  // One component that Compress left alone is the request itself up to job
  // order and origin. Solve the requester's original instance instead:
  // heuristic families are job-order sensitive, so the answer must not
  // depend on whether a cache is attached. Its schedule is then rewritten
  // in component coordinates, the form cache entries are stored in and
  // Recombine maps back.
  const bool original = ctx.dec.components.size() == 1 && ctx.cap == 0;
  std::size_t largest = 0;
  for (std::size_t c : ctx.to_solve) {
    largest = std::max(largest, ctx.dec.components[c].instance.n());
  }
  // Per-component solve wall time, the disk tier's admission/compaction
  // weight (parts carry no wall_ms of their own — the runner only stamps
  // the recombined whole).
  std::vector<double> solve_ms(ctx.parts.size(), 0.0);
  const auto solve_component = [&ctx, &solve_ms, original](std::size_t i) {
    const std::size_t c = ctx.to_solve[i];
    // Adapters read only the instance, the objective and the parameters
    // their family consumes; the oracle audit and the wall-clock budget
    // apply to the recombined whole.
    Stopwatch solve_watch;
    if (original) {
      SolveResult part = ctx.solver.adapter_(ctx.request);
      solve_ms[c] = solve_watch.millis();
      part.schedule = canonicalize_schedule(part.schedule,
                                            ctx.dec.components[c]);
      ctx.parts[c] = std::make_shared<const SolveResult>(std::move(part));
      return;
    }
    // Safe to move the component's instance out: cache keys were built by
    // CacheLookup, and Recombine reads only the components' job maps and
    // shifts and the compression maps — nothing needs the instance
    // afterwards.
    ctx.parts[c] = std::make_shared<const SolveResult>(
        ctx.solver.adapter_(SolveRequest{
            std::move(ctx.dec.components[c].instance), ctx.request.objective,
            ctx.request.params}));
    solve_ms[c] = solve_watch.millis();
  };
  if (ctx.to_solve.size() > 1 && largest >= kParallelFanoutMinComponentJobs) {
    parallel_for(ctx.to_solve.size(), solve_component);
  } else {
    for (std::size_t i = 0; i < ctx.to_solve.size(); ++i) solve_component(i);
  }
  if (ctx.cache != nullptr) {
    for (std::size_t c : ctx.to_solve) {
      if (ctx.parts[c]->ok) {
        ctx.cache->insert(ctx.keys[c], *ctx.parts[c], solve_ms[c]);
      }
    }
  }
}

/// Assembles the final answer from the component parts: resolves
/// intra-request duplicates, sums costs/stats across the additive cut, and
/// writes every placement once into the answer, decompressed and mapped
/// back to the requester's job ids and origin
/// (prep::recombine_component).
void Pipeline::recombine(SolveContext& ctx) {
  stage_of(ctx, PipelineStage::kRecombine).ran = true;
  const std::size_t m = ctx.dec.components.size();
  for (std::size_t c = 0; c < m; ++c) {
    if (ctx.dup_of[c] != kNoDup) ctx.parts[c] = ctx.parts[ctx.dup_of[c]];
  }

  SolveResult out;
  out.ok = true;
  out.feasible = true;
  out.stats = ctx.agg;
  for (std::size_t c = 0; c < m; ++c) {
    const SolveResult& part = *ctx.parts[c];
    if (!part.ok) {
      // A component the family itself cannot handle (e.g. a single cluster
      // over the DP's packed-key limits) rejects the whole request; the
      // component counter survives so callers can see how far prep got.
      SolveResult rejected = SolveResult::rejected(
          m == 1 ? part.error
                 : "component " + std::to_string(c) + " of " +
                       std::to_string(m) + ": " + part.error);
      rejected.stats = ctx.agg;
      ctx.result = std::move(rejected);
      return;
    }
    out.feasible = out.feasible && part.feasible;
  }
  // states/nodes sum the solver work embodied in the answer's unique
  // components: fresh solves plus the work that originally produced each
  // cached entry; deduplicated copies reuse a counted representative and
  // contribute nothing.
  for (const std::vector<std::size_t>* group :
       {&ctx.to_solve, &ctx.hit_components}) {
    for (std::size_t c : *group) {
      const SolveStats& s = ctx.parts[c]->stats;
      out.stats.states += s.states;
      out.stats.nodes += s.nodes;
      out.stats.memo_arena_solves += s.memo_arena_solves;
      out.stats.memo_hash_solves += s.memo_hash_solves;
      out.stats.memo_find_calls += s.memo_find_calls;
      out.stats.memo_probe_steps += s.memo_probe_steps;
      out.stats.memo_pruned += s.memo_pruned;
    }
  }
  if (!out.feasible) {
    ctx.result = std::move(out);
    return;
  }

  // Components are separated by more than the cut threshold, so transitions
  // and costs are additive (see prep.hpp for the two objectives' arguments).
  // Deduplicated components share a compressed-coordinate schedule but map
  // back through their own dead-run lengths.
  out.schedule = Schedule(ctx.request.instance.n());
  for (std::size_t c = 0; c < m; ++c) {
    const SolveResult& part = *ctx.parts[c];
    out.cost += part.cost;
    out.transitions += part.transitions;
    prep::recombine_component(ctx.dec.components[c], part.schedule,
                              ctx.compressed[c], out.schedule);
  }
  out.stats.scheduled = out.schedule.scheduled_count();
  ctx.result = std::move(out);
}

/// Re-derives the answer with the independent oracle (params.validate on a
/// non-rejected result). Audit time is excluded from stats.wall_ms, which
/// the runner pins before this stage.
void Pipeline::audit(SolveContext& ctx) {
  if (!ctx.request.params.validate || !ctx.result.ok) return;
  stage_of(ctx, PipelineStage::kAudit).ran = true;
  ctx.result.audited = true;
  ctx.result.audit_error =
      oracle::check_result(ctx.request, ctx.result, ctx.solver.info().exact);
}

// --------------------------------------------------------------- runner --

SolveResult Pipeline::run(const Solver& solver, const SolveRequest& request,
                          SolveCache* cache) {
  SolveContext ctx(solver, request, cache);
  Stopwatch total;
  constexpr struct {
    PipelineStage stage;
    void (*unit)(SolveContext&);
  } kPreAuditStages[] = {
      {PipelineStage::kCanonicalize, &Pipeline::canonicalize},
      {PipelineStage::kDecompose, &Pipeline::decompose},
      {PipelineStage::kCompress, &Pipeline::compress},
      {PipelineStage::kCacheLookup, &Pipeline::cache_lookup},
      {PipelineStage::kDispatch, &Pipeline::dispatch},
      {PipelineStage::kRecombine, &Pipeline::recombine},
  };
  for (const auto& entry : kPreAuditStages) {
    Stopwatch sw;
    entry.unit(ctx);
    ctx.stages[static_cast<std::size_t>(entry.stage)].ms = sw.millis();
  }
  ctx.result.stats.wall_ms = total.millis();
  const double limit = request.params.time_limit_s;
  ctx.result.timed_out = limit > 0.0 && ctx.result.stats.wall_ms > limit * 1e3;
  {
    Stopwatch sw;
    audit(ctx);
    ctx.stages[static_cast<std::size_t>(PipelineStage::kAudit)].ms =
        sw.millis();
  }
  ctx.result.stats.stages = ctx.stages;
  return std::move(ctx.result);
}

// --------------------------------------------------------------- roll-up --

void PipelineStats::absorb(const SolveResult& result) {
  ++requests;
  if (!result.ok) ++rejected;
  if (result.ok && result.feasible) ++feasible;
  if (result.timed_out) ++timed_out;
  if (result.audited) {
    ++audited;
    if (!result.audit_error.empty()) ++refuted;
  }
  if (result.stats.cache_hit) ++cache_hits;
  component_cache_hits += result.stats.component_cache_hits;
  for (std::size_t i = 0; i < kPipelineStageCount; ++i) {
    const StageStats& s = result.stats.stages[i];
    if (s.ran) {
      ++stages[i].runs;
      stages[i].total_ms += s.ms;
    } else {
      ++stages[i].skips;
    }
  }
}

PipelineStats& PipelineStats::operator+=(const PipelineStats& other) {
  requests += other.requests;
  rejected += other.rejected;
  feasible += other.feasible;
  timed_out += other.timed_out;
  audited += other.audited;
  refuted += other.refuted;
  cache_hits += other.cache_hits;
  component_cache_hits += other.component_cache_hits;
  for (std::size_t i = 0; i < kPipelineStageCount; ++i) {
    stages[i].runs += other.stages[i].runs;
    stages[i].skips += other.stages[i].skips;
    stages[i].total_ms += other.stages[i].total_ms;
  }
  return *this;
}

}  // namespace gapsched::engine::pipeline
