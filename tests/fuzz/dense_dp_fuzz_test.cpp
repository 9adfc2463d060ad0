// Fuzz family for the widened DP execution layer: dense one-cluster
// instances with n > 255 — over the seed engine's old 8-bit packed-key
// ceiling, newly in scope for the 128-bit keys. For every draw the solver
// must be a pure function of the instance across every execution config:
//
//   * the default layout (arena when the state box fits) and the forced
//     hash memo agree bit-identically on feasibility, optimum, schedule,
//     and reachable-state count (pruning stays on in both, so `states` is
//     comparable),
//   * the schedule survives the independent oracle with the same
//     transition count,
//   * the engine pipeline (decompose + compress + recombine) lands on the
//     same optimum as the direct monolithic solve.
//
// A failing draw is shrunk to a locally minimal repro by job bisection and
// reported with the serialized instance and the seed that replays it.

#include <gtest/gtest.h>

#include <string>

#include "gapsched/dp/dp_common.hpp"
#include "gapsched/dp/gap_dp.hpp"
#include "gapsched/dp/power_dp.hpp"
#include "gapsched/engine/engine.hpp"
#include "gapsched/gen/generators.hpp"
#include "gapsched/io/serialize.hpp"
#include "gapsched/oracle/oracle.hpp"
#include "gapsched/util/prng.hpp"
#include "fuzz_support.hpp"

namespace gapsched {
namespace {

constexpr double kAlpha = 2.5;

/// The cross-config gap invariant. Returns "" when every execution config
/// agrees and the oracle confirms the answer; else a one-line diagnostic.
std::string check_dense_gap(const Instance& inst) {
  if (!dp::DpContext(inst).limit_violation().empty()) {
    return "";  // outside the packed-key envelope: nothing to compare
  }
  const GapDpResult tuned = solve_gap_dp(inst);
  const GapDpResult hashed =
      solve_gap_dp(inst, dp::DpOptions{.arena_max_entries = 0});
  if (hashed.feasible != tuned.feasible) {
    return "hash config flipped feasibility";
  }
  if (tuned.feasible && (hashed.transitions != tuned.transitions ||
                         hashed.states != tuned.states ||
                         !(hashed.schedule == tuned.schedule))) {
    return "hash config diverged from the default layout";
  }
  if (!tuned.feasible) return "";

  const oracle::ScheduleAudit audit = oracle::audit_schedule(inst, tuned.schedule);
  if (!audit.valid || !audit.complete) {
    return "oracle rejected the schedule: " + audit.violation_summary();
  }
  if (audit.transitions != tuned.transitions) {
    return "oracle transition count " + std::to_string(audit.transitions) +
           " != claimed " + std::to_string(tuned.transitions);
  }

  // Engine pipeline parity: decomposition + compression must not move the
  // optimum the monolithic DP found.
  static engine::Engine eng({.cache = false});
  engine::SolveRequest req;
  req.instance = inst;
  req.objective = engine::Objective::kGaps;
  req.params.validate = true;
  const engine::SolveResult piped = eng.solve("gap_dp", req);
  if (!piped.ok) return "engine pipeline rejected a solvable instance: " + piped.error;
  if (!piped.feasible) return "engine pipeline flipped feasibility";
  if (piped.transitions != tuned.transitions) {
    return "engine pipeline optimum " + std::to_string(piped.transitions) +
           " != direct DP " + std::to_string(tuned.transitions);
  }
  if (!piped.audit_error.empty()) {
    return "engine audit failed: " + piped.audit_error;
  }
  return "";
}

/// Power cross-config invariant on the same draws (bit-identical across
/// configs; oracle min_power must match exactly-solved optima).
std::string check_dense_power(const Instance& inst) {
  if (!dp::DpContext(inst).limit_violation().empty()) return "";
  const PowerDpResult tuned = solve_power_dp(inst, kAlpha);
  const PowerDpResult hashed = solve_power_dp(
      inst, kAlpha, dp::DpOptions{.arena_max_entries = 0});
  if (hashed.feasible != tuned.feasible ||
      (tuned.feasible &&
       (hashed.power != tuned.power || hashed.states != tuned.states))) {
    return "hash config diverged from the default layout (power)";
  }
  if (!tuned.feasible) return "";
  const oracle::ScheduleAudit audit =
      oracle::audit_schedule(inst, tuned.schedule);
  if (!audit.valid || !audit.complete) {
    return "oracle rejected the power schedule: " + audit.violation_summary();
  }
  const double floor = oracle::min_power(audit, kAlpha);
  if (!(std::abs(floor - tuned.power) <=
        1e-9 * (1.0 + std::abs(tuned.power)))) {
    return "oracle floor " + std::to_string(floor) +
           " disagrees with the power optimum " + std::to_string(tuned.power);
  }
  return "";
}

// ------------------------------------------------------- dense families --

/// Chained windows: lo = cumulative small steps, width a few units. One
/// cluster, feasible by construction (every job can run at its own lo).
Instance draw_dense_chain(Prng& rng, std::size_t n) {
  Instance inst;
  inst.processors = 1;
  Time t = 0;
  for (std::size_t j = 0; j < n; ++j) {
    const Time width = 1 + static_cast<Time>(rng.index(4));
    inst.jobs.push_back(Job{TimeSet::window(t, t + width)});
    t += 1;  // unit steps: occupancy stays dense, nothing for prep to cut
  }
  return inst;
}

/// Anchored feasible draws on 1-2 processors with slack-widened windows.
Instance draw_dense_anchored(Prng& rng, std::size_t n) {
  const int p = 1 + static_cast<int>(rng.index(2));
  const Time horizon = static_cast<Time>(n / static_cast<std::size_t>(p)) +
                       4 + static_cast<Time>(rng.index(8));
  return gen_feasible_one_interval(rng, n, horizon, 3, p);
}

/// Bursty clusters close enough that decomposition may or may not cut,
/// exercising the pipeline-parity leg both ways.
Instance draw_dense_bursty(Prng& rng, std::size_t n) {
  const std::size_t per_burst = 16;
  const std::size_t bursts = n / per_burst;
  const Time window_len = 20;
  const Time spacing =
      window_len + static_cast<Time>(rng.index(2 * n));  // straddles the cut
  return gen_bursty(rng, bursts, per_burst, spacing, window_len, 1);
}

void sweep(const char* family,
           Instance (*draw)(Prng&, std::size_t),
           const fuzz::Checker& check, int stream, std::size_t draws) {
  for (std::size_t i = 0; i < draws; ++i) {
    const std::uint64_t seed = testing::seed_for(
        static_cast<std::uint64_t>(stream) * 1000 + i);
    GAPSCHED_TRACE_SEED(seed);
    SCOPED_TRACE(std::string(family) + " draw " + std::to_string(i));
    Prng rng(seed);
    const std::size_t n = 256 + rng.index(96);  // always past the old limit
    const Instance inst = draw(rng, n);
    const std::string diag = check(inst);
    if (!diag.empty()) {
      const Instance shrunk = fuzz::shrink_by_bisecting_jobs(inst, check);
      FAIL() << diag << "\nseed " << seed << "\nshrunk repro (n = "
             << shrunk.n() << "):\n" << instance_to_string(shrunk);
    }
  }
}

// The draws are two orders of magnitude bigger than the other fuzz
// families', so the sweep budget is iterations()/20 (>= 8) per family —
// still dozens of n > 255 monolithic solves per PR run.
std::size_t dense_draws() {
  const std::size_t scaled = fuzz::iterations() / 20;
  return scaled < 8 ? 8 : scaled;
}

TEST(DenseDpFuzz, ChainFamilyAllConfigsAgree) {
  sweep("dense_chain", draw_dense_chain, check_dense_gap, 81, dense_draws());
}

TEST(DenseDpFuzz, AnchoredFamilyAllConfigsAgree) {
  sweep("dense_anchored", draw_dense_anchored, check_dense_gap, 82,
        dense_draws());
}

TEST(DenseDpFuzz, BurstyFamilyPipelineParity) {
  sweep("dense_bursty", draw_dense_bursty, check_dense_gap, 83,
        dense_draws());
}

TEST(DenseDpFuzz, ChainFamilyPowerConfigsAgree) {
  // Power solves carry the heavier value type; half the gap budget.
  sweep("dense_chain_power", draw_dense_chain, check_dense_power, 84,
        dense_draws() / 2 + 1);
}

}  // namespace
}  // namespace gapsched
