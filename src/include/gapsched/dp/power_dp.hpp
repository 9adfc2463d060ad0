#pragma once
// Theorem 2: polynomial-time exact multiprocessor power minimization, where
// a processor may stay in the active state through a gap (a gap of length g
// costs min(g, alpha) per bridging processor).
//
// Same dynamic program as Theorem 1 with the Lemma 2 staircase applying to
// *active* processors: the interface counts l1, l2 are active-processor
// counts (>= the job counts, which the q mechanism bounds at window edges),
// the value adds 1 per active processor-time unit and alpha per wake-up, and
// the empty-window base case uses the closed-form optimal bridging
// min_x [ x * idle + (l2 - x) * alpha ]. Shares the execution layer
// (dp_engine.hpp) with Theorem 1: arena/hash memo selection and dominance
// pruning, run serially on the calling thread.

#include <string>

#include "gapsched/core/schedule.hpp"
#include "gapsched/dp/dp_stats.hpp"

namespace gapsched {

struct PowerDpResult {
  bool feasible = false;
  /// Minimum total power: active time units + alpha * wake-ups.
  double power = 0.0;
  /// An optimal schedule (staircase form). The active-state bridging that
  /// realizes `power` is schedule.profile().optimal_power(alpha).
  Schedule schedule;
  /// Number of memoized DP states.
  std::size_t states = 0;
  /// Memo layout/pruning diagnostics of this solve.
  dp::MemoStats memo;
  /// Non-empty when the instance exceeds the DP's packed-state key limits
  /// (|Theta| < 2^20, n <= 4095, p <= 4095 — dp::kMaxThetaSize /
  /// kMaxDpJobs / kMaxDpProcessors): no solve was attempted and `feasible`
  /// is meaningless.
  std::string error;
};

/// Solves multiprocessor power minimization exactly. Requires a
/// one-interval instance and alpha >= 0; rejects (PowerDpResult::error)
/// instances over the packed-state limits dp::kMaxDpJobs /
/// kMaxDpProcessors / kMaxThetaSize.
PowerDpResult solve_power_dp(const Instance& inst, double alpha);

/// As above with explicit execution options (memo layout, pruning, arena
/// budget). Every option combination returns bit-identical answers; only
/// speed and diagnostics differ.
PowerDpResult solve_power_dp(const Instance& inst, double alpha,
                             const dp::DpOptions& opts);

}  // namespace gapsched
