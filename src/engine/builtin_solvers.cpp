// Adapters wiring every algorithm family in the library into the engine's
// Solver interface, plus their registration. register_builtin_solvers() is
// called from SolverRegistry::instance(), giving a hard link-time reference
// to this translation unit (static-initializer registration would be dropped
// from the static library when nothing references it).

#include <memory>
#include <utility>

#include "gapsched/bcd/bcd.hpp"
#include "gapsched/dp/dp_common.hpp"
#include "gapsched/dp/gap_dp.hpp"
#include "gapsched/dp/power_dp.hpp"
#include "gapsched/engine/registry.hpp"
#include "gapsched/exact/brute_force.hpp"
#include "gapsched/exact/power_brute_force.hpp"
#include "gapsched/exact/span_search.hpp"
#include "gapsched/greedy/fhkn_greedy.hpp"
#include "gapsched/greedy/lazy.hpp"
#include "gapsched/online/online_edf.hpp"
#include "gapsched/online/online_powerdown.hpp"
#include "gapsched/powermin/powermin_approx.hpp"
#include "gapsched/restart/restart_greedy.hpp"

namespace gapsched::engine {

namespace {

/// Shared base holding the immutable SolverInfo.
class BuiltinSolver : public Solver {
 public:
  explicit BuiltinSolver(SolverInfo info) : info_(std::move(info)) {}
  const SolverInfo& info() const override { return info_; }

 private:
  SolverInfo info_;
};

/// Folds a component solve's memo diagnostics into the request's stats.
void fold_memo_stats(SolveStats& stats, const dp::MemoStats& memo) {
  if (memo.layout == dp::MemoLayout::kArena) {
    ++stats.memo_arena_solves;
  } else {
    ++stats.memo_hash_solves;
  }
  stats.memo_find_calls += memo.find_calls;
  stats.memo_probe_steps += memo.probe_steps;
  stats.memo_pruned += memo.pruned;
}

SolveResult gap_result(bool feasible, std::int64_t transitions,
                       Schedule schedule) {
  SolveResult out;
  out.ok = true;
  out.feasible = feasible;
  if (feasible) {
    out.cost = static_cast<double>(transitions);
    out.transitions = transitions;
    out.stats.scheduled = schedule.scheduled_count();
    out.schedule = std::move(schedule);
  }
  return out;
}

SolveResult power_result(bool feasible, double power, Schedule schedule) {
  SolveResult out;
  out.ok = true;
  out.feasible = feasible;
  if (feasible) {
    out.cost = power;
    out.transitions = schedule.profile().transitions();
    out.stats.scheduled = schedule.scheduled_count();
    out.schedule = std::move(schedule);
  }
  return out;
}

// ----------------------------------------------------------- gap solvers --

class GapDpSolver final : public BuiltinSolver {
 public:
  GapDpSolver()
      : BuiltinSolver({.name = "gap_dp",
                       .objective = Objective::kGaps,
                       .summary = "exact multiprocessor gap DP",
                       .paper_ref = "Theorem 1 (Section 2)",
                       .complexity = "O(n^7 p^5)",
                       .exact = true,
                       .requires_one_interval = true,
                       // No max_n: the prep decomposition can shrink far
                       // larger sparse instances under the DP's per-
                       // component packed-key limits (n <= dp::kMaxDpJobs,
                       // |Theta| < dp::kMaxThetaSize), which solve_gap_dp
                       // enforces.
                       .max_processors =
                           static_cast<int>(dp::kMaxDpProcessors)}) {}

  SolveResult do_solve(const SolveRequest& req) const override {
    GapDpResult r = solve_gap_dp(req.instance);
    // Packed-state limit rejection (post-decomposition: a single component
    // is genuinely too big for the DP's packed memo keys).
    if (!r.error.empty()) return SolveResult::rejected(std::move(r.error));
    SolveResult out = gap_result(r.feasible, r.transitions,
                                 std::move(r.schedule));
    out.stats.states = r.states;
    fold_memo_stats(out.stats, r.memo);
    return out;
  }
};

class BcdPolyGapSolver final : public BuiltinSolver {
 public:
  BcdPolyGapSolver()
      : BcdPolyGapSolver({.name = "bcd_poly_gap",
                          .objective = Objective::kGaps,
                          .summary = "polynomial single-processor gap DP "
                                     "(release-class decomposition)",
                          .paper_ref = "[BCD07] arXiv:0908.3505",
                          .complexity = "poly: O(n^3) states, reachability-"
                                        "driven",
                          .exact = true,
                          .requires_one_interval = true,
                          .max_processors = 1}) {}
  /// The same adapter under another registry name (the `baptiste` alias).
  explicit BcdPolyGapSolver(SolverInfo info) : BuiltinSolver(std::move(info)) {}

  SolveResult do_solve(const SolveRequest& req) const override {
    BcdGapResult r = solve_bcd_gap(req.instance);
    // Shape guard or state/entry budget valve: an honest rejection, never a
    // partial answer.
    if (!r.error.empty()) return SolveResult::rejected(std::move(r.error));
    SolveResult out = gap_result(r.feasible, r.transitions,
                                 std::move(r.schedule));
    out.stats.states = r.states;
    out.stats.nodes = r.entries;
    return out;
  }
};

class BruteForceSolver final : public BuiltinSolver {
 public:
  BruteForceSolver()
      : BuiltinSolver({.name = "brute_force",
                       .objective = Objective::kGaps,
                       .summary = "exact subset-DP reference (multi-interval, "
                                  "multiprocessor)",
                       .paper_ref = "reproduction ground truth (T1)",
                       .complexity = "O(3^n |Theta| p)",
                       .exact = true,
                       .max_n = 20}) {}

  SolveResult do_solve(const SolveRequest& req) const override {
    ExactGapResult r = brute_force_min_transitions(req.instance);
    return gap_result(r.feasible, r.transitions, std::move(r.schedule));
  }
};

class SpanSearchSolver final : public BuiltinSolver {
 public:
  SpanSearchSolver()
      : BuiltinSolver({.name = "span_search",
                       .objective = Objective::kGaps,
                       .summary = "exact iterative-deepening span search "
                                  "(multi-interval)",
                       .paper_ref = "mid-size exact baseline (Section 5 "
                                    "territory)",
                       .complexity = "exponential, ~n<=24 in practice",
                       .exact = true,
                       .max_processors = 1}) {}

  SolveResult do_solve(const SolveRequest& req) const override {
    SpanSearchResult r = span_search_min_transitions(req.instance);
    SolveResult out = gap_result(r.feasible, r.transitions,
                                 std::move(r.schedule));
    out.stats.nodes = r.nodes;
    return out;
  }
};

class FhknGreedySolver final : public BuiltinSolver {
 public:
  FhknGreedySolver()
      : BuiltinSolver({.name = "fhkn_greedy",
                       .objective = Objective::kGaps,
                       .summary = "FHKN largest-feasible-gap greedy, "
                                  "3-approximation on one-interval input",
                       .paper_ref = "[FHKN06] (Section 1)",
                       .complexity = "O(n^2 log n) matchings",
                       .max_processors = 1}) {}

  SolveResult do_solve(const SolveRequest& req) const override {
    FhknResult r = fhkn_greedy(req.instance);
    return gap_result(r.feasible, r.transitions, std::move(r.schedule));
  }
};

class LazySolver final : public BuiltinSolver {
 public:
  LazySolver()
      : BuiltinSolver({.name = "lazy",
                       .objective = Objective::kGaps,
                       .summary = "deadline-procrastination heuristic",
                       .paper_ref = "[ISG03]/[IP05] family (T8 ladder)",
                       .complexity = "O(n^2) matchings",
                       .requires_one_interval = true,
                       .max_processors = 1}) {}

  SolveResult do_solve(const SolveRequest& req) const override {
    LazyResult r = lazy_schedule(req.instance);
    return gap_result(r.feasible, r.transitions, std::move(r.schedule));
  }
};

class OnlineEdfSolver final : public BuiltinSolver {
 public:
  OnlineEdfSolver()
      : BuiltinSolver({.name = "online_edf",
                       .objective = Objective::kGaps,
                       .summary = "obligatory work-conserving online EDF",
                       .paper_ref = "Omega(n) lower bound (Section 1)",
                       .complexity = "O(horizon + n log n)",
                       .requires_one_interval = true,
                       .max_processors = 1}) {}

  SolveResult do_solve(const SolveRequest& req) const override {
    OnlineResult r = online_edf(req.instance);
    return gap_result(r.feasible, r.transitions, std::move(r.schedule));
  }
};

// --------------------------------------------------------- power solvers --

class BcdPolyPowerSolver final : public BuiltinSolver {
 public:
  BcdPolyPowerSolver()
      : BuiltinSolver({.name = "bcd_poly_power",
                       .objective = Objective::kPower,
                       .summary = "polynomial single-processor min-energy DP "
                                  "(release-class decomposition)",
                       .paper_ref = "[BCD07] arXiv:0908.3505",
                       .complexity = "poly: O(n^3) states, reachability-"
                                     "driven",
                       .exact = true,
                       .requires_one_interval = true,
                       .max_processors = 1,
                       .params = kUsesAlpha}) {}

  SolveResult do_solve(const SolveRequest& req) const override {
    BcdPowerResult r = solve_bcd_power(req.instance, req.params.alpha);
    if (!r.error.empty()) return SolveResult::rejected(std::move(r.error));
    SolveResult out = power_result(r.feasible, r.power, std::move(r.schedule));
    out.stats.states = r.states;
    out.stats.nodes = r.entries;
    return out;
  }
};

class PowerDpSolver final : public BuiltinSolver {
 public:
  PowerDpSolver()
      : BuiltinSolver({.name = "power_dp",
                       .objective = Objective::kPower,
                       .summary = "exact multiprocessor power DP",
                       .paper_ref = "Theorem 2 (Section 2)",
                       .complexity = "O(n^7 p^5)",
                       .exact = true,
                       .requires_one_interval = true,
                       .max_processors =
                           static_cast<int>(dp::kMaxDpProcessors),
                       .params = kUsesAlpha}) {}

  SolveResult do_solve(const SolveRequest& req) const override {
    PowerDpResult r = solve_power_dp(req.instance, req.params.alpha);
    if (!r.error.empty()) return SolveResult::rejected(std::move(r.error));
    SolveResult out = power_result(r.feasible, r.power, std::move(r.schedule));
    out.stats.states = r.states;
    fold_memo_stats(out.stats, r.memo);
    return out;
  }
};

class PowerBruteForceSolver final : public BuiltinSolver {
 public:
  PowerBruteForceSolver()
      : BuiltinSolver({.name = "power_brute_force",
                       .objective = Objective::kPower,
                       .summary = "exact subset-DP power reference",
                       .paper_ref = "reproduction ground truth (T1)",
                       .complexity = "O(3^n |Theta| p^2)",
                       .exact = true,
                       .max_n = 20,
                       .params = kUsesAlpha}) {}

  SolveResult do_solve(const SolveRequest& req) const override {
    ExactPowerResult r = brute_force_min_power(req.instance, req.params.alpha);
    return power_result(r.feasible, r.power, std::move(r.schedule));
  }
};

class PowerMinApproxSolver final : public BuiltinSolver {
 public:
  PowerMinApproxSolver()
      : BuiltinSolver({.name = "powermin_approx",
                       .objective = Objective::kPower,
                       .summary = "set-packing (1 + (2/3 + eps) alpha)-"
                                  "approximation (multi-interval)",
                       .paper_ref = "Theorem 3 (Section 3)",
                       .complexity = "poly; local-search packing",
                       .max_processors = 1,
                       .params = kUsesAlpha | kUsesPacking}) {}

  SolveResult do_solve(const SolveRequest& req) const override {
    PowerMinApproxOptions opts;
    opts.swap_size = req.params.swap_size;
    opts.block_size = req.params.block_size;
    PowerMinApproxResult r =
        powermin_approx(req.instance, req.params.alpha, opts);
    SolveResult out = power_result(r.feasible, r.power, std::move(r.schedule));
    if (r.feasible) out.transitions = r.transitions;
    return out;
  }
};

class OnlinePowerdownSolver final : public BuiltinSolver {
 public:
  OnlinePowerdownSolver()
      : BuiltinSolver({.name = "online_powerdown",
                       .objective = Objective::kPower,
                       .summary = "online EDF + ski-rental power-down "
                                  "threshold",
                       .paper_ref = "[AIS04] setting (Section 1)",
                       .complexity = "O(horizon + n log n)",
                       .requires_one_interval = true,
                       .max_processors = 1,
                       .params = kUsesAlpha | kUsesThreshold}) {}

  SolveResult do_solve(const SolveRequest& req) const override {
    OnlinePowerdownResult r = online_powerdown(
        req.instance, req.params.alpha, req.params.powerdown_threshold);
    SolveResult out = power_result(r.feasible, r.power, std::move(r.schedule));
    if (r.feasible) out.transitions = r.transitions;
    return out;
  }
};

// ---------------------------------------------------- throughput solvers --

class RestartGreedySolver final : public BuiltinSolver {
 public:
  RestartGreedySolver()
      : BuiltinSolver({.name = "restart_greedy",
                       .objective = Objective::kThroughput,
                       .summary = "max jobs under a span budget, O(sqrt(n))-"
                                  "approximation",
                       .paper_ref = "Theorem 11 (Section 6)",
                       .complexity = "O(k n log n) matchings",
                       .max_processors = 1,
                       .params = kUsesMaxSpans}) {}

  SolveResult do_solve(const SolveRequest& req) const override {
    RestartResult r = restart_greedy(req.instance, req.params.max_spans);
    SolveResult out;
    out.ok = true;
    // A partial schedule is always available; the objective is its size.
    out.feasible = true;
    out.cost = static_cast<double>(r.scheduled);
    out.transitions = static_cast<std::int64_t>(r.working_intervals.size());
    out.stats.scheduled = r.scheduled;
    out.schedule = std::move(r.schedule);
    return out;
  }
};

}  // namespace

void register_builtin_solvers(SolverRegistry& registry) {
  registry.add(std::make_unique<GapDpSolver>());
  registry.add(std::make_unique<BcdPolyGapSolver>());
  registry.add(std::make_unique<BcdPolyPowerSolver>());
  registry.add(std::make_unique<BcdPolyGapSolver>(SolverInfo{
      .name = "baptiste",
      .objective = Objective::kGaps,
      .summary = "alias of bcd_poly_gap: polynomial single-processor gap DP "
                 "[Bap06 problem]",
      .paper_ref = "[BCD07] arXiv:0908.3505 (baseline of Theorem 1, "
                   "Section 1)",
      .complexity = "poly: O(n^3) states, reachability-driven",
      .exact = true,
      .requires_one_interval = true,
      .max_processors = 1}));
  registry.add(std::make_unique<BruteForceSolver>());
  registry.add(std::make_unique<SpanSearchSolver>());
  registry.add(std::make_unique<FhknGreedySolver>());
  registry.add(std::make_unique<LazySolver>());
  registry.add(std::make_unique<OnlineEdfSolver>());
  registry.add(std::make_unique<PowerDpSolver>());
  registry.add(std::make_unique<PowerBruteForceSolver>());
  registry.add(std::make_unique<PowerMinApproxSolver>());
  registry.add(std::make_unique<OnlinePowerdownSolver>());
  registry.add(std::make_unique<RestartGreedySolver>());
}

}  // namespace gapsched::engine
