// Every algorithm family in the library as one row of a table: its
// SolverInfo and a stateless adapter from a SolveRequest to the family's
// own solve function. register_builtin_solvers() is called from
// SolverRegistry::instance(), giving a hard link-time reference to this
// translation unit (static-initializer registration would be dropped from
// the static library when nothing references it).

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

/// The adapter of two rows: `bcd_poly_gap` and its `baptiste` alias.
SolveResult bcd_poly_gap(const SolveRequest& req) {
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

/// The bcd rows' complexity, as the README's solver table prints it.
constexpr const char* kBcdComplexity =
    "poly: O(n R^2) states, R <= n release classes";

}  // namespace

void register_builtin_solvers(SolverRegistry& registry) {
  Solver rows[] = {
      // ------------------------------------------------------ gap solvers --
      {{.name = "gap_dp",
        .objective = Objective::kGaps,
        .summary = "exact multiprocessor gap DP",
        .paper_ref = "Theorem 1 (Section 2)",
        .complexity = "O(n^7 p^5)",
        .exact = true,
        .requires_one_interval = true,
        // No max_n: the prep decomposition can shrink far larger sparse
        // instances under the DP's per-component packed-key limits
        // (n <= dp::kMaxDpJobs, |Theta| < dp::kMaxThetaSize), which
        // solve_gap_dp enforces.
        .max_processors = static_cast<int>(dp::kMaxDpProcessors)},
       [](const SolveRequest& req) {
         GapDpResult r = solve_gap_dp(req.instance);
         // Packed-state limit rejection (post-decomposition: a single
         // component is genuinely too big for the DP's packed memo keys).
         if (!r.error.empty()) return SolveResult::rejected(std::move(r.error));
         SolveResult out = gap_result(r.feasible, r.transitions,
                                      std::move(r.schedule));
         out.stats.states = r.states;
         fold_memo_stats(out.stats, r.memo);
         return out;
       }},
      {{.name = "bcd_poly_gap",
        .objective = Objective::kGaps,
        .summary = "polynomial single-processor gap DP (release-class "
                   "decomposition)",
        .paper_ref = "[BCD07] arXiv:0908.3505",
        .complexity = kBcdComplexity,
        .exact = true,
        .requires_one_interval = true,
        .max_processors = 1},
       &bcd_poly_gap},
      {{.name = "baptiste",
        .objective = Objective::kGaps,
        .summary = "alias of bcd_poly_gap: polynomial single-processor gap DP "
                   "[Bap06 problem]",
        .paper_ref = "[BCD07] arXiv:0908.3505 (baseline of Theorem 1, "
                     "Section 1)",
        .complexity = kBcdComplexity,
        .exact = true,
        .requires_one_interval = true,
        .max_processors = 1},
       &bcd_poly_gap},
      {{.name = "brute_force",
        .objective = Objective::kGaps,
        .summary = "exact subset-DP reference (multi-interval, "
                   "multiprocessor)",
        .paper_ref = "reproduction ground truth (T1)",
        .complexity = "O(3^n |Theta| p)",
        .exact = true,
        .max_n = 20},
       [](const SolveRequest& req) {
         ExactGapResult r = brute_force_min_transitions(req.instance);
         return gap_result(r.feasible, r.transitions, std::move(r.schedule));
       }},
      {{.name = "span_search",
        .objective = Objective::kGaps,
        .summary = "exact iterative-deepening span search (multi-interval)",
        .paper_ref = "mid-size exact baseline (Section 5 territory)",
        .complexity = "exponential, ~n<=24 in practice",
        .exact = true,
        .max_processors = 1},
       [](const SolveRequest& req) {
         SpanSearchResult r = span_search_min_transitions(req.instance);
         SolveResult out = gap_result(r.feasible, r.transitions,
                                      std::move(r.schedule));
         out.stats.nodes = r.nodes;
         return out;
       }},
      {{.name = "fhkn_greedy",
        .objective = Objective::kGaps,
        .summary = "FHKN largest-feasible-gap greedy, 3-approximation on "
                   "one-interval input",
        .paper_ref = "[FHKN06] (Section 1)",
        .complexity = "O(n^2 log n) matchings",
        .max_processors = 1},
       [](const SolveRequest& req) {
         FhknResult r = fhkn_greedy(req.instance);
         return gap_result(r.feasible, r.transitions, std::move(r.schedule));
       }},
      {{.name = "lazy",
        .objective = Objective::kGaps,
        .summary = "deadline-procrastination heuristic",
        .paper_ref = "[ISG03]/[IP05] family (T8 ladder)",
        .complexity = "O(n^2) matchings",
        .requires_one_interval = true,
        .max_processors = 1},
       [](const SolveRequest& req) {
         LazyResult r = lazy_schedule(req.instance);
         return gap_result(r.feasible, r.transitions, std::move(r.schedule));
       }},
      {{.name = "online_edf",
        .objective = Objective::kGaps,
        .summary = "obligatory work-conserving online EDF",
        .paper_ref = "Omega(n) lower bound (Section 1)",
        .complexity = "O(horizon + n log n)",
        .requires_one_interval = true,
        .max_processors = 1},
       [](const SolveRequest& req) {
         OnlineResult r = online_edf(req.instance);
         return gap_result(r.feasible, r.transitions, std::move(r.schedule));
       }},
      // ---------------------------------------------------- power solvers --
      {{.name = "bcd_poly_power",
        .objective = Objective::kPower,
        .summary = "polynomial single-processor min-energy DP (release-class "
                   "decomposition)",
        .paper_ref = "[BCD07] arXiv:0908.3505",
        .complexity = kBcdComplexity,
        .exact = true,
        .requires_one_interval = true,
        .max_processors = 1,
        .params = kUsesAlpha},
       [](const SolveRequest& req) {
         BcdPowerResult r = solve_bcd_power(req.instance, req.params.alpha);
         if (!r.error.empty()) return SolveResult::rejected(std::move(r.error));
         SolveResult out = power_result(r.feasible, r.power,
                                        std::move(r.schedule));
         out.stats.states = r.states;
         out.stats.nodes = r.entries;
         return out;
       }},
      {{.name = "power_dp",
        .objective = Objective::kPower,
        .summary = "exact multiprocessor power DP",
        .paper_ref = "Theorem 2 (Section 2)",
        .complexity = "O(n^7 p^5)",
        .exact = true,
        .requires_one_interval = true,
        .max_processors = static_cast<int>(dp::kMaxDpProcessors),
        .params = kUsesAlpha},
       [](const SolveRequest& req) {
         PowerDpResult r = solve_power_dp(req.instance, req.params.alpha);
         if (!r.error.empty()) return SolveResult::rejected(std::move(r.error));
         SolveResult out = power_result(r.feasible, r.power,
                                        std::move(r.schedule));
         out.stats.states = r.states;
         fold_memo_stats(out.stats, r.memo);
         return out;
       }},
      {{.name = "power_brute_force",
        .objective = Objective::kPower,
        .summary = "exact subset-DP power reference",
        .paper_ref = "reproduction ground truth (T1)",
        .complexity = "O(3^n |Theta| p^2)",
        .exact = true,
        .max_n = 20,
        .params = kUsesAlpha},
       [](const SolveRequest& req) {
         ExactPowerResult r =
             brute_force_min_power(req.instance, req.params.alpha);
         return power_result(r.feasible, r.power, std::move(r.schedule));
       }},
      {{.name = "powermin_approx",
        .objective = Objective::kPower,
        .summary = "set-packing (1 + (2/3 + eps) alpha)-approximation "
                   "(multi-interval)",
        .paper_ref = "Theorem 3 (Section 3)",
        .complexity = "poly; local-search packing",
        .max_processors = 1,
        .params = kUsesAlpha | kUsesPacking},
       [](const SolveRequest& req) {
         PowerMinApproxResult r = powermin_approx(
             req.instance, req.params.alpha,
             {.swap_size = req.params.swap_size,
              .block_size = req.params.block_size});
         SolveResult out = power_result(r.feasible, r.power,
                                        std::move(r.schedule));
         if (r.feasible) out.transitions = r.transitions;
         return out;
       }},
      {{.name = "online_powerdown",
        .objective = Objective::kPower,
        .summary = "online EDF + ski-rental power-down threshold",
        .paper_ref = "[AIS04] setting (Section 1)",
        .complexity = "O(horizon + n log n)",
        .requires_one_interval = true,
        .max_processors = 1,
        .params = kUsesAlpha | kUsesThreshold},
       [](const SolveRequest& req) {
         OnlinePowerdownResult r = online_powerdown(
             req.instance, req.params.alpha, req.params.powerdown_threshold);
         SolveResult out = power_result(r.feasible, r.power,
                                        std::move(r.schedule));
         if (r.feasible) out.transitions = r.transitions;
         return out;
       }},
      // ----------------------------------------------- throughput solvers --
      {{.name = "restart_greedy",
        .objective = Objective::kThroughput,
        .summary = "max jobs under a span budget, O(sqrt(n))-approximation",
        .paper_ref = "Theorem 11 (Section 6)",
        .complexity = "O(k n log n) matchings",
        .max_processors = 1,
        .params = kUsesMaxSpans},
       [](const SolveRequest& req) {
         RestartResult r = restart_greedy(req.instance, req.params.max_spans);
         SolveResult out;
         out.ok = true;
         // A partial schedule is always available; the objective is its
         // size.
         out.feasible = true;
         out.cost = static_cast<double>(r.scheduled);
         out.transitions =
             static_cast<std::int64_t>(r.working_intervals.size());
         out.stats.scheduled = r.scheduled;
         out.schedule = std::move(r.schedule);
         return out;
       }},
  };
  for (Solver& row : rows) {
    registry.add(std::make_unique<Solver>(std::move(row)));
  }
}

}  // namespace gapsched::engine
