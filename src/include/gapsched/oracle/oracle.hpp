#pragma once
// Independent schedule oracle: re-validates a returned schedule and
// re-derives its objective costs directly from the raw placements, sharing
// no code with any solver family (no DP, matching, profile, or greedy
// helpers — only the Instance/Schedule data containers are read). This is
// the cross-checking layer of the Baptiste–Chrobak–Dürr experimental
// methodology: a solver's claim is only trusted once an implementation that
// cannot share its bugs re-derives the same numbers.
//
// Three entry points:
//   audit_schedule()  feasibility re-validation + cost re-derivation
//   min_power()       least power any execution of the schedule can pay
//   check_result()    verdict on one engine SolveResult (engine/CLI/bench
//                     wiring; SolveParams::validate routes through here)

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "gapsched/core/instance.hpp"
#include "gapsched/core/schedule.hpp"
#include "gapsched/engine/types.hpp"

namespace gapsched::oracle {

/// Outcome of the independent re-validation and cost re-derivation.
/// Cost fields are derived by the oracle's own counting sweep over the raw
/// placements and are only meaningful when `valid`.
struct ScheduleAudit {
  /// True when every structural check passed.
  bool valid = false;
  /// Every violation found (the oracle keeps scanning after the first, so
  /// a broken solver surfaces all of its sins at once).
  std::vector<std::string> violations;

  /// Jobs with a placement.
  std::size_t scheduled = 0;
  /// True when every job is placed.
  bool complete = false;
  /// (time, #jobs) for busy times, sorted by time.
  std::vector<std::pair<Time, int>> occupancy;
  /// Total busy processor-time units (= scheduled, unit jobs).
  std::int64_t busy_time = 0;
  int max_occupancy = 0;
  /// Sleep->active transitions under the staircase normal form (the gap
  /// objective): sum over times of the occupancy increase vs. time - 1.
  std::int64_t transitions = 0;
  /// Maximal busy stretches of the whole system (span count; equals
  /// transitions on one processor).
  std::int64_t spans = 0;

  /// One diagnostic line joining all violations (empty when valid).
  std::string violation_summary() const;
};

/// Re-validates `schedule` against `inst`: per-job window membership,
/// per-time occupancy <= processors, processor indices in range with no
/// (time, processor) collisions, and completeness when `require_complete`.
/// Always fills the cost fields from whatever placements exist.
ScheduleAudit audit_schedule(const Instance& inst, const Schedule& schedule,
                             bool require_complete = true);

/// Minimum total power (active time + alpha * wake-ups) any execution of
/// the audited schedule can pay, i.e. with optimal idle bridging: processor
/// level q must be awake whenever occupancy >= q, and an interior idle run
/// of length g at a level costs min(g, alpha). No solver's reported power
/// may ever be below this for its own schedule; exact power solvers must
/// match it. Requires alpha >= 0.
double min_power(const ScheduleAudit& audit, double alpha);

/// Re-checks one solver outcome against the instance, objective and
/// parameters it answers:
///   kGaps        schedule valid + complete, transitions re-derived and
///                equal to both `transitions` and `cost`
///   kPower       schedule valid + complete, cost >= min_power(schedule)
///                (== when `exact`)
///   kThroughput  schedule valid (partial allowed), cost == #scheduled,
///                span count within params.max_spans
/// Rejections and infeasible verdicts carry no schedule and pass trivially
/// (the differential suite cross-checks those *between* solvers instead).
/// Returns "" when the claim survives, else a diagnostic.
std::string check_result(const Instance& instance, engine::Objective objective,
                         const engine::SolveParams& params,
                         const engine::SolveResult& result, bool exact);

/// The same check against a request's instance, objective and parameters.
std::string check_result(const engine::SolveRequest& request,
                         const engine::SolveResult& result, bool exact);

}  // namespace gapsched::oracle
