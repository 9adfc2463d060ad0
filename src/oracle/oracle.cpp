#include "gapsched/oracle/oracle.hpp"

#include <algorithm>
#include <cmath>

#include "gapsched/util/nearly_sorted.hpp"

namespace gapsched::oracle {

namespace {

using engine::Objective;

/// Window membership by direct interval scan (deliberately not
/// TimeSet::contains, so a search bug there cannot hide a matching bug
/// here).
bool allowed_at(const Job& job, Time t) {
  for (const Interval& iv : job.allowed.intervals()) {
    if (iv.lo <= t && t <= iv.hi) return true;
  }
  return false;
}

std::string fmt_time(Time t) { return std::to_string(t); }

}  // namespace

std::string ScheduleAudit::violation_summary() const {
  std::string out;
  for (const std::string& v : violations) {
    if (!out.empty()) out += "; ";
    out += v;
  }
  return out;
}

ScheduleAudit audit_schedule(const Instance& inst, const Schedule& schedule,
                             bool require_complete) {
  ScheduleAudit a;
  if (schedule.size() != inst.n()) {
    a.violations.push_back("schedule covers " +
                           std::to_string(schedule.size()) + " jobs, instance has " +
                           std::to_string(inst.n()));
    return a;
  }

  // Collect raw placements; every structural check is a direct scan. Each
  // scheduled job contributes its (time, processor), sorted once (in about
  // one pass when job order roughly follows time, as in a canonical
  // component): runs of equal times are the occupancy and runs of equal
  // pairs the collisions.
  // A job without a processor, or on one out of range, counts in the
  // occupancy only (as kUnassigned, which no collision check matches).
  std::vector<std::pair<Time, int>> placed;
  placed.reserve(inst.n());
  for (std::size_t i = 0; i < inst.n(); ++i) {
    const auto& slot = schedule.at(i);
    if (!slot.has_value()) {
      if (require_complete) {
        a.violations.push_back("job " + std::to_string(i) + " unscheduled");
      }
      continue;
    }
    ++a.scheduled;
    if (!allowed_at(inst.jobs[i], slot->time)) {
      a.violations.push_back("job " + std::to_string(i) +
                             " runs at disallowed time " + fmt_time(slot->time));
    }
    int processor = Placement::kUnassigned;
    if (slot->processor != Placement::kUnassigned) {
      if (slot->processor < 0 || slot->processor >= inst.processors) {
        a.violations.push_back("job " + std::to_string(i) +
                               " on out-of-range processor " +
                               std::to_string(slot->processor));
      } else {
        processor = slot->processor;
      }
    }
    placed.emplace_back(slot->time, processor);
  }
  a.complete = a.scheduled == inst.n();
  a.busy_time = static_cast<std::int64_t>(placed.size());
  sort_nearly_sorted(placed.begin(), placed.end());

  // Occupancy sweep: run-length count, then capacity check.
  a.occupancy.reserve(placed.size());
  for (std::size_t i = 0; i < placed.size();) {
    std::size_t j = i;
    while (j < placed.size() && placed[j].first == placed[i].first) ++j;
    a.occupancy.emplace_back(placed[i].first, static_cast<int>(j - i));
    i = j;
  }
  for (const auto& [t, count] : a.occupancy) {
    if (count > inst.processors) {
      a.violations.push_back(std::to_string(count) + " jobs at time " +
                             fmt_time(t) + " on " +
                             std::to_string(inst.processors) + " processor(s)");
    }
    a.max_occupancy = std::max(a.max_occupancy, count);
  }

  // Explicit processor assignments must not collide.
  for (std::size_t i = 1; i < placed.size(); ++i) {
    if (placed[i] == placed[i - 1] &&
        placed[i].second != Placement::kUnassigned) {
      a.violations.push_back("two jobs share time " +
                             fmt_time(placed[i].first) + " on processor " +
                             std::to_string(placed[i].second));
    }
  }

  // Staircase transitions and system spans from the occupancy sweep.
  Time prev_t = 0;
  int prev_count = 0;
  for (const auto& [t, count] : a.occupancy) {
    const int carried = (prev_count > 0 && t == prev_t + 1) ? prev_count : 0;
    if (carried == 0) ++a.spans;
    a.transitions += std::max(0, count - carried);
    prev_t = t;
    prev_count = count;
  }

  a.valid = a.violations.empty();
  return a;
}

double min_power(const ScheduleAudit& audit, double alpha) {
  // Level decomposition: processor level q (1-based) must be awake at every
  // time with occupancy >= q. Per level, each first wake-up costs alpha and
  // each interior idle run of length g costs min(g, alpha); busy units cost
  // 1 each. Level busy sets are nested, so per-level optima sum to the
  // schedule's optimum (see core/profile.hpp for the proof sketch — the
  // oracle re-derives the number by its own sweep, not by calling it).
  double total = 0.0;
  for (int level = 1; level <= audit.max_occupancy; ++level) {
    bool awake_before = false;
    Time last_busy = 0;
    for (const auto& [t, count] : audit.occupancy) {
      if (count < level) continue;
      if (!awake_before) {
        total += alpha;  // initial wake-up of this level
      } else if (t > last_busy + 1) {
        const double gap = static_cast<double>(t - last_busy - 1);
        total += std::min(gap, alpha);  // bridge or sleep+rewake, cheapest
      }
      total += 1.0;  // the busy unit itself
      awake_before = true;
      last_busy = t;
    }
  }
  return total;
}

std::string check_result(const Instance& instance, Objective objective,
                         const engine::SolveParams& params,
                         const engine::SolveResult& result, bool exact) {
  if (!result.ok || !result.feasible) return "";

  const bool partial_ok = objective == Objective::kThroughput;
  const ScheduleAudit audit =
      audit_schedule(instance, result.schedule, !partial_ok);
  if (!audit.valid) return "invalid schedule: " + audit.violation_summary();
  if (result.stats.scheduled != audit.scheduled) {
    return "stats.scheduled = " + std::to_string(result.stats.scheduled) +
           " but " + std::to_string(audit.scheduled) + " jobs are placed";
  }

  switch (objective) {
    case Objective::kGaps: {
      if (result.transitions != audit.transitions) {
        return "claimed " + std::to_string(result.transitions) +
               " transitions, schedule has " +
               std::to_string(audit.transitions);
      }
      if (result.cost != static_cast<double>(audit.transitions)) {
        return "gap cost " + std::to_string(result.cost) +
               " disagrees with re-derived transitions " +
               std::to_string(audit.transitions);
      }
      break;
    }
    case Objective::kPower: {
      const double floor = min_power(audit, params.alpha);
      const double tol =
          1e-9 * std::max({1.0, std::fabs(result.cost), std::fabs(floor)});
      if (result.cost < floor - tol) {
        return "claimed power " + std::to_string(result.cost) +
               " is below the schedule's minimum " + std::to_string(floor);
      }
      if (exact && std::fabs(result.cost - floor) > tol) {
        return "exact solver's power " + std::to_string(result.cost) +
               " differs from the schedule's optimal bridging " +
               std::to_string(floor);
      }
      break;
    }
    case Objective::kThroughput: {
      if (result.cost != static_cast<double>(audit.scheduled)) {
        return "throughput cost " + std::to_string(result.cost) +
               " disagrees with " + std::to_string(audit.scheduled) +
               " placed jobs";
      }
      if (audit.spans > static_cast<std::int64_t>(params.max_spans)) {
        return "schedule uses " + std::to_string(audit.spans) +
               " spans, budget is " + std::to_string(params.max_spans);
      }
      break;
    }
  }
  return "";
}

std::string check_result(const engine::SolveRequest& request,
                         const engine::SolveResult& result, bool exact) {
  return check_result(request.instance, request.objective, request.params,
                      result, exact);
}

}  // namespace gapsched::oracle
