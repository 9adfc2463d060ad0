// The oracle layer itself: hand-checked audits and refutations. The oracle
// is the layer everything else trusts, so its own tests avoid solvers
// entirely where possible and pin against hand-computed numbers.

#include "gapsched/oracle/oracle.hpp"

#include <gtest/gtest.h>

#include <string>

#include "gapsched/engine/engine.hpp"
#include "gapsched/gen/generators.hpp"
#include "gapsched/util/prng.hpp"
#include "../support/test_seed.hpp"

namespace gapsched::oracle {
namespace {

using engine::Objective;
using engine::SolveRequest;
using engine::SolveResult;

// ------------------------------------------------------------------ audit --

TEST(OracleAudit, EmptyScheduleOfEmptyInstance) {
  const ScheduleAudit a = audit_schedule(Instance{}, Schedule{});
  EXPECT_TRUE(a.valid);
  EXPECT_TRUE(a.complete);
  EXPECT_EQ(a.scheduled, 0u);
  EXPECT_EQ(a.transitions, 0);
  EXPECT_EQ(a.spans, 0);
  EXPECT_DOUBLE_EQ(min_power(a, 3.0), 0.0);
}

TEST(OracleAudit, HandComputedCosts) {
  // One processor; busy at {0, 1, 2, 5, 9}: 3 spans, 3 transitions.
  Instance inst = Instance::one_interval(
      {{0, 0}, {1, 1}, {2, 2}, {5, 5}, {9, 9}});
  Schedule s(5);
  for (std::size_t i = 0; i < 5; ++i) {
    s.place(i, inst.jobs[i].release());
  }
  const ScheduleAudit a = audit_schedule(inst, s);
  ASSERT_TRUE(a.valid) << a.violation_summary();
  EXPECT_EQ(a.busy_time, 5);
  EXPECT_EQ(a.max_occupancy, 1);
  EXPECT_EQ(a.transitions, 3);
  EXPECT_EQ(a.spans, 3);
  // Gaps: 2 (between 2 and 5) and 3 (between 5 and 9). With alpha = 2.5
  // the first is bridged (2 < 2.5), the second sleeps (pay alpha):
  // 5 busy + 2.5 initial wake + 2 bridge + 2.5 re-wake = 12.
  EXPECT_DOUBLE_EQ(min_power(a, 2.5), 12.0);
  // Huge alpha: bridge everything; one wake + busy + all idle bridged.
  EXPECT_DOUBLE_EQ(min_power(a, 100.0), 5.0 + 100.0 + 2.0 + 3.0);
  // alpha = 0: wake-ups free, sleep in every gap.
  EXPECT_DOUBLE_EQ(min_power(a, 0.0), 5.0);
}

TEST(OracleAudit, MultiprocessorStaircaseCosts) {
  // p = 2, occupancy {t0: 2, t1: 1, t3: 2}: staircase transitions =
  // 2 + 0 + 2 = 4 (both levels wake at 0; both re-wake at 3), spans = 2.
  Instance inst = Instance::one_interval(
      {{0, 0}, {0, 0}, {1, 1}, {3, 3}, {3, 3}}, 2);
  Schedule s(5);
  for (std::size_t i = 0; i < 5; ++i) s.place(i, inst.jobs[i].release());
  const ScheduleAudit a = audit_schedule(inst, s);
  ASSERT_TRUE(a.valid) << a.violation_summary();
  EXPECT_EQ(a.max_occupancy, 2);
  EXPECT_EQ(a.transitions, 4);
  EXPECT_EQ(a.spans, 2);
  // alpha = 1: level 1 has gap 1 (time 2) bridged at cost 1; level 2 has
  // gap {1, 2} of length 2, sleeping (cost alpha = 1) ties bridging's 2 —
  // pay min = 1. Total = 5 busy + 2 wakes + 1 + 1 = 9.
  EXPECT_DOUBLE_EQ(min_power(a, 1.0), 9.0);
}

TEST(OracleAudit, CollectsEveryViolation) {
  Instance inst = Instance::one_interval({{0, 2}, {0, 2}, {5, 6}}, 1);
  Schedule s(3);
  s.place(0, 1, 0);
  s.place(1, 1, 0);  // same time AND same processor as job 0 (p = 1: over
                     // capacity too)
  s.place(2, 3);     // outside [5, 6]
  const ScheduleAudit a = audit_schedule(inst, s);
  EXPECT_FALSE(a.valid);
  // Three distinct violations: disallowed time, capacity, collision.
  EXPECT_EQ(a.violations.size(), 3u) << a.violation_summary();
}

TEST(OracleAudit, IncompleteAndSizeMismatch) {
  Instance inst = Instance::one_interval({{0, 2}, {0, 2}});
  Schedule partial(2);
  partial.place(0, 0);
  EXPECT_FALSE(audit_schedule(inst, partial, true).valid);
  const ScheduleAudit relaxed = audit_schedule(inst, partial, false);
  EXPECT_TRUE(relaxed.valid);
  EXPECT_EQ(relaxed.scheduled, 1u);
  EXPECT_FALSE(relaxed.complete);

  EXPECT_FALSE(audit_schedule(inst, Schedule(3)).valid);
}

TEST(OracleAudit, OutOfRangeProcessor) {
  Instance inst = Instance::one_interval({{0, 2}}, 2);
  Schedule s(1);
  s.place(0, 0, 2);  // processors are 0 and 1
  EXPECT_FALSE(audit_schedule(inst, s).valid);
}

TEST(OracleAudit, AgreesWithProfileImplementation) {
  // Cross-implementation agreement on random schedules: the oracle's sweep
  // and core/profile.hpp were written independently and must coincide.
  for (std::uint64_t site = 0; site < 20; ++site) {
    const std::uint64_t seed = testing::seed_for(site);
    GAPSCHED_TRACE_SEED(seed);
    Prng rng(seed);
    const int p = 1 + static_cast<int>(rng.index(3));
    Instance inst = gen_feasible_one_interval(rng, 10, 14, 3, p);
    // Any allowed placement is fine for this comparison (may be invalid
    // w.r.t. capacity; restrict to an anchor-ish draw: each job at its
    // release, trimmed to capacity by skipping overfull times).
    Schedule s(inst.n());
    std::vector<std::pair<Time, int>> used;
    for (std::size_t i = 0; i < inst.n(); ++i) {
      for (const Interval& iv : inst.jobs[i].allowed.intervals()) {
        bool placed = false;
        for (Time t = iv.lo; t <= iv.hi && !placed; ++t) {
          int count = 0;
          for (const auto& [ut, uc] : used) {
            if (ut == t) count = uc;
          }
          if (count < p) {
            s.place(i, t);
            bool found = false;
            for (auto& [ut, uc] : used) {
              if (ut == t) {
                ++uc;
                found = true;
              }
            }
            if (!found) used.emplace_back(t, 1);
            placed = true;
          }
        }
        if (placed) break;
      }
    }
    const ScheduleAudit a = audit_schedule(inst, s, false);
    ASSERT_TRUE(a.valid) << a.violation_summary();
    const OccupancyProfile profile = s.profile();
    EXPECT_EQ(a.transitions, profile.transitions());
    EXPECT_EQ(a.spans, profile.spans());
    EXPECT_EQ(a.busy_time, profile.busy_time());
    EXPECT_EQ(a.max_occupancy, profile.max_occupancy());
    for (double alpha : {0.0, 0.5, 1.0, 2.5, 7.0}) {
      EXPECT_DOUBLE_EQ(min_power(a, alpha), profile.optimal_power(alpha))
          << "alpha=" << alpha;
    }
  }
}

// ----------------------------------------------------------- check_result --

/// check_result's verdict on `result`. Every fixture goes through both
/// forms, the request form and the instance form it forwards to, and they
/// must agree word for word, refutations included.
std::string verdict(const SolveRequest& req, const SolveResult& result,
                    bool exact) {
  const std::string by_request = check_result(req, result, exact);
  const std::string by_instance =
      check_result(req.instance, req.objective, req.params, result, exact);
  EXPECT_EQ(by_instance, by_request);
  return by_request;
}

SolveRequest gap_request(Instance inst) {
  SolveRequest req;
  req.instance = std::move(inst);
  req.objective = Objective::kGaps;
  return req;
}

TEST(OracleCheck, AcceptsHonestGapClaim) {
  Instance inst = Instance::one_interval({{0, 1}, {0, 1}});
  SolveResult res;
  res.ok = true;
  res.feasible = true;
  res.schedule = Schedule(2);
  res.schedule.place(0, 0);
  res.schedule.place(1, 1);
  res.transitions = 1;
  res.cost = 1.0;
  res.stats.scheduled = 2;
  EXPECT_EQ(verdict(gap_request(inst), res, true), "");
}

TEST(OracleCheck, RefutesWrongTransitionCount) {
  Instance inst = Instance::one_interval({{0, 1}, {0, 1}});
  SolveResult res;
  res.ok = true;
  res.feasible = true;
  res.schedule = Schedule(2);
  res.schedule.place(0, 0);
  res.schedule.place(1, 1);
  res.transitions = 2;  // lie: the schedule has 1
  res.cost = 2.0;
  res.stats.scheduled = 2;
  EXPECT_NE(verdict(gap_request(inst), res, true), "");
}

TEST(OracleCheck, RefutesInvalidSchedule) {
  Instance inst = Instance::one_interval({{0, 1}, {5, 6}});
  SolveResult res;
  res.ok = true;
  res.feasible = true;
  res.schedule = Schedule(2);
  res.schedule.place(0, 0);
  res.schedule.place(1, 0);  // job 1 outside its window, and over capacity
  res.transitions = 1;
  res.cost = 1.0;
  res.stats.scheduled = 2;
  const std::string diag = verdict(gap_request(inst), res, true);
  EXPECT_NE(diag.find("invalid schedule"), std::string::npos) << diag;
}

TEST(OracleCheck, PowerClaimBelowFloorIsRefuted) {
  Instance inst = Instance::one_interval({{0, 0}, {9, 9}});
  SolveRequest req;
  req.instance = inst;
  req.objective = Objective::kPower;
  req.params.alpha = 2.0;
  SolveResult res;
  res.ok = true;
  res.feasible = true;
  res.schedule = Schedule(2);
  res.schedule.place(0, 0);
  res.schedule.place(1, 9);
  res.stats.scheduled = 2;
  // Floor: 2 busy + 2 wake + 2 re-wake (gap 8 > alpha) = 6.
  res.cost = 6.0;
  EXPECT_EQ(verdict(req, res, true), "");
  res.cost = 5.0;  // below any execution of this schedule
  EXPECT_NE(verdict(req, res, false), "");
  res.cost = 7.5;  // a heuristic may overpay...
  EXPECT_EQ(verdict(req, res, false), "");
  EXPECT_NE(verdict(req, res, true), "");  // ...an exact solver may not
}

TEST(OracleCheck, ThroughputBudgetIsEnforced) {
  Instance inst = Instance::one_interval({{0, 0}, {5, 5}, {10, 10}});
  SolveRequest req;
  req.instance = inst;
  req.objective = Objective::kThroughput;
  req.params.max_spans = 2;
  SolveResult res;
  res.ok = true;
  res.feasible = true;
  res.schedule = Schedule(3);
  res.schedule.place(0, 0);
  res.schedule.place(1, 5);
  res.stats.scheduled = 2;
  res.cost = 2.0;
  EXPECT_EQ(verdict(req, res, false), "");

  res.schedule.place(2, 10);  // three spans on a budget of two
  res.stats.scheduled = 3;
  res.cost = 3.0;
  const std::string diag = verdict(req, res, false);
  EXPECT_NE(diag.find("spans"), std::string::npos) << diag;
}

TEST(OracleCheck, RejectionsAndInfeasiblePassTrivially) {
  SolveResult rejected = SolveResult::rejected("nope");
  EXPECT_EQ(verdict(SolveRequest{}, rejected, true), "");
  SolveResult infeasible;
  infeasible.ok = true;
  infeasible.feasible = false;
  EXPECT_EQ(verdict(SolveRequest{}, infeasible, true), "");
}

// --------------------------------------------------------- engine wiring --

/// Cache-off engine for the validate-flag pins (fresh solves, fresh audits).
engine::Engine& oracle_engine() {
  static engine::Engine eng({.cache = false});
  return eng;
}

TEST(OracleEngine, ValidateFlagAuditsRealSolves) {
  for (std::uint64_t site = 0; site < 6; ++site) {
    const std::uint64_t seed = testing::seed_for(1000 + site);
    GAPSCHED_TRACE_SEED(seed);
    Prng rng(seed);
    SolveRequest req;
    req.instance = gen_feasible_one_interval(rng, 8, 14, 3, 1);
    req.objective = Objective::kGaps;
    req.params.validate = true;
    const SolveResult r = oracle_engine().solve("gap_dp", req);
    ASSERT_TRUE(r.ok) << r.error;
    EXPECT_TRUE(r.audited);
    EXPECT_EQ(r.audit_error, "") << r.audit_error;

    req.objective = Objective::kPower;
    req.params.alpha = 2.5;
    const SolveResult p = oracle_engine().solve("power_dp", req);
    ASSERT_TRUE(p.ok) << p.error;
    EXPECT_TRUE(p.audited);
    EXPECT_EQ(p.audit_error, "") << p.audit_error;
  }
}

TEST(OracleEngine, ValidateOffMeansNoAudit) {
  SolveRequest req;
  req.instance = Instance::one_interval({{0, 1}});
  req.objective = Objective::kGaps;
  const SolveResult r = oracle_engine().solve("gap_dp", req);
  ASSERT_TRUE(r.ok);
  EXPECT_FALSE(r.audited);
  EXPECT_EQ(r.audit_error, "");
}

}  // namespace
}  // namespace gapsched::oracle
