// gapsched::prep — canonicalization, independent-component decomposition,
// recombination, and the engine pipeline built on them:
//
//   * canonicalize() is idempotent and preserves the job multiset,
//   * decompose() cuts at separation threshold + 1 and not at threshold
//     (the exactly-n vs n+1 boundary the engine relies on),
//   * recombined optima equal the undecomposed optima (sum + zero bridge
//     term by the threshold construction) for both exact objectives,
//   * the engine pipeline fans components out, survives the oracle, and
//     the packed-key guard fires only when a single component is genuinely
//     too big.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "gapsched/core/transforms.hpp"
#include "gapsched/dp/dp_common.hpp"
#include "gapsched/dp/gap_dp.hpp"
#include "gapsched/dp/power_dp.hpp"
#include "gapsched/engine/engine.hpp"
#include "gapsched/gen/generators.hpp"
#include "gapsched/oracle/oracle.hpp"
#include "gapsched/prep/prep.hpp"
#include "gapsched/scenarios/scenarios.hpp"
#include "../support/test_seed.hpp"

namespace gapsched {
namespace {

using engine::Objective;
using engine::SolveRequest;
using engine::SolveResult;

SolveRequest request(Instance inst, Objective obj, double alpha = 2.5,
                     bool decompose = true) {
  SolveRequest req;
  req.instance = std::move(inst);
  req.objective = obj;
  req.params.alpha = alpha;
  req.params.validate = true;
  req.params.decompose = decompose;
  return req;
}

/// These suites pin the stateless pipeline itself (decomposition,
/// compression, recombination), so the engine's solve cache stays off —
/// cache-on semantics live in tests/engine/engine_cache_test.cpp.
SolveResult engine_solve(const char* solver, const SolveRequest& req) {
  static engine::Engine eng({.cache = false});
  return eng.solve(solver, req);
}

// ----------------------------------------------------------- canonicalize --

TEST(Canonicalize, SortsShiftsAndMapsBack) {
  const Instance inst =
      Instance::one_interval({{12, 14}, {5, 9}, {5, 7}, {20, 21}}, 2);
  const prep::Canonical canon = prep::canonicalize(inst);
  ASSERT_EQ(canon.instance.n(), 4u);
  EXPECT_EQ(canon.shift, 5);
  EXPECT_EQ(canon.instance.processors, 2);
  // Sorted by (release, deadline), origin at 0.
  EXPECT_EQ(canon.instance.jobs[0].release(), 0);
  EXPECT_EQ(canon.instance.jobs[0].deadline(), 2);
  EXPECT_EQ(canon.instance.jobs[1].deadline(), 4);
  EXPECT_EQ(canon.instance.jobs[3].release(), 15);
  // order maps canonical position -> original index.
  EXPECT_EQ(canon.order, (std::vector<std::size_t>{2, 1, 0, 3}));
  // Job multiset is preserved under the map.
  for (std::size_t i = 0; i < canon.order.size(); ++i) {
    EXPECT_EQ(canon.instance.jobs[i].allowed,
              inst.jobs[canon.order[i]].allowed.shifted(-canon.shift));
  }
}

TEST(Canonicalize, IsIdempotent) {
  Prng rng(testing::seed_for(910));
  const Instance inst = gen_uniform_one_interval(rng, 9, 30, 6);
  const prep::Canonical once = prep::canonicalize(inst);
  const prep::Canonical twice = prep::canonicalize(once.instance);
  EXPECT_EQ(twice.shift, 0);
  std::vector<std::size_t> identity(inst.n());
  for (std::size_t i = 0; i < identity.size(); ++i) identity[i] = i;
  EXPECT_EQ(twice.order, identity);
  EXPECT_EQ(twice.instance.jobs.size(), once.instance.jobs.size());
  for (std::size_t i = 0; i < inst.n(); ++i) {
    EXPECT_EQ(twice.instance.jobs[i].allowed, once.instance.jobs[i].allowed);
  }
}

TEST(Canonicalize, EmptyInstance) {
  const prep::Canonical canon = prep::canonicalize(Instance{});
  EXPECT_EQ(canon.instance.n(), 0u);
  EXPECT_EQ(canon.shift, 0);
  EXPECT_TRUE(canon.order.empty());
}

// -------------------------------------------------------------- decompose --

TEST(Decompose, CutsStrictlyAboveThresholdOnly) {
  // Two pinned clusters: [0,1] busy and a second pair starting at `gap`
  // dead units later. With n = 4 jobs the engine cuts at separation > 4.
  const auto with_separation = [](Time dead) {
    return Instance::one_interval(
        {{0, 0}, {1, 1}, {2 + dead, 2 + dead}, {3 + dead, 3 + dead}});
  };
  // Separation exactly n: one component.
  const prep::Decomposition at_n = prep::decompose(with_separation(4), 4);
  EXPECT_EQ(at_n.components.size(), 1u);
  EXPECT_TRUE(at_n.separations.empty());
  // Separation n + 1: two components, and the dead run is recorded.
  const prep::Decomposition above = prep::decompose(with_separation(5), 4);
  ASSERT_EQ(above.components.size(), 2u);
  ASSERT_EQ(above.separations.size(), 1u);
  EXPECT_EQ(above.separations[0], 5);
  // Component contents: re-anchored at 0 with original ids preserved.
  EXPECT_EQ(above.components[0].jobs, (std::vector<std::size_t>{0, 1}));
  EXPECT_EQ(above.components[1].jobs, (std::vector<std::size_t>{2, 3}));
  EXPECT_EQ(above.components[1].shift, 7);
  EXPECT_EQ(above.components[1].instance.jobs[0].release(), 0);
}

TEST(Decompose, MultiIntervalJobWeldsClusters) {
  // Job 2's allowed set straddles both clusters, so its span keeps them in
  // one component even though the clusters alone are far apart.
  Instance inst;
  inst.jobs.push_back(Job{TimeSet::window(0, 1)});
  inst.jobs.push_back(Job{TimeSet::window(40, 41)});
  inst.jobs.push_back(Job{TimeSet{{Interval{0, 1}, Interval{40, 41}}}});
  EXPECT_EQ(prep::decompose(inst, 3).components.size(), 1u);
  inst.jobs.pop_back();
  EXPECT_EQ(prep::decompose(inst, 3).components.size(), 2u);
}

TEST(Decompose, SparseSpreadSplitsPerJob) {
  // Far-apart pinned jobs: every job is its own component.
  std::vector<std::pair<Time, Time>> windows;
  for (int i = 0; i < 6; ++i) {
    windows.emplace_back(i * 50, i * 50 + 1);
  }
  const Instance inst = Instance::one_interval(windows);
  const prep::Decomposition dec =
      prep::decompose(inst, static_cast<Time>(inst.n()));
  EXPECT_EQ(dec.components.size(), 6u);
  for (const prep::Component& c : dec.components) {
    EXPECT_EQ(c.instance.n(), 1u);
    EXPECT_EQ(c.instance.earliest_release(), 0);
  }
}

/// Checks the moving decompose(Canonical&&) against the copying form on
/// `inst`: the same components (instances, shifts, job maps) and
/// separations, `canon` left intact by the copying form, and every
/// component job equal to its canonical job moved to the local origin.
void expect_moving_matches_copying(const Instance& inst, Time threshold) {
  const prep::Canonical canon = prep::canonicalize(inst);
  const prep::Canonical before = canon;
  const prep::Decomposition copied = prep::decompose(canon, threshold);
  const prep::Decomposition moved =
      prep::decompose(prep::canonicalize(inst), threshold);

  ASSERT_EQ(canon.instance.n(), before.instance.n());
  for (std::size_t i = 0; i < canon.instance.n(); ++i) {
    EXPECT_EQ(canon.instance.jobs[i].allowed, before.instance.jobs[i].allowed);
  }
  EXPECT_EQ(moved.separations, copied.separations);
  ASSERT_EQ(moved.components.size(), copied.components.size());
  std::size_t k = 0;  // canonical index of the next component job
  for (std::size_t c = 0; c < moved.components.size(); ++c) {
    SCOPED_TRACE(::testing::Message() << "component " << c);
    const prep::Component& a = moved.components[c];
    const prep::Component& b = copied.components[c];
    EXPECT_EQ(a.shift, b.shift);
    EXPECT_EQ(a.jobs, b.jobs);
    EXPECT_EQ(a.instance.processors, b.instance.processors);
    ASSERT_EQ(a.instance.n(), b.instance.n());
    for (std::size_t j = 0; j < a.instance.n(); ++j, ++k) {
      EXPECT_EQ(a.instance.jobs[j].allowed, b.instance.jobs[j].allowed);
      EXPECT_EQ(a.jobs[j], canon.order[k]);
      EXPECT_EQ(a.instance.jobs[j].allowed,
                canon.instance.jobs[k].allowed.shifted(canon.shift - a.shift));
    }
  }
  EXPECT_EQ(k, canon.instance.n());
}

TEST(Decompose, MovingFormMatchesTheCopyingForm) {
  expect_moving_matches_copying(Instance{}, 0);
  expect_moving_matches_copying(Instance::one_interval({{5, 9}}, 3), 1);
  // Three components; the second and third start at local origins 37 and
  // 83 of the canonical form, and the third holds a multi-interval job.
  Instance inst = Instance::one_interval({{40, 44}, {3, 5}, {43, 46}, {5, 8}});
  inst.jobs.push_back(Job{TimeSet({{86, 87}, {90, 92}})});
  inst.jobs.push_back(Job{TimeSet::window(88, 89)});
  const prep::Decomposition dec = prep::decompose(inst, 6);
  ASSERT_EQ(dec.components.size(), 3u);
  EXPECT_EQ(dec.components[1].shift, 40);
  EXPECT_EQ(dec.components[2].shift, 86);
  expect_moving_matches_copying(inst, 6);
  for (const scenarios::Scenario* sc :
       scenarios::ScenarioCatalog::instance().all()) {
    SCOPED_TRACE(sc->name);
    const Instance draw = sc->make(7);
    expect_moving_matches_copying(draw, static_cast<Time>(draw.n()));
  }
}

TEST(Decompose, RecombineRestoresIdsAndTimes) {
  const Instance inst =
      Instance::one_interval({{0, 1}, {30, 31}, {1, 2}, {32, 33}});
  const prep::Decomposition dec = prep::decompose(inst, 4);
  ASSERT_EQ(dec.components.size(), 2u);
  std::vector<Schedule> parts;
  for (const prep::Component& comp : dec.components) {
    Schedule s(comp.instance.n());
    for (std::size_t j = 0; j < comp.instance.n(); ++j) {
      s.place(j, comp.instance.jobs[j].release());
    }
    parts.push_back(std::move(s));
  }
  const Schedule whole = prep::recombine(dec, parts, inst.n());
  ASSERT_TRUE(whole.complete());
  for (std::size_t i = 0; i < inst.n(); ++i) {
    EXPECT_EQ(whole.at(i)->time, inst.jobs[i].release()) << i;
  }
}

// ---------------------------------------- optima are additive across cuts --

TEST(Decompose, RecombinedOptimaEqualUndecomposedOptima) {
  // Clustered draws with real dead runs between bursts.
  for (int draw = 0; draw < 4; ++draw) {
    const std::uint64_t seed = testing::seed_for(920 + draw);
    GAPSCHED_TRACE_SEED(seed);
    Prng rng(seed);
    std::vector<std::pair<Time, Time>> windows;
    Time base = 0;
    for (int cluster = 0; cluster < 3; ++cluster) {
      for (int j = 0; j < 3; ++j) {
        const Time lo = base + rng.uniform(0, 2);
        windows.emplace_back(lo, lo + rng.uniform(0, 2));
      }
      base += 40;  // far beyond n = 9 and alpha
    }
    const Instance inst = Instance::one_interval(windows);

    const engine::Solver* gap =
        engine::SolverRegistry::instance().find("gap_dp");
    const engine::Solver* power =
        engine::SolverRegistry::instance().find("power_dp");
    ASSERT_NE(gap, nullptr);
    ASSERT_NE(power, nullptr);

    const SolveResult gap_on = gap->solve(request(inst, Objective::kGaps));
    const SolveResult gap_off =
        gap->solve(request(inst, Objective::kGaps, 2.5, false));
    ASSERT_TRUE(gap_on.ok && gap_off.ok) << gap_on.error << gap_off.error;
    EXPECT_GT(gap_on.stats.components, 1u);
    EXPECT_EQ(gap_off.stats.components, 1u);  // the identity decomposition
    EXPECT_EQ(gap_on.feasible, gap_off.feasible);
    EXPECT_EQ(gap_on.transitions, gap_off.transitions);
    EXPECT_EQ(gap_on.cost, gap_off.cost);
    EXPECT_EQ(gap_on.audit_error, "");
    EXPECT_EQ(gap_off.audit_error, "");

    const SolveResult pow_on = power->solve(request(inst, Objective::kPower));
    const SolveResult pow_off =
        power->solve(request(inst, Objective::kPower, 2.5, false));
    ASSERT_TRUE(pow_on.ok && pow_off.ok) << pow_on.error << pow_off.error;
    EXPECT_GT(pow_on.stats.components, 1u);
    EXPECT_EQ(pow_on.feasible, pow_off.feasible);
    EXPECT_NEAR(pow_on.cost, pow_off.cost, 1e-9 * std::max(1.0, pow_off.cost));
    EXPECT_EQ(pow_on.audit_error, "");
    EXPECT_EQ(pow_off.audit_error, "");
  }
}

TEST(Decompose, RecombinedCostIsComponentSumPlusZeroBridges) {
  // The engine's recombined cost must equal the plain sum of per-component
  // optima: with cuts longer than max(n, ceil(alpha)), the closed-form
  // bridge term min(gap, alpha) equals the fresh wake-up alpha that each
  // right-hand component already prices, so the extra term is zero.
  const Instance inst =
      Instance::one_interval({{0, 2}, {1, 3}, {50, 52}, {100, 101}});
  const double alpha = 2.5;
  const prep::Decomposition dec = prep::decompose(inst, 4);
  ASSERT_EQ(dec.components.size(), 3u);

  std::int64_t gap_sum = 0;
  double power_sum = 0.0;
  for (const prep::Component& comp : dec.components) {
    const GapDpResult g = solve_gap_dp(comp.instance);
    ASSERT_TRUE(g.error.empty() && g.feasible);
    gap_sum += g.transitions;
    const PowerDpResult p = solve_power_dp(comp.instance, alpha);
    ASSERT_TRUE(p.error.empty() && p.feasible);
    power_sum += p.power;
  }

  const SolveResult gap_whole = engine_solve(
      "gap_dp", request(inst, Objective::kGaps, alpha));
  ASSERT_TRUE(gap_whole.ok && gap_whole.feasible);
  EXPECT_EQ(gap_whole.transitions, gap_sum);

  const SolveResult pow_whole = engine_solve(
      "power_dp", request(inst, Objective::kPower, alpha));
  ASSERT_TRUE(pow_whole.ok && pow_whole.feasible);
  EXPECT_NEAR(pow_whole.cost, power_sum, 1e-9 * std::max(1.0, power_sum));
  // And the oracle's independent bridge-cost floor agrees exactly.
  const oracle::ScheduleAudit audit =
      oracle::audit_schedule(inst, pow_whole.schedule);
  ASSERT_TRUE(audit.valid) << audit.violation_summary();
  EXPECT_NEAR(oracle::min_power(audit, alpha), power_sum,
              1e-9 * std::max(1.0, power_sum));
}

TEST(Decompose, InfeasibleComponentMakesWholeInfeasible) {
  // Left cluster feasible, right cluster overloaded (3 jobs, 2 slots, 1
  // processor).
  const Instance inst = Instance::one_interval(
      {{0, 1}, {1, 2}, {60, 61}, {60, 61}, {60, 61}});
  const SolveResult r =
      engine_solve("gap_dp", request(inst, Objective::kGaps));
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_GT(r.stats.components, 1u);
  EXPECT_FALSE(r.feasible);
}

// --------------------------------- engine pipeline at scale + guard sites --

TEST(Decompose, ManySingletonComponentsMatchClosedForm) {
  // 40 pinned jobs, 40 singleton components (solved inline — components
  // this small stay off the executor). Optima are known in closed form
  // (one span per job).
  std::vector<std::pair<Time, Time>> windows;
  for (int i = 0; i < 40; ++i) {
    const Time t = static_cast<Time>(i) * 60;
    windows.emplace_back(t, t);
  }
  const Instance inst = Instance::one_interval(windows);
  const double alpha = 3.0;

  const SolveResult gap =
      engine_solve("gap_dp", request(inst, Objective::kGaps, alpha));
  ASSERT_TRUE(gap.ok) << gap.error;
  ASSERT_TRUE(gap.feasible);
  EXPECT_EQ(gap.stats.components, 40u);
  EXPECT_EQ(gap.transitions, 40);
  EXPECT_TRUE(gap.schedule.complete());
  EXPECT_EQ(gap.audit_error, "");

  const SolveResult power =
      engine_solve("power_dp", request(inst, Objective::kPower, alpha));
  ASSERT_TRUE(power.ok) << power.error;
  ASSERT_TRUE(power.feasible);
  EXPECT_EQ(power.stats.components, 40u);
  EXPECT_NEAR(power.cost, 40.0 * (1.0 + alpha), 1e-9);
  EXPECT_EQ(power.audit_error, "");
}

TEST(Decompose, ThreadPoolFanoutMatchesClosedFormForLargeComponents) {
  // 3 clusters of 18 pinned jobs each: the largest component crosses the
  // parallel fan-out bar, so this exercises the executor fan-out end to
  // end. Within a cluster the 18 consecutive pinned jobs form one busy
  // run, so the optimum is one transition per cluster.
  std::vector<std::pair<Time, Time>> windows;
  for (int cluster = 0; cluster < 3; ++cluster) {
    const Time base = static_cast<Time>(cluster) * 500;
    for (int j = 0; j < 18; ++j) {
      windows.emplace_back(base + j, base + j);
    }
  }
  const Instance inst = Instance::one_interval(windows);

  const SolveResult gap =
      engine_solve("gap_dp", request(inst, Objective::kGaps));
  ASSERT_TRUE(gap.ok) << gap.error;
  ASSERT_TRUE(gap.feasible);
  EXPECT_EQ(gap.stats.components, 3u);
  EXPECT_EQ(gap.transitions, 3);
  EXPECT_TRUE(gap.schedule.complete());
  EXPECT_EQ(gap.audit_error, "");
}

TEST(Decompose, UnlocksInstancesOverThePackedKeyJobLimit) {
  // 4200 pinned far-apart jobs: over the monolithic DP's n <= 4095
  // packed-key limit, but trivially solvable once decomposed. With the
  // pipeline off, the guard must reject cleanly instead of aliasing memo
  // keys.
  std::vector<std::pair<Time, Time>> windows;
  for (int i = 0; i < 4200; ++i) {
    const Time t = static_cast<Time>(i) * 5000;  // spacing > n so prep cuts
    windows.emplace_back(t, t);
  }
  const Instance inst = Instance::one_interval(windows);

  const SolveResult on =
      engine_solve("gap_dp", request(inst, Objective::kGaps));
  ASSERT_TRUE(on.ok) << on.error;
  ASSERT_TRUE(on.feasible);
  EXPECT_EQ(on.stats.components, 4200u);
  EXPECT_EQ(on.transitions, 4200);
  EXPECT_EQ(on.audit_error, "");

  const SolveResult off = engine_solve(
      "gap_dp", request(inst, Objective::kGaps, 2.5, false));
  EXPECT_FALSE(off.ok);
  EXPECT_NE(off.error.find("packed-key"), std::string::npos) << off.error;
}

// ------------------------------ dead-time compression in the pipeline --
// Gap-objective pipeline solves run on dead-time-compressed components
// (core/transforms): interior runs no job can use shrink to one unit. The
// transition objective is exactly preserved; power is skipped because its
// idle-bridging term min(gap, alpha) depends on real gap lengths.

TEST(Compression, GapPipelinePreservesOptimaAndShrinksTheAxis) {
  // One cluster with a 3-unit interior dead run (separation <= n, so
  // decomposition cannot cut it — only compression removes it).
  const Instance inst = Instance::one_interval({{0, 1}, {1, 2}, {6, 7}});
  const SolveResult on =
      engine_solve("gap_dp", request(inst, Objective::kGaps));
  const SolveResult off =
      engine_solve("gap_dp", request(inst, Objective::kGaps, 2.5, false));
  ASSERT_TRUE(on.ok && off.ok) << on.error << off.error;
  ASSERT_TRUE(on.feasible && off.feasible);
  EXPECT_EQ(on.transitions, off.transitions);
  EXPECT_EQ(on.audit_error, "");
  EXPECT_EQ(off.audit_error, "");
  // The compressed candidate axis can only be smaller.
  EXPECT_LE(on.stats.states, off.stats.states);
  // The recombined schedule lives in original time coordinates.
  EXPECT_EQ(on.schedule.validate(inst), "");
}

TEST(Compression, WeldedClustersCompressAcrossTheDeadSpan) {
  // A multi-interval job welds two far-apart clusters into one component
  // (decompose cannot cut through its span), leaving a ~990-unit interior
  // dead run that only compression removes. The exact multi-interval
  // families must agree with their uncompressed selves.
  Instance inst;
  inst.jobs.push_back(Job{TimeSet::window(0, 1)});
  inst.jobs.push_back(Job{TimeSet{{Interval{0, 1}, Interval{1000, 1001}}}});
  inst.jobs.push_back(Job{TimeSet::window(1000, 1001)});
  for (const char* solver : {"brute_force", "span_search"}) {
    SCOPED_TRACE(solver);
    const SolveResult on =
        engine_solve(solver, request(inst, Objective::kGaps));
    const SolveResult off = engine_solve(
        solver, request(inst, Objective::kGaps, 2.5, false));
    ASSERT_TRUE(on.ok && off.ok) << on.error << off.error;
    ASSERT_TRUE(on.feasible && off.feasible);
    EXPECT_EQ(on.stats.components, 1u);  // welded: no cut, only compression
    EXPECT_EQ(on.transitions, off.transitions);
    EXPECT_EQ(on.audit_error, "");
    EXPECT_EQ(on.schedule.validate(inst), "");
  }
}

TEST(Compression, PowerPipelineCapsRunsAtCeilAlphaPlusOne) {
  // Ten pinned jobs spaced 8 dead units apart: every run is under the cut
  // threshold max(n, ceil(alpha)) = 10, so decomposition cannot remove any
  // of it — only the length-aware compression can, by truncating each run
  // of 8 to ceil(2.5) + 1 = 4 units. The power optimum must be exactly
  // preserved (each gap sits on the min(gap, alpha) = alpha plateau on
  // both sides of the map), and the dead-time saving must be reported.
  std::vector<std::pair<Time, Time>> windows;
  for (int i = 0; i < 10; ++i) {
    const Time t = static_cast<Time>(i) * 9;
    windows.emplace_back(t, t);
  }
  const Instance inst = Instance::one_interval(windows);
  const double alpha = 2.5;
  const SolveResult on = engine_solve(
      "power_dp", request(inst, Objective::kPower, alpha));
  const SolveResult off = engine_solve(
      "power_dp", request(inst, Objective::kPower, alpha, false));
  ASSERT_TRUE(on.ok && off.ok) << on.error << off.error;
  ASSERT_TRUE(on.feasible && off.feasible);
  EXPECT_EQ(on.stats.components, 1u);
  EXPECT_NEAR(on.cost, off.cost, 1e-9);
  // Closed form: 10 active units, one wake-up, 9 saturated bridge terms.
  EXPECT_NEAR(on.cost, 10.0 + alpha + 9 * alpha, 1e-9);
  EXPECT_EQ(on.audit_error, "");
  EXPECT_EQ(off.audit_error, "");
  // Each of the 9 runs shrank 8 -> 4. (Pinned jobs keep the Prop 2.1
  // candidate axis anchored at the pins, so the state count need not
  // shrink here — the axis-blowup savings are measured on wide-window
  // sparse scenarios in the T9 compression study.)
  EXPECT_EQ(on.stats.dead_time_removed, 9 * 4);
  EXPECT_EQ(off.stats.dead_time_removed, 0);
  EXPECT_LE(on.stats.states, off.stats.states);
  EXPECT_EQ(on.schedule.validate(inst), "");
}

TEST(Compression, PowerBridgesUnderAlphaAreNeverTruncated) {
  // Two pinned jobs separated by a 6-unit gap, alpha = 10: the power
  // optimum bridges the real gap (6 < alpha), so its exact length is
  // load-bearing. The cap ceil(alpha) + 1 = 11 exceeds the run, so the
  // pipeline must leave it alone — this pins the length-aware side of the
  // cap, where plain cap-1 compression would corrupt the optimum.
  const Instance inst = Instance::one_interval({{0, 0}, {7, 7}});
  const double alpha = 10.0;
  const SolveResult on = engine_solve(
      "power_dp", request(inst, Objective::kPower, alpha));
  const SolveResult off = engine_solve(
      "power_dp", request(inst, Objective::kPower, alpha, false));
  ASSERT_TRUE(on.ok && off.ok) << on.error << off.error;
  ASSERT_TRUE(on.feasible && off.feasible);
  EXPECT_NEAR(on.cost, off.cost, 1e-9);
  EXPECT_EQ(on.stats.dead_time_removed, 0);
  EXPECT_EQ(on.audit_error, "");

  // Sanity: at cap 1 (the gap objective's compression) the optimum
  // genuinely differs, so the equality above is evidence the cap is
  // length-aware, not a vacuous check.
  const CompressedInstance ci = compress_dead_time(inst);
  const PowerDpResult cap_one = solve_power_dp(ci.instance, alpha);
  ASSERT_TRUE(cap_one.feasible);
  EXPECT_NE(cap_one.power, on.cost);

  // And the deliberately-broken cap ceil(alpha) - 1 shrinks a saturated
  // bridge below alpha and corrupts the optimum — the mistake the fuzz
  // harness's pinned negative test catches at scale.
  const Instance tight = Instance::one_interval({{0, 0}, {11, 11}});
  const CompressedInstance bad = compress_dead_time_capped(
      tight, static_cast<Time>(std::ceil(alpha)) - 1);
  const PowerDpResult broken = solve_power_dp(bad.instance, alpha);
  const PowerDpResult truth = solve_power_dp(tight, alpha);
  ASSERT_TRUE(broken.feasible && truth.feasible);
  EXPECT_LT(broken.power, truth.power);
}

TEST(Compression, PowerCompressionOffIsHonoured) {
  // params.compress = false keeps dead runs at full length for both
  // objectives (cost must of course be unchanged — only the solved form
  // and the stats differ).
  std::vector<std::pair<Time, Time>> windows;
  for (int i = 0; i < 8; ++i) {
    const Time t = static_cast<Time>(i) * 8;
    windows.emplace_back(t, t);
  }
  const Instance inst = Instance::one_interval(windows);
  SolveRequest req = request(inst, Objective::kPower, 2.5);
  req.params.compress = false;
  const SolveResult plain = engine_solve("power_dp", req);
  ASSERT_TRUE(plain.ok && plain.feasible) << plain.error;
  EXPECT_EQ(plain.stats.dead_time_removed, 0);
  req.params.compress = true;
  const SolveResult squeezed = engine_solve("power_dp", req);
  ASSERT_TRUE(squeezed.ok && squeezed.feasible) << squeezed.error;
  EXPECT_GT(squeezed.stats.dead_time_removed, 0);
  EXPECT_NEAR(plain.cost, squeezed.cost, 1e-9);
}

TEST(Decompose, GuardFiresOnlyForOversizedSingleComponents) {
  // Three wide-window clusters whose joint candidate axis overflows the
  // dp::kThetaIndexBits (2^20) theta index, while each cluster alone stays
  // within every packed-key limit: decomposition is exactly what makes the
  // instance solvable, and the guard checks components, not the whole.
  // Each cluster spans ~700 * 520 candidate times, so the joint axis is
  // ~1.09M >= 2^20 but each cluster's ~365k is comfortably under.
  std::vector<std::pair<Time, Time>> windows;
  for (int cluster = 0; cluster < 3; ++cluster) {
    const Time base = static_cast<Time>(cluster) * 400000;
    for (int j = 0; j < 700; ++j) {
      const Time lo = base + static_cast<Time>(j) * 520;
      windows.emplace_back(lo, lo + 600);  // overlaps the next job's window
    }
  }
  const Instance inst = Instance::one_interval(windows);
  ASSERT_EQ(inst.n(), 2100u);

  // The monolithic axis is over the limit...
  dp::DpContext whole(inst);
  EXPECT_GE(whole.theta.size(), dp::kMaxThetaSize);
  EXPECT_NE(whole.limit_violation(), "");
  // ...and solve_gap_dp rejects it instead of corrupting its memo.
  const GapDpResult direct = solve_gap_dp(inst);
  EXPECT_FALSE(direct.error.empty());
  EXPECT_FALSE(direct.feasible);

  // But every component the engine would cut is individually inside the
  // limits (we do not run the component DPs here — 700 wide windows are
  // within capacity but far too slow for a unit test).
  const prep::Decomposition dec =
      prep::decompose(inst, static_cast<Time>(inst.n()));
  ASSERT_EQ(dec.components.size(), 3u);
  for (const prep::Component& comp : dec.components) {
    dp::DpContext ctx(comp.instance);
    EXPECT_EQ(ctx.limit_violation(), "")
        << "component with n = " << comp.instance.n();
  }
}

}  // namespace
}  // namespace gapsched
