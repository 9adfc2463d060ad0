// Metamorphic properties of the exact solvers: known-answer tests need a
// ground truth, but these relations must hold between *pairs* of solves on
// transformed instances with no ground truth at all:
//
//   * time-shift invariance — shifting every window by +c preserves
//     feasibility and both objective optima (gap counts and idle-run
//     lengths are translation invariant),
//   * job-order permutation invariance — the optimum is a function of the
//     multiset of jobs,
//   * processor-count monotonicity — adding processors never worsens the
//     optimum (any p-processor schedule is a (p+1)-processor schedule),
//   * time-stretch invariance — dilating every interior dead run that is
//     already longer than alpha leaves BOTH optima unchanged: dead runs
//     are unusable (gap objective) and every dilated idle run stays on the
//     min(gap, alpha) = alpha plateau (power objective). This is the
//     pre-compression ground truth for the engine's length-aware capped
//     compression, exercised both through core/transforms directly and
//     through the catalog's `stretched:<k>` wrapper.
//
// Runs under the `long` ctest label next to the differential suite.

#include <gtest/gtest.h>

#include <cmath>
#include <numeric>
#include <string>
#include <vector>

#include "gapsched/core/transforms.hpp"
#include "gapsched/engine/engine.hpp"
#include "gapsched/scenarios/scenarios.hpp"
#include "gapsched/util/prng.hpp"
#include "../support/test_seed.hpp"

namespace gapsched {
namespace {

using engine::Objective;
using engine::SolveRequest;
using engine::SolveResult;

constexpr double kAlpha = 2.5;

/// One-interval single-processor catalog scenarios: the exact DP envelope
/// every property below exercises.
std::vector<const scenarios::Scenario*> dp_scenarios() {
  std::vector<const scenarios::Scenario*> out;
  for (const scenarios::Scenario* s :
       scenarios::ScenarioCatalog::instance().all()) {
    if (s->one_interval && s->processors == 1) out.push_back(s);
  }
  return out;
}

SolveResult solve(const char* solver, Instance inst, Objective obj) {
  // The engine's solve cache stays OFF here on purpose: shifted and
  // permuted instances share a canonical form, so with the cache on every
  // invariance below would be satisfied by construction (one solve, N
  // lookups) instead of by N independent solves. The cache-on equivalences
  // are pinned separately in tests/engine/engine_cache_test.cpp.
  static engine::Engine eng({.cache = false});
  SolveRequest req;
  req.instance = std::move(inst);
  req.objective = obj;
  req.params.alpha = kAlpha;
  req.params.validate = true;
  SolveResult r = eng.solve(solver, req);
  EXPECT_EQ(r.audit_error, "") << solver << ": " << r.audit_error;
  return r;
}

Instance shifted(const Instance& inst, Time delta) {
  Instance out;
  out.processors = inst.processors;
  out.jobs.reserve(inst.n());
  for (const Job& j : inst.jobs) {
    out.jobs.push_back(Job{j.allowed.shifted(delta)});
  }
  return out;
}

TEST(Metamorphic, TimeShiftInvariance) {
  for (const scenarios::Scenario* sc : dp_scenarios()) {
    SCOPED_TRACE(::testing::Message() << "scenario " << sc->name);
    for (int draw = 0; draw < 2; ++draw) {
      const std::uint64_t seed = testing::seed_for(500 + 13 * draw);
      GAPSCHED_TRACE_SEED(seed);
      const Instance inst = sc->make(seed);
      const SolveResult base = solve("gap_dp", inst, Objective::kGaps);
      const SolveResult pbase = solve("power_dp", inst, Objective::kPower);
      ASSERT_TRUE(base.ok && pbase.ok) << base.error << pbase.error;
      for (Time delta : {Time{1}, Time{97}}) {
        const SolveResult moved =
            solve("gap_dp", shifted(inst, delta), Objective::kGaps);
        ASSERT_TRUE(moved.ok) << moved.error;
        EXPECT_EQ(base.feasible, moved.feasible) << "delta " << delta;
        if (base.feasible) {
          EXPECT_EQ(base.transitions, moved.transitions) << "delta " << delta;
        }

        const SolveResult pmoved =
            solve("power_dp", shifted(inst, delta), Objective::kPower);
        ASSERT_TRUE(pmoved.ok) << pmoved.error;
        EXPECT_EQ(pbase.feasible, pmoved.feasible) << "delta " << delta;
        if (pbase.feasible) {
          EXPECT_DOUBLE_EQ(pbase.cost, pmoved.cost) << "delta " << delta;
        }
      }
    }
  }
}

TEST(Metamorphic, JobOrderPermutationInvariance) {
  for (const scenarios::Scenario* sc : dp_scenarios()) {
    SCOPED_TRACE(::testing::Message() << "scenario " << sc->name);
    const std::uint64_t seed = testing::seed_for(600);
    GAPSCHED_TRACE_SEED(seed);
    const Instance inst = sc->make(seed);

    Prng perm_rng(testing::seed_for(601));
    for (int round = 0; round < 3; ++round) {
      std::vector<std::size_t> order(inst.n());
      std::iota(order.begin(), order.end(), std::size_t{0});
      perm_rng.shuffle(order);
      Instance permuted;
      permuted.processors = inst.processors;
      for (std::size_t idx : order) permuted.jobs.push_back(inst.jobs[idx]);

      const SolveResult base = solve("gap_dp", inst, Objective::kGaps);
      const SolveResult perm = solve("gap_dp", permuted, Objective::kGaps);
      EXPECT_EQ(base.feasible, perm.feasible);
      if (base.feasible && perm.feasible) {
        EXPECT_EQ(base.transitions, perm.transitions);
      }

      const SolveResult pbase = solve("power_dp", inst, Objective::kPower);
      const SolveResult pperm = solve("power_dp", permuted, Objective::kPower);
      EXPECT_EQ(pbase.feasible, pperm.feasible);
      if (pbase.feasible && pperm.feasible) {
        EXPECT_DOUBLE_EQ(pbase.cost, pperm.cost);
      }
    }
  }
}

TEST(Metamorphic, TimeStretchInvariance) {
  // Dilating every interior dead run of length >= ceil(alpha) + 1 by k
  // must leave the gap and power optima unchanged — with no ground truth
  // needed. Pinned against every one-interval DP-envelope scenario, both
  // through the transform directly and through the catalog's dynamic
  // `stretched:<k>` wrapper (whose dilation floor kStretchMinRun covers
  // this suite's alpha).
  const Time floor = static_cast<Time>(std::ceil(kAlpha)) + 1;
  ASSERT_GE(floor, scenarios::kStretchMinRun)
      << "wrapper floor must stay sound for this suite's alpha";
  for (const scenarios::Scenario* sc : dp_scenarios()) {
    SCOPED_TRACE(::testing::Message() << "scenario " << sc->name);
    for (int draw = 0; draw < 2; ++draw) {
      const std::uint64_t seed = testing::seed_for(800 + 41 * draw);
      GAPSCHED_TRACE_SEED(seed);
      const Instance inst = sc->make(seed);
      const SolveResult base = solve("gap_dp", inst, Objective::kGaps);
      const SolveResult pbase = solve("power_dp", inst, Objective::kPower);
      ASSERT_TRUE(base.ok && pbase.ok) << base.error << pbase.error;
      for (Time k : {Time{2}, Time{13}}) {
        const Instance wide = stretch_dead_time(inst, k, floor);
        const SolveResult moved = solve("gap_dp", wide, Objective::kGaps);
        ASSERT_TRUE(moved.ok) << moved.error;
        EXPECT_EQ(base.feasible, moved.feasible) << "k " << k;
        if (base.feasible) {
          EXPECT_EQ(base.transitions, moved.transitions) << "k " << k;
        }

        const SolveResult pmoved = solve("power_dp", wide, Objective::kPower);
        ASSERT_TRUE(pmoved.ok) << pmoved.error;
        EXPECT_EQ(pbase.feasible, pmoved.feasible) << "k " << k;
        if (pbase.feasible) {
          EXPECT_DOUBLE_EQ(pbase.cost, pmoved.cost) << "k " << k;
        }
      }

      // The wrapper draws the same dilated family by name.
      const auto wrapped =
          scenarios::make_scenario("stretched:5:" + sc->name, seed);
      ASSERT_TRUE(wrapped.has_value());
      const SolveResult wgap = solve("gap_dp", *wrapped, Objective::kGaps);
      const SolveResult wpow = solve("power_dp", *wrapped, Objective::kPower);
      ASSERT_TRUE(wgap.ok && wpow.ok) << wgap.error << wpow.error;
      EXPECT_EQ(base.feasible, wgap.feasible);
      EXPECT_EQ(pbase.feasible, wpow.feasible);
      if (base.feasible) {
        EXPECT_EQ(base.transitions, wgap.transitions);
      }
      if (pbase.feasible) {
        EXPECT_DOUBLE_EQ(pbase.cost, wpow.cost);
      }
    }
  }
}

TEST(Metamorphic, ProcessorCountMonotonicity) {
  for (const scenarios::Scenario* sc : dp_scenarios()) {
    SCOPED_TRACE(::testing::Message() << "scenario " << sc->name);
    for (int draw = 0; draw < 2; ++draw) {
      const std::uint64_t seed = testing::seed_for(700 + 31 * draw);
      GAPSCHED_TRACE_SEED(seed);
      Instance inst = sc->make(seed);

      std::int64_t prev_gap = -1;
      double prev_power = -1.0;
      bool prev_feasible = false;
      for (int p = 1; p <= 3; ++p) {
        inst.processors = p;
        const SolveResult gap = solve("gap_dp", inst, Objective::kGaps);
        const SolveResult power = solve("power_dp", inst, Objective::kPower);
        ASSERT_TRUE(gap.ok && power.ok) << gap.error << power.error;
        EXPECT_EQ(gap.feasible, power.feasible) << "p=" << p;
        // Feasibility is monotone in p.
        if (prev_feasible) {
          EXPECT_TRUE(gap.feasible) << "lost feasibility growing p to " << p;
        }
        if (gap.feasible && prev_gap >= 0) {
          EXPECT_LE(gap.transitions, prev_gap) << "p=" << p;
        }
        if (power.feasible && prev_power >= 0.0) {
          EXPECT_LE(power.cost, prev_power + 1e-9) << "p=" << p;
        }
        prev_feasible = gap.feasible;
        if (gap.feasible) prev_gap = gap.transitions;
        if (power.feasible) prev_power = power.cost;
      }
    }
  }
}

}  // namespace
}  // namespace gapsched
