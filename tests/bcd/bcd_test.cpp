// Unit suite for the Baptiste-Chrobak-Durr polynomial solver family
// (src/bcd): handcrafted optima for both objectives, randomized parity
// against the subset-DP ground truth at brute-forceable sizes, the
// registry's `baptiste` alias of bcd_poly_gap, the shape-guard and
// budget-valve error
// paths, and large-n smoke solves (n = 2000) with closed-form optima —
// the sizes the exponential families cannot touch, kept fast enough for
// tier1 precisely because the DP is polynomial.

#include "gapsched/bcd/bcd.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "gapsched/engine/registry.hpp"
#include "gapsched/exact/brute_force.hpp"
#include "gapsched/exact/power_brute_force.hpp"
#include "gapsched/gen/generators.hpp"
#include "gapsched/oracle/oracle.hpp"
#include "../support/test_seed.hpp"

namespace gapsched {
namespace {

constexpr double kAlpha = 2.5;

// ------------------------------------------------------- handcrafted gap --

TEST(Bcd, EmptyInstanceIsFeasibleWithNoTransitions) {
  const BcdGapResult r = solve_bcd_gap(Instance{});
  ASSERT_TRUE(r.feasible);
  EXPECT_EQ(r.transitions, 0);
}

TEST(Bcd, SingleSpanWhenPackable) {
  const Instance inst = Instance::one_interval({{0, 5}, {0, 5}, {0, 5}});
  const BcdGapResult r = solve_bcd_gap(inst);
  ASSERT_TRUE(r.feasible);
  EXPECT_EQ(r.transitions, 1);
  EXPECT_EQ(r.schedule.validate(inst), "");
}

TEST(Bcd, ForcedGapsCountBlocks) {
  const Instance inst = Instance::one_interval({{0, 0}, {10, 10}, {20, 20}});
  const BcdGapResult r = solve_bcd_gap(inst);
  ASSERT_TRUE(r.feasible);
  EXPECT_EQ(r.transitions, 3);
}

TEST(Bcd, InterleavesLooseJobsBetweenTightOnes) {
  // Tight jobs at 10, 12, 14; the loose pair fills 11 and 13: one span.
  const Instance inst = Instance::one_interval(
      {{10, 10}, {12, 12}, {14, 14}, {0, 20}, {0, 20}});
  const BcdGapResult r = solve_bcd_gap(inst);
  ASSERT_TRUE(r.feasible);
  EXPECT_EQ(r.transitions, 1);
}

TEST(Bcd, Infeasible) {
  const Instance inst = Instance::one_interval({{0, 0}, {0, 0}});
  const BcdGapResult r = solve_bcd_gap(inst);
  EXPECT_TRUE(r.error.empty());
  EXPECT_FALSE(r.feasible);
}

TEST(Bcd, IgnoresProcessorCount) {
  const Instance inst =
      Instance::one_interval({{0, 1}, {0, 1}}, /*processors=*/4);
  const BcdGapResult r = solve_bcd_gap(inst);
  ASSERT_TRUE(r.feasible);
  EXPECT_EQ(r.transitions, 1);  // solved as p = 1
}

// ----------------------------------------------------- handcrafted power --

TEST(Bcd, PowerPacksIntoOneBlock) {
  const Instance inst = Instance::one_interval({{0, 5}, {0, 5}, {0, 5}});
  const BcdPowerResult r = solve_bcd_power(inst, kAlpha);
  ASSERT_TRUE(r.feasible);
  EXPECT_DOUBLE_EQ(r.power, 3.0 + kAlpha);  // n active slots + one wake-up
}

TEST(Bcd, PowerBridgesShortGapAndSleepsLongGap) {
  // Slots 0, 2, 10 are forced: the 1-slot gap is bridged (cost 1 < alpha),
  // the 7-slot gap sleeps (cost alpha).
  const Instance inst = Instance::one_interval({{0, 0}, {2, 2}, {10, 10}});
  const BcdPowerResult r = solve_bcd_power(inst, kAlpha);
  ASSERT_TRUE(r.feasible);
  EXPECT_DOUBLE_EQ(r.power, 3.0 + kAlpha + 1.0 + kAlpha);
}

TEST(Bcd, PowerZeroAlphaChargesActiveTimeOnly) {
  const Instance inst = Instance::one_interval({{0, 0}, {5, 9}, {20, 20}});
  const BcdPowerResult r = solve_bcd_power(inst, 0.0);
  ASSERT_TRUE(r.feasible);
  EXPECT_DOUBLE_EQ(r.power, 3.0);  // gaps are free at alpha = 0
}

TEST(Bcd, PowerDelaysAJobToMergeGaps) {
  // The loose job can run anywhere in [0, 10]; parking it adjacent to one
  // of the tight jobs beats opening a third block. Optimum: blocks {0} and
  // {9, 10} (or {0, 1} and {10}), one interior gap of 8 -> alpha.
  const Instance inst = Instance::one_interval({{0, 0}, {10, 10}, {0, 10}});
  const BcdPowerResult r = solve_bcd_power(inst, kAlpha);
  ASSERT_TRUE(r.feasible);
  EXPECT_DOUBLE_EQ(r.power, 3.0 + kAlpha + kAlpha);
  const oracle::ScheduleAudit audit = oracle::audit_schedule(inst, r.schedule);
  ASSERT_TRUE(audit.valid && audit.complete);
  EXPECT_NEAR(oracle::min_power(audit, kAlpha), r.power, 1e-9);
}

// ----------------------------------------------------------- error paths --

TEST(Bcd, RejectsMultiIntervalJobs) {
  Instance inst;
  inst.processors = 1;
  inst.jobs.push_back(Job{TimeSet::points({0, 5})});
  const BcdGapResult g = solve_bcd_gap(inst);
  EXPECT_FALSE(g.error.empty());
  const BcdPowerResult p = solve_bcd_power(inst, kAlpha);
  EXPECT_FALSE(p.error.empty());
}

TEST(Bcd, RejectsAbsurdAlpha) {
  const Instance inst = Instance::one_interval({{0, 1}});
  EXPECT_FALSE(solve_bcd_power(inst, 1e18).error.empty());
}

TEST(Bcd, StateBudgetValveRejectsInsteadOfAnswering) {
  const Instance inst =
      Instance::one_interval({{0, 3}, {1, 4}, {2, 5}, {3, 6}});
  bcd::BcdOptions opts;
  opts.max_states = 1;
  const BcdGapResult r = solve_bcd_gap(inst, opts);
  EXPECT_FALSE(r.error.empty());
  EXPECT_FALSE(r.feasible);
}

TEST(Bcd, EntryBudgetValveRejectsInsteadOfAnswering) {
  const Instance inst =
      Instance::one_interval({{0, 30}, {5, 35}, {10, 40}, {15, 45}});
  bcd::BcdOptions opts;
  opts.max_entries = 4;
  const BcdGapResult r = solve_bcd_gap(inst, opts);
  EXPECT_FALSE(r.error.empty());
  EXPECT_FALSE(r.feasible);
}

// ------------------------------------------------- brute-force agreement --

class BcdVsBruteForce : public ::testing::TestWithParam<int> {};

TEST_P(BcdVsBruteForce, GapAgrees) {
  const std::uint64_t seed =
      testing::seed_for(static_cast<std::uint64_t>(GetParam()) * 29 + 11);
  GAPSCHED_TRACE_SEED(seed);
  Prng rng(seed);
  // Mix of tight and loose draws; ~half are infeasible, exercising the
  // empty-frontier verdict.
  const Instance inst = gen_uniform_one_interval(rng, 7, 12, 5, 1);
  const ExactGapResult bf = brute_force_min_transitions(inst);
  const BcdGapResult r = solve_bcd_gap(inst);
  ASSERT_TRUE(r.error.empty()) << r.error;
  ASSERT_EQ(r.feasible, bf.feasible);
  if (bf.feasible) {
    EXPECT_EQ(r.transitions, bf.transitions);
    EXPECT_EQ(r.schedule.validate(inst), "");
  }
}

TEST_P(BcdVsBruteForce, PowerAgrees) {
  const std::uint64_t seed =
      testing::seed_for(static_cast<std::uint64_t>(GetParam()) * 31 + 17);
  GAPSCHED_TRACE_SEED(seed);
  Prng rng(seed);
  const Instance inst = gen_uniform_one_interval(rng, 6, 11, 5, 1);
  // Sweep alpha through the integer-boundary cases (0, fractional, whole).
  const double alpha = (GetParam() % 3 == 0) ? 0.0
                       : (GetParam() % 3 == 1) ? kAlpha
                                               : 3.0;
  const ExactPowerResult bf = brute_force_min_power(inst, alpha);
  const BcdPowerResult r = solve_bcd_power(inst, alpha);
  ASSERT_TRUE(r.error.empty()) << r.error;
  ASSERT_EQ(r.feasible, bf.feasible);
  if (bf.feasible) {
    EXPECT_NEAR(r.power, bf.power, 1e-9 * (1.0 + std::abs(bf.power)));
    EXPECT_EQ(r.schedule.validate(inst), "");
    const oracle::ScheduleAudit audit =
        oracle::audit_schedule(inst, r.schedule);
    ASSERT_TRUE(audit.valid && audit.complete);
    // The claimed optimum must be exactly the realized schedule's power.
    EXPECT_NEAR(oracle::min_power(audit, alpha), r.power,
                1e-9 * (1.0 + std::abs(r.power)));
  }
}

INSTANTIATE_TEST_SUITE_P(Random, BcdVsBruteForce, ::testing::Range(0, 40));

// ---------------------------------------------------------- alias parity --

TEST(Bcd, BaptisteAliasForwardsToBcd) {
  const engine::Solver* alias =
      engine::SolverRegistry::instance().find("baptiste");
  ASSERT_NE(alias, nullptr);
  for (int i = 0; i < 10; ++i) {
    const std::uint64_t seed =
        testing::seed_for(static_cast<std::uint64_t>(i) * 41 + 3);
    GAPSCHED_TRACE_SEED(seed);
    Prng rng(seed);
    const Instance inst = gen_uniform_one_interval(rng, 8, 14, 5, 1);
    const BcdGapResult r = solve_bcd_gap(inst);
    // Prep pipeline off: the adapter sees the instance exactly as given.
    engine::SolveRequest req{inst, engine::Objective::kGaps, {}};
    req.params.decompose = false;
    const engine::SolveResult b = alias->solve(req);
    ASSERT_TRUE(b.ok) << b.error;
    ASSERT_EQ(b.feasible, r.feasible);
    EXPECT_EQ(b.stats.states, r.states);
    EXPECT_EQ(b.stats.nodes, r.entries);
    if (r.feasible) {
      EXPECT_EQ(b.transitions, r.transitions);
      EXPECT_EQ(b.schedule, r.schedule);
    }
  }
}

// The alias end to end, prep pipeline on, against the subset-DP ground
// truth.
class BaptisteVsBruteForce : public ::testing::TestWithParam<int> {};

TEST_P(BaptisteVsBruteForce, Agrees) {
  const std::uint64_t seed =
      testing::seed_for(static_cast<std::uint64_t>(GetParam()) * 13 + 5);
  GAPSCHED_TRACE_SEED(seed);
  Prng rng(seed);
  const Instance inst = gen_uniform_one_interval(rng, 6, 10, 4, 1);
  const ExactGapResult bf = brute_force_min_transitions(inst);
  const engine::SolveResult r = engine::SolverRegistry::instance()
                                    .find("baptiste")
                                    ->solve({inst, engine::Objective::kGaps, {}});
  ASSERT_TRUE(r.ok) << r.error;
  ASSERT_EQ(r.feasible, bf.feasible);
  if (bf.feasible) {
    EXPECT_EQ(r.transitions, bf.transitions);
    EXPECT_EQ(r.schedule.validate(inst), "");
  }
}

INSTANTIATE_TEST_SUITE_P(Random, BaptisteVsBruteForce, ::testing::Range(0, 30));

// Baptiste's problem [Bap06] through the `baptiste` family, prep pipeline
// on: for p = 1 the transitions are the spans (maximal busy stretches) and
// the interior gaps are spans - 1.
engine::SolveResult solve_via_baptiste_alias(const Instance& inst) {
  return engine::SolverRegistry::instance().find("baptiste")->solve(
      {inst, engine::Objective::kGaps, {}});
}

TEST(Baptiste, SingleSpanWhenPackable) {
  const Instance inst = Instance::one_interval({{0, 5}, {0, 5}, {0, 5}});
  const engine::SolveResult r = solve_via_baptiste_alias(inst);
  ASSERT_TRUE(r.ok) << r.error;
  ASSERT_TRUE(r.feasible);
  EXPECT_EQ(r.transitions, 1);
  EXPECT_EQ(r.schedule.validate(inst), "");
}

TEST(Baptiste, ForcedGaps) {
  const Instance inst = Instance::one_interval({{0, 0}, {10, 10}, {20, 20}});
  const engine::SolveResult r = solve_via_baptiste_alias(inst);
  ASSERT_TRUE(r.ok) << r.error;
  ASSERT_TRUE(r.feasible);
  EXPECT_EQ(r.transitions, 3);      // spans
  EXPECT_EQ(r.transitions - 1, 2);  // interior gaps
  EXPECT_EQ(r.schedule.validate(inst), "");
}

TEST(Baptiste, IgnoresProcessorCount) {
  // The DP behind the alias solves Baptiste's single-processor problem and
  // treats p as 1; the registry entry itself refuses p > 1 up front.
  const Instance inst =
      Instance::one_interval({{0, 1}, {0, 1}}, /*processors=*/4);
  const BcdGapResult r = solve_bcd_gap(inst);
  ASSERT_TRUE(r.feasible);
  EXPECT_EQ(r.transitions, 1);  // both jobs in one span
  EXPECT_FALSE(solve_via_baptiste_alias(inst).ok);
}

TEST(Baptiste, Infeasible) {
  const Instance inst = Instance::one_interval({{0, 0}, {0, 0}});
  const engine::SolveResult r = solve_via_baptiste_alias(inst);
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_FALSE(r.feasible);
}

// The classic tradeoff: wait for tight jobs and fill between them.
TEST(Baptiste, InterleavesLooseJobsBetweenTightOnes) {
  // Tight jobs at 10, 12, 14; loose jobs can fill 11 and 13: one span.
  const Instance inst = Instance::one_interval(
      {{10, 10}, {12, 12}, {14, 14}, {0, 20}, {0, 20}});
  const engine::SolveResult r = solve_via_baptiste_alias(inst);
  ASSERT_TRUE(r.ok) << r.error;
  ASSERT_TRUE(r.feasible);
  EXPECT_EQ(r.transitions, 1);
  EXPECT_EQ(r.schedule.validate(inst), "");
}

// --------------------------------------------------------- large-n smoke --

TEST(Bcd, SolvesDenseChainAtTwoThousandJobs) {
  // Window [j, j + 3] for j = 0..1999: slot j for job j packs everything
  // into one block, so the optimum is a single transition.
  std::vector<std::pair<Time, Time>> windows;
  for (Time j = 0; j < 2000; ++j) windows.push_back({j, j + 3});
  const Instance inst = Instance::one_interval(windows);
  const BcdGapResult r = solve_bcd_gap(inst);
  ASSERT_TRUE(r.error.empty()) << r.error;
  ASSERT_TRUE(r.feasible);
  EXPECT_EQ(r.transitions, 1);
  EXPECT_EQ(r.schedule.validate(inst), "");
  EXPECT_GE(r.states, 2000u);  // genuinely visited the whole prefix chain
}

TEST(Bcd, SolvesClusteredTwoThousandJobsWithClosedFormPower) {
  // 50 clusters of 40 tight jobs, 100 apart: each cluster is one block,
  // every interior gap (60 slots) far exceeds alpha. Gap optimum = 50
  // blocks; power optimum = n + alpha + 49 * alpha.
  std::vector<std::pair<Time, Time>> windows;
  for (Time c = 0; c < 50; ++c) {
    for (Time j = 0; j < 40; ++j) {
      windows.push_back({c * 100 + j, c * 100 + j});
    }
  }
  const Instance inst = Instance::one_interval(windows);
  const BcdGapResult g = solve_bcd_gap(inst);
  ASSERT_TRUE(g.error.empty()) << g.error;
  ASSERT_TRUE(g.feasible);
  EXPECT_EQ(g.transitions, 50);
  const BcdPowerResult p = solve_bcd_power(inst, kAlpha);
  ASSERT_TRUE(p.error.empty()) << p.error;
  ASSERT_TRUE(p.feasible);
  EXPECT_NEAR(p.power, 2000.0 + kAlpha + 49.0 * kAlpha, 1e-6);
}

}  // namespace
}  // namespace gapsched
