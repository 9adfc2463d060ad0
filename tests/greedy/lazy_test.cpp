#include "gapsched/greedy/lazy.hpp"

#include <gtest/gtest.h>

#include "gapsched/bcd/bcd.hpp"
#include "gapsched/gen/generators.hpp"
#include "gapsched/matching/feasibility.hpp"
#include "gapsched/online/online_edf.hpp"
#include "../support/test_seed.hpp"

namespace gapsched {
namespace {

TEST(Lazy, EmptyInstance) {
  Instance inst;
  LazyResult r = lazy_schedule(inst);
  EXPECT_TRUE(r.feasible);
  EXPECT_EQ(r.transitions, 0);
}

TEST(Lazy, DefersToTheDeadline) {
  Instance inst = Instance::one_interval({{0, 9}});
  LazyResult r = lazy_schedule(inst);
  ASSERT_TRUE(r.feasible);
  EXPECT_EQ(r.schedule.at(0)->time, 9);
}

TEST(Lazy, BatchesAtPressurePoints) {
  // Loose jobs plus a tight comb: laziness pushes the loose jobs into the
  // comb era instead of running them at time 0 like online EDF does.
  Instance inst = Instance::one_interval(
      {{0, 14}, {0, 14}, {10, 10}, {12, 12}, {14, 14}});
  LazyResult lazy = lazy_schedule(inst);
  OnlineResult eager = online_edf(inst);
  ASSERT_TRUE(lazy.feasible);
  ASSERT_TRUE(eager.feasible);
  EXPECT_EQ(lazy.transitions, 1);  // everything inside [10, 14]
  EXPECT_GT(eager.transitions, lazy.transitions);
}

TEST(Lazy, Infeasible) {
  Instance inst = Instance::one_interval({{4, 4}, {4, 4}});
  EXPECT_FALSE(lazy_schedule(inst).feasible);
}

TEST(Lazy, PinnedJobsRunOnTime) {
  Instance inst = Instance::one_interval({{3, 3}, {7, 7}});
  LazyResult r = lazy_schedule(inst);
  ASSERT_TRUE(r.feasible);
  EXPECT_EQ(r.schedule.at(0)->time, 3);
  EXPECT_EQ(r.schedule.at(1)->time, 7);
}

// Properties: always feasible on feasible input, valid schedules, and
// sandwiched between OPT and online EDF is NOT guaranteed — but >= OPT is.
class LazyProperty : public ::testing::TestWithParam<int> {};

TEST_P(LazyProperty, FeasibleAndAboveOpt) {
  const std::uint64_t prng_seed = testing::seed_for(static_cast<std::uint64_t>(GetParam()) * 199 + 3);
  GAPSCHED_TRACE_SEED(prng_seed);
  Prng rng(prng_seed);
  Instance inst = gen_uniform_one_interval(rng, 9, 16, 5, 1);
  const bool feasible = is_feasible(inst);
  LazyResult r = lazy_schedule(inst);
  ASSERT_EQ(r.feasible, feasible);
  if (!feasible) return;
  EXPECT_EQ(r.schedule.validate(inst), "");
  EXPECT_EQ(r.schedule.profile().transitions(), r.transitions);
  const BcdGapResult opt = solve_bcd_gap(inst);
  EXPECT_GE(r.transitions, opt.transitions);
}

INSTANTIATE_TEST_SUITE_P(Random, LazyProperty, ::testing::Range(0, 30));

}  // namespace
}  // namespace gapsched
