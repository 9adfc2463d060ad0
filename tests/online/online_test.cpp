#include "gapsched/online/online_edf.hpp"

#include <gtest/gtest.h>

#include "gapsched/bcd/bcd.hpp"
#include "gapsched/gen/generators.hpp"
#include "gapsched/matching/feasibility.hpp"
#include "../support/test_seed.hpp"

namespace gapsched {
namespace {

TEST(OnlineEdf, EmptyInstance) {
  Instance inst;
  OnlineResult r = online_edf(inst);
  EXPECT_TRUE(r.feasible);
  EXPECT_EQ(r.transitions, 0);
}

TEST(OnlineEdf, RunsImmediately) {
  Instance inst = Instance::one_interval({{0, 10}, {0, 10}});
  OnlineResult r = online_edf(inst);
  ASSERT_TRUE(r.feasible);
  EXPECT_EQ(r.schedule.at(0)->time + r.schedule.at(1)->time, 1);  // times 0,1
  EXPECT_EQ(r.transitions, 1);
}

TEST(OnlineEdf, EarliestDeadlinePriority) {
  // Tight job released later must preempt queue order.
  Instance inst = Instance::one_interval({{0, 10}, {1, 1}});
  OnlineResult r = online_edf(inst);
  ASSERT_TRUE(r.feasible);
  EXPECT_EQ(r.schedule.at(1)->time, 1);
}

TEST(OnlineEdf, DetectsInfeasible) {
  Instance inst = Instance::one_interval({{0, 0}, {0, 0}});
  EXPECT_FALSE(online_edf(inst).feasible);
}

TEST(OnlineEdf, SleepsThroughDeadTime) {
  Instance inst = Instance::one_interval({{0, 0}, {100, 100}});
  OnlineResult r = online_edf(inst);
  ASSERT_TRUE(r.feasible);
  EXPECT_EQ(r.transitions, 2);
}

TEST(OnlineEdf, ScheduleIsValid) {
  const std::uint64_t seed = testing::seed_for(99);
  GAPSCHED_TRACE_SEED(seed);
  Prng rng(seed);
  for (int it = 0; it < 20; ++it) {
    Instance inst = gen_uniform_one_interval(rng, 8, 12, 4, 1);
    OnlineResult r = online_edf(inst);
    EXPECT_EQ(r.feasible, is_feasible(inst)) << it;
    if (r.feasible) {
      EXPECT_EQ(r.schedule.validate(inst), "") << it;
    }
  }
}

// The paper's Omega(n) lower bound family: offline packs everything into
// O(1) spans; the obligatory online strategy burns Theta(n) spans.
class AdversarialFamily : public ::testing::TestWithParam<int> {};

TEST_P(AdversarialFamily, OnlinePaysLinearly) {
  const std::size_t n = static_cast<std::size_t>(GetParam());
  Instance inst = gen_online_adversarial(n);
  OnlineResult online = online_edf(inst);
  ASSERT_TRUE(online.feasible);
  BcdGapResult offline = solve_bcd_gap(inst);
  ASSERT_TRUE(offline.feasible);
  // Offline: loose jobs hide inside/beside the tight comb: O(1) extra spans.
  EXPECT_LE(offline.transitions, static_cast<std::int64_t>(n) / 2 + 2);
  // Online: the n loose jobs run immediately as one span; every tight job
  // then adds its own span: Theta(n).
  EXPECT_GE(online.transitions, static_cast<std::int64_t>(n));
  EXPECT_GT(online.transitions, 2 * offline.transitions);
}

INSTANTIATE_TEST_SUITE_P(Sizes, AdversarialFamily,
                         ::testing::Values(4, 6, 8, 10));

}  // namespace
}  // namespace gapsched
