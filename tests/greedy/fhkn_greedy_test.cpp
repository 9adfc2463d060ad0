#include "gapsched/greedy/fhkn_greedy.hpp"

#include <gtest/gtest.h>

#include "gapsched/bcd/bcd.hpp"
#include "gapsched/gen/generators.hpp"
#include "../support/test_seed.hpp"

namespace gapsched {
namespace {

TEST(FhknGreedy, EmptyInstance) {
  Instance inst;
  FhknResult r = fhkn_greedy(inst);
  EXPECT_TRUE(r.feasible);
  EXPECT_EQ(r.transitions, 0);
}

TEST(FhknGreedy, Infeasible) {
  Instance inst = Instance::one_interval({{1, 1}, {1, 1}});
  EXPECT_FALSE(fhkn_greedy(inst).feasible);
}

TEST(FhknGreedy, PacksSingleCluster) {
  Instance inst = Instance::one_interval({{0, 5}, {0, 5}, {0, 5}});
  FhknResult r = fhkn_greedy(inst);
  ASSERT_TRUE(r.feasible);
  EXPECT_EQ(r.schedule.validate(inst), "");
  EXPECT_EQ(r.transitions, 1);
}

TEST(FhknGreedy, KeepsForcedGaps) {
  Instance inst = Instance::one_interval({{0, 0}, {10, 10}});
  FhknResult r = fhkn_greedy(inst);
  ASSERT_TRUE(r.feasible);
  EXPECT_EQ(r.transitions, 2);
}

TEST(FhknGreedy, InterleavingInstance) {
  // Greedy should also manage to keep the loose jobs inside the tight comb.
  Instance inst = Instance::one_interval(
      {{10, 10}, {12, 12}, {14, 14}, {0, 20}, {0, 20}});
  FhknResult r = fhkn_greedy(inst);
  ASSERT_TRUE(r.feasible);
  EXPECT_EQ(r.schedule.validate(inst), "");
  EXPECT_LE(r.transitions, 3);  // 3-approx of the optimal single span
}

// Approximation-factor property (Table T2 in miniature): greedy within 3x of
// Baptiste's optimum on random one-interval instances, and always feasible.
class FhknRatio : public ::testing::TestWithParam<int> {};

TEST_P(FhknRatio, WithinFactorThree) {
  const std::uint64_t prng_seed = testing::seed_for(static_cast<std::uint64_t>(GetParam()) * 71 + 11);
  GAPSCHED_TRACE_SEED(prng_seed);
  Prng rng(prng_seed);
  Instance inst = (GetParam() % 2 == 0)
                      ? gen_uniform_one_interval(rng, 8, 14, 5, 1)
                      : gen_feasible_one_interval(rng, 8, 16, 3, 1);
  const BcdGapResult opt = solve_bcd_gap(inst);
  const FhknResult grd = fhkn_greedy(inst);
  ASSERT_EQ(grd.feasible, opt.feasible);
  if (!opt.feasible) return;
  ASSERT_EQ(grd.schedule.validate(inst), "");
  EXPECT_EQ(grd.schedule.profile().transitions(), grd.transitions);
  EXPECT_GE(grd.transitions, opt.transitions);  // optimality of the exact DP
  EXPECT_LE(grd.transitions, 3 * opt.transitions) << "3-approximation violated";
}

INSTANTIATE_TEST_SUITE_P(Random, FhknRatio, ::testing::Range(0, 40));

}  // namespace
}  // namespace gapsched
