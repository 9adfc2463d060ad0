// Empirical validation of every Section 2/4/5 reduction's value
// correspondence, using exact solvers on both sides (experiments T4/T5/F6
// in miniature).

#include <gtest/gtest.h>

#include "gapsched/dp/gap_dp.hpp"
#include "gapsched/exact/brute_force.hpp"
#include "gapsched/exact/power_brute_force.hpp"
#include "gapsched/gen/generators.hpp"
#include "gapsched/reductions/arithmetic_embedding.hpp"
#include "gapsched/reductions/multi_to_three_unit.hpp"
#include "gapsched/reductions/multi_to_two_interval.hpp"
#include "gapsched/reductions/setcover_to_disjoint_unit.hpp"
#include "gapsched/reductions/setcover_to_powermin.hpp"
#include "gapsched/reductions/two_unit_disjoint.hpp"
#include "gapsched/setcover/setcover.hpp"
#include "../support/test_seed.hpp"

namespace gapsched {
namespace {

// ---------- Theorem 4/5/6: set cover -> power min / gap scheduling ----------

TEST(SetCoverToPowerMin, StructureIsSane) {
  Prng rng(11);
  SetCoverInstance sc = gen_random_set_cover(rng, 6, 4, 3);
  SetCoverReduction red = reduce_setcover_to_powermin(sc);
  EXPECT_EQ(red.instance.n(), sc.universe + 1);
  EXPECT_EQ(red.instance.validate(), "");
  EXPECT_DOUBLE_EQ(red.alpha, 6.0);
  // Intervals are far apart.
  for (std::size_t i = 1; i < red.set_intervals.size(); ++i) {
    EXPECT_GT(red.set_intervals[i].lo - red.set_intervals[i - 1].hi, 6 * 6 * 6);
  }
}

TEST(SetCoverToPowerMin, Theorem5AlphaOverride) {
  Prng rng(12);
  SetCoverInstance sc = gen_random_set_cover(rng, 6, 4, 3);
  SetCoverReduction red = reduce_setcover_to_powermin(
      sc, static_cast<double>(sc.max_set_size()));
  EXPECT_DOUBLE_EQ(red.alpha, static_cast<double>(sc.max_set_size()));
}

class SetCoverGapEquivalence : public ::testing::TestWithParam<int> {};

TEST_P(SetCoverGapEquivalence, CoverEqualsTransitionsMinusOne) {
  const std::uint64_t prng_seed = testing::seed_for(static_cast<std::uint64_t>(GetParam()) * 61 + 19);
  GAPSCHED_TRACE_SEED(prng_seed);
  Prng rng(prng_seed);
  SetCoverInstance sc = gen_random_set_cover(rng, 5 + rng.index(3), 4, 3);
  const SetCoverResult cover = exact_set_cover(sc);
  ASSERT_TRUE(cover.coverable);

  SetCoverReduction red = reduce_setcover_to_powermin(sc);
  const ExactGapResult sched = brute_force_min_transitions(red.instance);
  ASSERT_TRUE(sched.feasible);
  // Theorem 6 value map.
  EXPECT_EQ(sched.transitions,
            SetCoverReduction::cover_to_transitions(cover.chosen.size()));
  // The cover read off the optimal schedule is a valid optimal cover.
  const auto extracted = red.cover_from_schedule(sched.schedule);
  EXPECT_TRUE(is_valid_cover(sc, extracted));
  EXPECT_EQ(extracted.size(), cover.chosen.size());
}

INSTANTIATE_TEST_SUITE_P(Random, SetCoverGapEquivalence,
                         ::testing::Range(0, 15));

class SetCoverPowerEquivalence : public ::testing::TestWithParam<int> {};

TEST_P(SetCoverPowerEquivalence, CoverDeterminesPower) {
  const std::uint64_t prng_seed = testing::seed_for(static_cast<std::uint64_t>(GetParam()) * 67 + 23);
  GAPSCHED_TRACE_SEED(prng_seed);
  Prng rng(prng_seed);
  SetCoverInstance sc = gen_random_set_cover(rng, 5, 4, 3);
  const SetCoverResult cover = exact_set_cover(sc);
  ASSERT_TRUE(cover.coverable);
  SetCoverReduction red = reduce_setcover_to_powermin(sc);
  const ExactPowerResult pw = brute_force_min_power(red.instance, red.alpha);
  ASSERT_TRUE(pw.feasible);
  EXPECT_NEAR(pw.power, red.cover_to_power(cover.chosen.size()), 1e-6);
}

INSTANTIATE_TEST_SUITE_P(Random, SetCoverPowerEquivalence,
                         ::testing::Range(0, 10));

// ---------- Theorem 7: multi-interval -> 2-interval ----------

class TwoIntervalEquivalence : public ::testing::TestWithParam<int> {};

TEST_P(TwoIntervalEquivalence, OptimaDifferByExtraBlock) {
  const std::uint64_t prng_seed = testing::seed_for(static_cast<std::uint64_t>(GetParam()) * 71 + 31);
  GAPSCHED_TRACE_SEED(prng_seed);
  Prng rng(prng_seed);
  // Small multi-interval instances with >= 3 intervals on some jobs. A
  // job with k >= 3 intervals becomes 2k jobs in the reduction, so the
  // first job draws up to 4 intervals and the others up to 3: the reduced
  // instance keeps at most 8 + 6 + 6 = 20 jobs, the brute force's limit.
  Instance inst;
  inst.processors = 1;
  const std::size_t n = 3;
  for (std::size_t j = 0; j < n; ++j) {
    std::vector<Interval> ivs;
    const std::size_t k = 1 + rng.index(j == 0 ? 4 : 3);
    for (std::size_t i = 0; i < k; ++i) {
      const Time lo = rng.uniform(0, 14);
      ivs.push_back({lo, lo + rng.uniform(0, 1)});
    }
    inst.jobs.push_back(Job{TimeSet(std::move(ivs))});
  }
  TwoIntervalReduction red = reduce_multi_to_two_interval(inst);
  EXPECT_LE(red.instance.max_intervals_per_job(), 2u);

  ASSERT_LE(red.instance.n(), 20u);
  const ExactGapResult orig = brute_force_min_transitions(inst);
  const ExactGapResult redu = brute_force_min_transitions(red.instance);
  ASSERT_EQ(orig.feasible, redu.feasible);
  if (orig.feasible) {
    EXPECT_EQ(redu.transitions, red.original_to_reduced(orig.transitions))
        << "extra block " << red.has_extra_block;
  }
}

INSTANTIATE_TEST_SUITE_P(Random, TwoIntervalEquivalence,
                         ::testing::Range(0, 20));

// ---------- Theorem 8: multi-interval -> 3-unit ----------

class ThreeUnitEquivalence : public ::testing::TestWithParam<int> {};

TEST_P(ThreeUnitEquivalence, OptimaDifferByExtraBlock) {
  const std::uint64_t prng_seed = testing::seed_for(static_cast<std::uint64_t>(GetParam()) * 73 + 37);
  GAPSCHED_TRACE_SEED(prng_seed);
  Prng rng(prng_seed);
  // A job with k >= 4 unit times becomes 2k jobs in the reduction, so the
  // jobs draw up to 5, 4 and 3 times: the reduced instance keeps at most
  // 10 + 8 + 1 = 19 jobs, within the brute force's limit of 20.
  Instance inst;
  inst.processors = 1;
  for (std::size_t j = 0; j < 3; ++j) {
    std::vector<Time> pts;
    const std::size_t k = 1 + rng.index(5 - j);
    for (std::size_t i = 0; i < k; ++i) pts.push_back(rng.uniform(0, 12));
    inst.jobs.push_back(Job{TimeSet::points(pts)});
  }
  ThreeUnitReduction red = reduce_multi_to_three_unit(inst);
  for (const Job& j : red.instance.jobs) {
    // A "3-unit" job semantically: at most three allowed times (adjacent
    // unit times may be stored as one merged interval).
    EXPECT_LE(j.allowed.size(), 3);
  }
  ASSERT_LE(red.instance.n(), 20u);
  const ExactGapResult orig = brute_force_min_transitions(inst);
  const ExactGapResult redu = brute_force_min_transitions(red.instance);
  ASSERT_EQ(orig.feasible, redu.feasible);
  if (orig.feasible) {
    EXPECT_EQ(redu.transitions, red.original_to_reduced(orig.transitions));
  }
}

INSTANTIATE_TEST_SUITE_P(Random, ThreeUnitEquivalence,
                         ::testing::Range(0, 20));

// ---------- Theorem 9: two-unit <-> disjoint-unit ----------

class TwoUnitDisjointEquivalence : public ::testing::TestWithParam<int> {};

TEST_P(TwoUnitDisjointEquivalence, ForwardWithinOne) {
  const std::uint64_t prng_seed = testing::seed_for(static_cast<std::uint64_t>(GetParam()) * 79 + 41);
  GAPSCHED_TRACE_SEED(prng_seed);
  Prng rng(prng_seed);
  // Random feasible 2-unit instance.
  Instance inst = gen_unit_points(rng, 6, 14, 2);
  TwoUnitDisjointReduction red = reduce_two_unit_to_disjoint(inst);
  ASSERT_TRUE(red.feasible_input);

  const ExactGapResult a =
      brute_force_min_transitions(red.compressed_source.instance);
  ASSERT_TRUE(a.feasible);
  if (red.instance.n() == 0) return;  // complement is empty: nothing to check
  const ExactGapResult b = brute_force_min_transitions(red.instance);
  ASSERT_TRUE(b.feasible);
  EXPECT_LE(std::llabs(a.transitions - b.transitions), 1)
      << "two-unit opt " << a.transitions << " vs disjoint opt "
      << b.transitions;
}

TEST_P(TwoUnitDisjointEquivalence, BackwardWithinOne) {
  const std::uint64_t prng_seed = testing::seed_for(static_cast<std::uint64_t>(GetParam()) * 83 + 43);
  GAPSCHED_TRACE_SEED(prng_seed);
  Prng rng(prng_seed);
  // Random disjoint-unit instance: partition a ground set of times.
  Instance inst;
  inst.processors = 1;
  Time t = 0;
  for (int j = 0; j < 4; ++j) {
    std::vector<Time> pts;
    const std::size_t k = 1 + rng.index(3);
    for (std::size_t i = 0; i < k; ++i) {
      t += 1 + rng.uniform(0, 3);
      pts.push_back(t);
    }
    inst.jobs.push_back(Job{TimeSet::points(pts)});
  }
  TwoUnitDisjointReduction red = reduce_disjoint_to_two_unit(inst);
  ASSERT_TRUE(red.feasible_input);
  for (const Job& j : red.instance.jobs) EXPECT_LE(j.allowed.size(), 2);

  const ExactGapResult a =
      brute_force_min_transitions(red.compressed_source.instance);
  ASSERT_TRUE(a.feasible);
  if (red.instance.n() == 0) return;
  const ExactGapResult b = brute_force_min_transitions(red.instance);
  ASSERT_TRUE(b.feasible);
  EXPECT_LE(std::llabs(a.transitions - b.transitions), 1);
}

INSTANTIATE_TEST_SUITE_P(Random, TwoUnitDisjointEquivalence,
                         ::testing::Range(0, 20));

// ---------- Theorem 10: B-set cover -> disjoint-unit ----------

class DisjointUnitSetCover : public ::testing::TestWithParam<int> {};

TEST_P(DisjointUnitSetCover, TransitionsEqualCover) {
  const std::uint64_t prng_seed = testing::seed_for(static_cast<std::uint64_t>(GetParam()) * 89 + 47);
  GAPSCHED_TRACE_SEED(prng_seed);
  Prng rng(prng_seed);
  SetCoverInstance sc = gen_random_set_cover(rng, 5, 4, 3);
  const SetCoverResult cover = exact_set_cover(sc);
  ASSERT_TRUE(cover.coverable);

  DisjointUnitReduction red = reduce_setcover_to_disjoint_unit(sc);
  EXPECT_TRUE(red.instance.is_unit_points());
  const ExactGapResult sched = brute_force_min_transitions(red.instance);
  ASSERT_TRUE(sched.feasible);
  EXPECT_EQ(sched.transitions,
            DisjointUnitReduction::cover_to_transitions(cover.chosen.size()));
}

INSTANTIATE_TEST_SUITE_P(Random, DisjointUnitSetCover,
                         ::testing::Range(0, 12));

// ---------- Section 2: multiprocessor <-> arithmetic intervals ----------

class ArithmeticEquivalence : public ::testing::TestWithParam<int> {};

TEST_P(ArithmeticEquivalence, EmbeddedOptimumMatchesMultiprocessor) {
  const std::uint64_t prng_seed = testing::seed_for(static_cast<std::uint64_t>(GetParam()) * 97 + 53);
  GAPSCHED_TRACE_SEED(prng_seed);
  Prng rng(prng_seed);
  const int p = 2 + static_cast<int>(rng.index(2));
  Instance inst = gen_uniform_one_interval(rng, 5, 7, 3, p);

  ArithmeticEmbedding emb = embed_multiprocessor(inst);
  EXPECT_EQ(emb.embedded.processors, 1);
  for (const Job& j : emb.embedded.jobs) {
    EXPECT_EQ(j.allowed.interval_count(), static_cast<std::size_t>(p));
  }

  const ExactGapResult multi = brute_force_min_transitions(inst);
  const ExactGapResult single = brute_force_min_transitions(emb.embedded);
  ASSERT_EQ(multi.feasible, single.feasible);
  if (!multi.feasible) return;
  EXPECT_EQ(multi.transitions, single.transitions);
  // Unembedding yields a valid multiprocessor schedule of the same cost.
  Schedule back = emb.unembed_schedule(single.schedule);
  EXPECT_EQ(back.validate(inst), "");
  EXPECT_EQ(back.per_processor_transitions(inst), single.transitions);
}

INSTANTIATE_TEST_SUITE_P(Random, ArithmeticEquivalence,
                         ::testing::Range(0, 20));

// The multiproc DP agrees with the embedding too (ties Theorem 1 to the
// Section 2 observation).
TEST(ArithmeticEquivalence, DpMatchesEmbeddedBruteForce) {
  Prng rng(2024);
  for (int it = 0; it < 8; ++it) {
    Instance inst = gen_feasible_one_interval(rng, 6, 8, 2, 2);
    ArithmeticEmbedding emb = embed_multiprocessor(inst);
    const GapDpResult dp = solve_gap_dp(inst);
    const ExactGapResult single = brute_force_min_transitions(emb.embedded);
    ASSERT_TRUE(dp.feasible);
    ASSERT_TRUE(single.feasible);
    EXPECT_EQ(dp.transitions, single.transitions) << it;
  }
}

}  // namespace
}  // namespace gapsched
