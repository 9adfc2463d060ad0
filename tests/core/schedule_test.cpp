#include "gapsched/core/schedule.hpp"

#include <gtest/gtest.h>

#include <optional>

#include "gapsched/gen/generators.hpp"
#include "gapsched/matching/feasibility.hpp"
#include "../support/test_seed.hpp"

namespace gapsched {
namespace {

Instance two_proc_instance() {
  return Instance::one_interval({{0, 3}, {0, 3}, {2, 5}}, /*processors=*/2);
}

TEST(Schedule, PlaceAndQuery) {
  Schedule s(3);
  EXPECT_EQ(s.scheduled_count(), 0u);
  s.place(0, 2, 0);
  s.place(2, 5);
  EXPECT_TRUE(s.is_scheduled(0));
  EXPECT_FALSE(s.is_scheduled(1));
  EXPECT_EQ(s.scheduled_count(), 2u);
  EXPECT_EQ(s.at(0)->time, 2);
  EXPECT_EQ(s.at(2)->processor, Placement::kUnassigned);
  s.unschedule(0);
  EXPECT_FALSE(s.is_scheduled(0));
}

TEST(Schedule, ValidateCatchesDisallowedTime) {
  Instance inst = two_proc_instance();
  Schedule s(3);
  s.place(0, 0);
  s.place(1, 1);
  s.place(2, 1);  // job 2 releases at 2
  EXPECT_NE(s.validate(inst), "");
}

TEST(Schedule, ValidateCatchesOvercapacity) {
  Instance inst = two_proc_instance();
  Schedule s(3);
  s.place(0, 2);
  s.place(1, 2);
  s.place(2, 2);  // three jobs, two processors
  EXPECT_NE(s.validate(inst), "");
}

TEST(Schedule, ValidateCatchesProcessorCollision) {
  Instance inst = two_proc_instance();
  Schedule s(3);
  s.place(0, 2, 1);
  s.place(1, 2, 1);
  s.place(2, 3, 0);
  EXPECT_NE(s.validate(inst), "");
}

TEST(Schedule, ValidateAcceptsGoodSchedule) {
  Instance inst = two_proc_instance();
  Schedule s(3);
  s.place(0, 0, 0);
  s.place(1, 1, 0);
  s.place(2, 2, 0);
  EXPECT_EQ(s.validate(inst), "");
}

TEST(Schedule, ValidatePartial) {
  Instance inst = two_proc_instance();
  Schedule s(3);
  s.place(0, 0);
  EXPECT_NE(s.validate(inst, /*require_complete=*/true), "");
  EXPECT_EQ(s.validate(inst, /*require_complete=*/false), "");
}

TEST(Schedule, StaircaseAssignmentIsValidAndMatchesProfile) {
  Instance inst = two_proc_instance();
  Schedule s(3);
  s.place(0, 2);
  s.place(1, 2);
  s.place(2, 3);
  s.assign_processors_staircase();
  EXPECT_EQ(s.validate(inst), "");
  // In staircase form, per-processor run starts equal profile transitions.
  EXPECT_EQ(s.per_processor_transitions(inst), s.profile().transitions());
}

// Property: staircase per-processor transitions == profile transitions on
// random feasible-by-construction multiprocessor instances.
class StaircaseProperty : public ::testing::TestWithParam<int> {};

TEST_P(StaircaseProperty, PerProcessorMatchesProfile) {
  const std::uint64_t prng_seed = testing::seed_for(static_cast<std::uint64_t>(GetParam()) + 77);
  GAPSCHED_TRACE_SEED(prng_seed);
  Prng rng(prng_seed);
  const int p = 1 + GetParam() % 3;
  const Instance inst = gen_feasible_one_interval(rng, 8, 12, 2, p);
  // The generator's anchors make every draw feasible.
  std::optional<Schedule> feasible = any_feasible_schedule(inst);
  ASSERT_TRUE(feasible.has_value());
  Schedule& s = *feasible;
  s.assign_processors_staircase();
  ASSERT_EQ(s.validate(inst), "");
  EXPECT_EQ(s.per_processor_transitions(inst), s.profile().transitions());
}

INSTANTIATE_TEST_SUITE_P(Random, StaircaseProperty, ::testing::Range(0, 30));

}  // namespace
}  // namespace gapsched
