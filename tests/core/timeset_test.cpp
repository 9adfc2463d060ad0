#include "gapsched/core/timeset.hpp"

#include <gtest/gtest.h>

namespace gapsched {
namespace {

TEST(TimeSet, NormalizesOverlappingAndAdjacentIntervals) {
  TimeSet s({{5, 9}, {1, 3}, {4, 6}, {15, 15}});
  // [1,3] and [4,6] are adjacent -> merge; [5,9] overlaps -> merge.
  ASSERT_EQ(s.interval_count(), 2u);
  EXPECT_EQ(s.intervals()[0], (Interval{1, 9}));
  EXPECT_EQ(s.intervals()[1], (Interval{15, 15}));
  EXPECT_EQ(s.size(), 10);
}

TEST(TimeSet, DropsEmptyIntervals) {
  TimeSet s({{3, 2}, {7, 7}});
  ASSERT_EQ(s.interval_count(), 1u);
  EXPECT_EQ(s.min(), 7);
  EXPECT_EQ(s.max(), 7);
}

TEST(TimeSet, WindowAndPoints) {
  EXPECT_EQ(TimeSet::window(2, 5).size(), 4);
  TimeSet pts = TimeSet::points({9, 3, 3, 5});
  EXPECT_EQ(pts.size(), 3);
  EXPECT_TRUE(pts.is_unit_points());
  EXPECT_FALSE(TimeSet::window(1, 2).is_unit_points());
}

TEST(TimeSet, Contains) {
  TimeSet s({{1, 3}, {7, 9}});
  for (Time t : {1, 2, 3, 7, 8, 9}) EXPECT_TRUE(s.contains(t)) << t;
  for (Time t : {0, 4, 5, 6, 10}) EXPECT_FALSE(s.contains(t)) << t;
}

TEST(TimeSet, Intersect) {
  TimeSet a({{0, 10}, {20, 30}});
  TimeSet b({{5, 25}});
  TimeSet c = a.intersect(b);
  ASSERT_EQ(c.interval_count(), 2u);
  EXPECT_EQ(c.intervals()[0], (Interval{5, 10}));
  EXPECT_EQ(c.intervals()[1], (Interval{20, 25}));
}

TEST(TimeSet, IntersectEmpty) {
  TimeSet a({{0, 3}});
  TimeSet b({{5, 8}});
  EXPECT_TRUE(a.intersect(b).empty());
}

TEST(TimeSet, Subtract) {
  TimeSet a({{0, 10}});
  TimeSet b({{3, 4}, {8, 12}});
  TimeSet c = a.subtract(b);
  ASSERT_EQ(c.interval_count(), 2u);
  EXPECT_EQ(c.intervals()[0], (Interval{0, 2}));
  EXPECT_EQ(c.intervals()[1], (Interval{5, 7}));
}

TEST(TimeSet, SubtractEverything) {
  TimeSet a({{2, 6}});
  EXPECT_TRUE(a.subtract(TimeSet({{0, 9}})).empty());
}

TEST(TimeSet, SubtractNothing) {
  TimeSet a({{2, 6}});
  EXPECT_EQ(a.subtract(TimeSet({{10, 20}})), a);
}

TEST(TimeSet, Unite) {
  TimeSet a({{0, 2}});
  TimeSet b({{3, 5}});
  EXPECT_EQ(a.unite(b), TimeSet::window(0, 5));
}

TEST(TimeSet, Shifted) {
  TimeSet a({{1, 2}, {5, 5}});
  TimeSet s = a.shifted(10);
  EXPECT_EQ(s.intervals()[0], (Interval{11, 12}));
  EXPECT_EQ(s.intervals()[1], (Interval{15, 15}));
}

TEST(TimeSet, ShiftAndRemapStartsRewriteInPlace) {
  TimeSet a({{1, 2}, {5, 5}, {9, 12}});
  const TimeSet copy = a.shifted(-1);
  a.shift(-1);
  EXPECT_EQ(a, copy);
  EXPECT_EQ(a, TimeSet({{0, 1}, {4, 4}, {8, 11}}));
  // A strictly increasing map that keeps the intervals apart: lengths stay,
  // only the starts move, and the result is still normalized.
  a.remap_starts([](Time lo) { return 2 * lo; });
  EXPECT_EQ(a.intervals(),
            (std::vector<Interval>{{0, 1}, {8, 8}, {16, 19}}));
  EXPECT_EQ(a, TimeSet(a.intervals()));
}

TEST(TimeSet, RestrictedTo) {
  TimeSet a({{0, 10}});
  EXPECT_EQ(a.restricted_to({4, 6}), TimeSet::window(4, 6));
  EXPECT_TRUE(a.restricted_to({12, 14}).empty());
  EXPECT_TRUE(a.restricted_to({6, 4}).empty());
}

TEST(TimeSet, ToVector) {
  TimeSet a({{1, 3}, {6, 6}});
  EXPECT_EQ(a.to_vector(), (std::vector<Time>{1, 2, 3, 6}));
}

// Property sweep: subtract/intersect/unite agree with pointwise semantics.
class TimeSetAlgebra : public ::testing::TestWithParam<int> {};

TEST_P(TimeSetAlgebra, MatchesPointwiseSemantics) {
  const int seed = GetParam();
  // Deterministic pseudo-random small sets over [0, 30).
  auto make = [](int s) {
    std::vector<Interval> ivs;
    unsigned x = static_cast<unsigned>(s) * 2654435761u + 1;
    const int k = 1 + static_cast<int>(x % 4u);
    for (int i = 0; i < k; ++i) {
      x = x * 1664525u + 1013904223u;
      const Time lo = static_cast<Time>(x % 30u);
      x = x * 1664525u + 1013904223u;
      const Time hi = lo + static_cast<Time>(x % 6u);
      ivs.push_back({lo, hi});
    }
    return TimeSet(std::move(ivs));
  };
  TimeSet a = make(seed);
  TimeSet b = make(seed + 1000);
  for (Time t = -2; t < 40; ++t) {
    const bool in_a = a.contains(t), in_b = b.contains(t);
    EXPECT_EQ(a.intersect(b).contains(t), in_a && in_b) << t;
    EXPECT_EQ(a.subtract(b).contains(t), in_a && !in_b) << t;
    EXPECT_EQ(a.unite(b).contains(t), in_a || in_b) << t;
  }
}

INSTANTIATE_TEST_SUITE_P(Random, TimeSetAlgebra, ::testing::Range(0, 25));

}  // namespace
}  // namespace gapsched
