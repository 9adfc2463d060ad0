#include "gapsched/core/timeset.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <utility>
#include <vector>

#include "gapsched/core/instance.hpp"

namespace gapsched {
namespace {

// One interval is held inline: a Job is no larger than a vector's header.
static_assert(sizeof(Job) == 24);

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
  const std::vector<Interval> moved(a.intervals().begin(),
                                   a.intervals().end());
  EXPECT_EQ(moved, (std::vector<Interval>{{0, 1}, {8, 8}, {16, 19}}));
  EXPECT_EQ(a, TimeSet(moved));
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

TEST(TimeSet, ExtremeTimesMergeWithoutOverflow) {
  constexpr Time kMax = std::numeric_limits<Time>::max();
  constexpr Time kMin = std::numeric_limits<Time>::min();
  const TimeSet top({{0, kMax}, {5, 6}});
  ASSERT_EQ(top.interval_count(), 1u);
  EXPECT_EQ(top.min(), 0);
  EXPECT_EQ(top.max(), kMax);
  const TimeSet bottom({{kMin + 1, 0}, {kMin, kMin}, {-5, -4}});
  ASSERT_EQ(bottom.interval_count(), 1u);
  EXPECT_EQ(bottom.min(), kMin);
  EXPECT_EQ(bottom.max(), 0);
  // Adjacent at both ends of the range, and apart by one missing time.
  EXPECT_EQ(TimeSet({{kMax, kMax}, {kMax - 1, kMax - 1}}).interval_count(), 1u);
  EXPECT_EQ(TimeSet({{kMax, kMax}, {kMax - 2, kMax - 2}}).interval_count(), 2u);
  EXPECT_EQ(TimeSet({{kMin, kMin}, {kMin + 1, kMin + 1}}).interval_count(), 1u);
  EXPECT_EQ(TimeSet({{kMin, kMin}, {kMin + 2, kMin + 2}}).interval_count(), 2u);
  EXPECT_EQ(TimeSet({{kMin, -1}, {0, kMax}}).interval_count(), 1u);
  // Carving up to the top of the range leaves nothing past it.
  EXPECT_EQ(TimeSet({{kMax - 3, kMax}}).subtract(TimeSet({{kMax - 1, kMax}})),
            TimeSet({{kMax - 3, kMax - 2}}));
  EXPECT_TRUE(TimeSet({{kMax - 3, kMax}}).subtract(top).empty());
}

// ---- value semantics of the inline (0 or 1 interval) and heap forms.

std::vector<TimeSet> sets_of_each_form() {
  return {TimeSet{}, TimeSet::window(3, 8), TimeSet({{0, 1}, {4, 4}, {9, 12}})};
}

TEST(TimeSet, CopiesAreEqualAndIndependent) {
  for (const TimeSet& original : sets_of_each_form()) {
    const std::size_t k = original.interval_count();
    TimeSet copy(original);
    EXPECT_EQ(copy, original) << k;
    TimeSet assigned = TimeSet::window(100, 200);
    assigned = original;
    EXPECT_EQ(assigned, original) << k;
    TimeSet heap_assigned({{50, 51}, {60, 61}});
    heap_assigned = original;
    EXPECT_EQ(heap_assigned, original) << k;
    if (k > 0) {
      EXPECT_NE(copy.intervals().data(), original.intervals().data()) << k;
    }
    // Shifting a copy leaves the original where it was.
    const TimeSet before = original;
    copy.shift(7);
    EXPECT_EQ(original, before) << k;
    if (k > 0) {
      EXPECT_NE(copy, original) << k;
      EXPECT_EQ(copy.min(), original.min() + 7) << k;
    }
  }
}

TEST(TimeSet, MovesTransferAndLeaveAnEmptyUsableSet) {
  for (const TimeSet& original : sets_of_each_form()) {
    const std::size_t k = original.interval_count();
    TimeSet source = original;
    TimeSet moved(std::move(source));
    EXPECT_EQ(moved, original) << k;
    EXPECT_TRUE(source.empty()) << k;  // NOLINT(bugprone-use-after-move)
    EXPECT_EQ(source.interval_count(), 0u) << k;
    EXPECT_TRUE(source.intervals().empty()) << k;
    // The moved-from set is still a set: reassign and use it.
    source = TimeSet({{1, 2}, {6, 7}});
    EXPECT_EQ(source.size(), 4) << k;
    source = TimeSet::window(5, 5);
    EXPECT_TRUE(source.contains(5)) << k;

    for (TimeSet target : sets_of_each_form()) {
      TimeSet from = original;
      target = std::move(from);
      EXPECT_EQ(target, original) << k;
      EXPECT_TRUE(from.empty()) << k;  // NOLINT(bugprone-use-after-move)
      from = original;
      EXPECT_EQ(from, original) << k;
    }
  }
}

TEST(TimeSet, SelfAssignmentKeepsTheSet) {
  for (const TimeSet& original : sets_of_each_form()) {
    TimeSet s = original;
    TimeSet& alias = s;
    s = alias;
    EXPECT_EQ(s, original);
    s = std::move(alias);
    EXPECT_EQ(s, original);
  }
}

TEST(TimeSet, EqualSetsBuiltDifferentlyCompareEqual) {
  EXPECT_EQ(TimeSet::window(2, 9), TimeSet({{5, 9}, {2, 4}}));
  EXPECT_EQ(TimeSet::window(2, 9), TimeSet(Interval{2, 9}));
  EXPECT_EQ(TimeSet::window(2, 9),
            TimeSet({{2, 3}, {8, 9}}).unite(TimeSet::window(4, 7)));
  EXPECT_EQ(TimeSet::window(2, 9), TimeSet::window(-1, 6).shifted(3));
  EXPECT_EQ(TimeSet({{1, 2}, {5, 5}}), TimeSet::points({5, 2, 1}));
  EXPECT_EQ(TimeSet({{1, 2}, {5, 5}}),
            TimeSet::window(1, 5).subtract(TimeSet::window(3, 4)));
  EXPECT_EQ(TimeSet{}, TimeSet(Interval{4, 3}));
  EXPECT_EQ(TimeSet{}, TimeSet(std::vector<Interval>{}));
  EXPECT_EQ(TimeSet{}, TimeSet::window(1, 2).intersect(TimeSet::window(5, 6)));
  EXPECT_NE(TimeSet::window(2, 9), TimeSet{});
  EXPECT_NE(TimeSet::window(2, 9), TimeSet({{2, 4}, {6, 9}}));
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
