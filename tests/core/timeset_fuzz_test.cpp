// Differential fuzzing of TimeSet against a std::set<Time> reference model:
// random operation chains must agree pointwise with naive set semantics.

#include <gtest/gtest.h>

#include <set>

#include "gapsched/core/timeset.hpp"
#include "gapsched/util/prng.hpp"
#include "../support/test_seed.hpp"

namespace gapsched {
namespace {

// Reference model.
std::set<Time> materialize(const TimeSet& ts) {
  std::set<Time> out;
  for (const Interval& iv : ts.intervals()) {
    for (Time t = iv.lo; t <= iv.hi; ++t) out.insert(t);
  }
  return out;
}

TimeSet random_set(Prng& rng, Time lo, Time hi) {
  std::vector<Interval> ivs;
  const std::size_t k = 1 + rng.index(5);
  for (std::size_t i = 0; i < k; ++i) {
    const Time a = rng.uniform(lo, hi);
    ivs.push_back({a, a + rng.uniform(0, 5)});
  }
  return TimeSet(std::move(ivs));
}

class TimeSetFuzz : public ::testing::TestWithParam<int> {};

TEST_P(TimeSetFuzz, OperationChainMatchesReference) {
  const std::uint64_t seed =
      testing::seed_for(static_cast<std::uint64_t>(GetParam()));
  GAPSCHED_TRACE_SEED(seed);
  Prng rng(seed);
  TimeSet current = random_set(rng, 0, 40);
  std::set<Time> model = materialize(current);

  for (int step = 0; step < 12; ++step) {
    const int op = static_cast<int>(rng.index(5));
    if (op == 0) {  // unite
      TimeSet other = random_set(rng, 0, 40);
      for (Time t : materialize(other)) model.insert(t);
      current = current.unite(other);
    } else if (op == 1) {  // subtract
      TimeSet other = random_set(rng, 0, 40);
      for (Time t : materialize(other)) model.erase(t);
      current = current.subtract(other);
    } else if (op == 2) {  // intersect
      TimeSet other = random_set(rng, 0, 40);
      const std::set<Time> om = materialize(other);
      std::set<Time> kept;
      for (Time t : model) {
        if (om.count(t)) kept.insert(t);
      }
      model = std::move(kept);
      current = current.intersect(other);
    } else if (op == 3) {  // shift
      const Time d = rng.uniform(-3, 3);
      std::set<Time> shifted;
      for (Time t : model) shifted.insert(t + d);
      model = std::move(shifted);
      current = current.shifted(d);
    } else {  // restrict
      const Time a = rng.uniform(-5, 45);
      const Time b = a + rng.uniform(0, 20);
      std::set<Time> kept;
      for (Time t : model) {
        if (a <= t && t <= b) kept.insert(t);
      }
      model = std::move(kept);
      current = current.restricted_to({a, b});
    }

    // Hand the set on by copy or move between steps, so every operation
    // runs on sets that went through the inline and the heap form.
    switch (rng.index(3)) {
      case 0: {
        TimeSet copy(current);
        current = std::move(copy);
        break;
      }
      case 1: {
        TimeSet moved(std::move(current));
        current = moved;
        break;
      }
      default: {
        TimeSet assigned = TimeSet::window(-100, -90);
        assigned = current;
        current = TimeSet{};
        current = std::move(assigned);
      }
    }

    // Full pointwise agreement plus invariants.
    ASSERT_EQ(current.size(), static_cast<std::int64_t>(model.size()))
        << "step " << step << " op " << op;
    for (Time t = -10; t <= 55; ++t) {
      ASSERT_EQ(current.contains(t), model.count(t) > 0)
          << "t=" << t << " step " << step;
    }
    // Normalization invariants: sorted, disjoint, non-adjacent, non-empty.
    const auto& ivs = current.intervals();
    for (std::size_t i = 0; i < ivs.size(); ++i) {
      ASSERT_LE(ivs[i].lo, ivs[i].hi);
      if (i > 0) {
        ASSERT_GT(ivs[i].lo, ivs[i - 1].hi + 1);
      }
    }
    if (!model.empty()) {
      ASSERT_EQ(current.min(), *model.begin());
      ASSERT_EQ(current.max(), *model.rbegin());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Chains, TimeSetFuzz, ::testing::Range(0, 50));

}  // namespace
}  // namespace gapsched
