#include "gapsched/core/transforms.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <vector>

#include "gapsched/exact/brute_force.hpp"
#include "gapsched/exact/power_brute_force.hpp"
#include "gapsched/gen/generators.hpp"
#include "gapsched/prep/prep.hpp"
#include "gapsched/scenarios/scenarios.hpp"
#include "../support/test_seed.hpp"

namespace gapsched {
namespace {

TEST(CompressDeadTime, ShrinksDesertsToOneUnit) {
  Instance inst;
  inst.jobs.push_back(Job{TimeSet::window(100, 102)});
  inst.jobs.push_back(Job{TimeSet::window(5000, 5001)});
  CompressedInstance c = compress_dead_time(inst);
  // New layout: [0,2], dead unit 3, [4,5].
  EXPECT_EQ(c.instance.jobs[0].allowed, TimeSet::window(0, 2));
  EXPECT_EQ(c.instance.jobs[1].allowed, TimeSet::window(4, 5));
}

TEST(CompressDeadTime, TimeMapsRoundTrip) {
  Instance inst;
  inst.jobs.push_back(Job{TimeSet({{10, 12}, {90, 91}})});
  CompressedInstance c = compress_dead_time(inst);
  for (Time t : {10, 11, 12, 90, 91}) {
    EXPECT_EQ(c.to_original(c.to_compressed(t)), t);
  }
}

TEST(CompressDeadTime, AdjacentJobsStayAdjacent) {
  Instance inst;
  inst.jobs.push_back(Job{TimeSet::window(7, 8)});
  inst.jobs.push_back(Job{TimeSet::window(9, 10)});
  CompressedInstance c = compress_dead_time(inst);
  // Touching windows are one live region: [0,1] and [2,3].
  EXPECT_EQ(c.instance.jobs[0].allowed, TimeSet::window(0, 1));
  EXPECT_EQ(c.instance.jobs[1].allowed, TimeSet::window(2, 3));
}

TEST(CompressDeadTime, EmptyInstance) {
  Instance inst;
  CompressedInstance c = compress_dead_time(inst);
  EXPECT_EQ(c.instance.n(), 0u);
}

// Property: compression preserves the optimal transition count exactly.
class CompressionPreservesGaps : public ::testing::TestWithParam<int> {};

TEST_P(CompressionPreservesGaps, OptimaMatch) {
  const std::uint64_t prng_seed = testing::seed_for(static_cast<std::uint64_t>(GetParam()) * 211 + 17);
  GAPSCHED_TRACE_SEED(prng_seed);
  Prng rng(prng_seed);
  // Sparse instances with real deserts.
  Instance inst;
  inst.processors = 1 + static_cast<int>(rng.index(2));
  const std::size_t n = 5 + rng.index(3);
  for (std::size_t j = 0; j < n; ++j) {
    const Time base = rng.uniform(0, 6) * 100;
    const Time lo = base + rng.uniform(0, 5);
    inst.jobs.push_back(Job{TimeSet::window(lo, lo + rng.uniform(0, 4))});
  }
  CompressedInstance c = compress_dead_time(inst);
  c.instance.processors = inst.processors;
  const ExactGapResult a = brute_force_min_transitions(inst);
  const ExactGapResult b = brute_force_min_transitions(c.instance);
  ASSERT_EQ(a.feasible, b.feasible);
  if (a.feasible) {
    EXPECT_EQ(a.transitions, b.transitions);
  }
}

INSTANTIATE_TEST_SUITE_P(Random, CompressionPreservesGaps,
                         ::testing::Range(0, 30));

// ------------------------------------------------- length-aware capping --

TEST(CompressDeadTimeCapped, TruncatesRunsAtTheCapOnly) {
  Instance inst;
  inst.jobs.push_back(Job{TimeSet::window(0, 1)});    // run of 2 follows
  inst.jobs.push_back(Job{TimeSet::window(4, 5)});    // run of 10 follows
  inst.jobs.push_back(Job{TimeSet::window(16, 17)});
  const CompressedInstance c = compress_dead_time_capped(inst, 4);
  // Layout: [0,1], dead 2 (under the cap, kept), [4,5], dead min(10,4)=4,
  // [10,11].
  EXPECT_EQ(c.instance.jobs[0].allowed, TimeSet::window(0, 1));
  EXPECT_EQ(c.instance.jobs[1].allowed, TimeSet::window(4, 5));
  EXPECT_EQ(c.instance.jobs[2].allowed, TimeSet::window(10, 11));
  EXPECT_EQ(c.dead_time_removed(), 6);
  for (Time t : {0, 1, 4, 5, 16, 17}) {
    EXPECT_EQ(c.to_original(c.to_compressed(t)), t);
  }
}

TEST(CompressDeadTimeCapped, CapOneIsPlainCompression) {
  Prng rng(testing::seed_for(815));
  const Instance inst = gen_uniform_one_interval(rng, 7, 400, 4);
  const CompressedInstance one = compress_dead_time(inst);
  const CompressedInstance capped = compress_dead_time_capped(inst, 1);
  ASSERT_EQ(one.instance.n(), capped.instance.n());
  for (std::size_t j = 0; j < inst.n(); ++j) {
    EXPECT_EQ(one.instance.jobs[j].allowed, capped.instance.jobs[j].allowed);
  }
}

TEST(CompressDeadTimeCapped, AlreadyCompactInstancesAreUntouched) {
  const Instance inst = Instance::one_interval({{0, 2}, {4, 6}, {9, 10}});
  const CompressedInstance c = compress_dead_time_capped(inst, 3);
  EXPECT_EQ(c.dead_time_removed(), 0);
  for (std::size_t j = 0; j < inst.n(); ++j) {
    EXPECT_EQ(c.instance.jobs[j].allowed, inst.jobs[j].allowed);
  }
}

// ---------------------------------------------------- the in-place form --

/// Compresses a copy of `inst` in place and checks it against the copying
/// form: the rewritten instance, both interval maps (empty for the
/// identity), the removed dead time, and an empty `instance` in the
/// returned maps.
void expect_in_place_matches_copy(const Instance& inst, Time cap) {
  const CompressedInstance copy = compress_dead_time_capped(inst, cap);
  Instance in_place = inst;
  const CompressedInstance maps =
      compress_dead_time_capped_in_place(in_place, cap);
  EXPECT_EQ(maps.instance.n(), 0u);
  if (copy.identity()) {
    EXPECT_TRUE(maps.original_intervals.empty());
    EXPECT_TRUE(maps.compressed_intervals.empty());
  } else {
    EXPECT_EQ(maps.original_intervals, copy.original_intervals);
    EXPECT_EQ(maps.compressed_intervals, copy.compressed_intervals);
  }
  EXPECT_EQ(maps.dead_time_removed(), copy.dead_time_removed());
  EXPECT_EQ(in_place.processors, copy.instance.processors);
  ASSERT_EQ(in_place.n(), copy.instance.n());
  for (std::size_t j = 0; j < in_place.n(); ++j) {
    EXPECT_EQ(in_place.jobs[j].allowed, copy.instance.jobs[j].allowed)
        << "job " << j;
  }
}

TEST(CompressDeadTimeCapped, InPlaceMatchesCopyAcrossTheCatalog) {
  // Every catalog family at cap 1 (gaps) and ceil(2.5) + 1 (power), both
  // on the raw draw (origin anywhere, so the rebase moves every job) and
  // on each component the pipeline would compress (origin already 0).
  for (const scenarios::Scenario* sc :
       scenarios::ScenarioCatalog::instance().all()) {
    for (const std::uint64_t seed : {1u, 7u}) {
      const Instance inst = sc->make(seed);
      for (const Time cap : {Time{1}, Time{4}}) {
        SCOPED_TRACE(::testing::Message()
                     << sc->name << ":" << seed << " cap " << cap);
        expect_in_place_matches_copy(inst, cap);
        const prep::Decomposition dec =
            prep::decompose(inst, static_cast<Time>(inst.n()));
        for (const prep::Component& comp : dec.components) {
          expect_in_place_matches_copy(comp.instance, cap);
        }
      }
    }
  }
}

TEST(CompressDeadTimeCapped, InPlaceReturnsEmptyMapsExactlyForTheIdentity) {
  // Catalog components (release-sorted, so found by the allocation-free
  // sweep) and edge shapes: the origin off 0, a run of exactly the cap, and
  // one a unit past it. The in-place form returns empty maps exactly when
  // the copying form's maps are the identity, and the empty maps still map
  // every time to itself.
  std::size_t identities = 0;
  std::size_t moved = 0;
  const auto check = [&](const Instance& inst, Time cap) {
    const CompressedInstance copy = compress_dead_time_capped(inst, cap);
    Instance in_place = inst;
    const CompressedInstance maps =
        compress_dead_time_capped_in_place(in_place, cap);
    EXPECT_EQ(maps.original_intervals.empty(), copy.identity());
    EXPECT_EQ(maps.identity(), copy.identity());
    ++(copy.identity() ? identities : moved);
    if (copy.identity()) {
      for (const Interval& iv : copy.original_intervals) {
        EXPECT_EQ(maps.to_original(iv.lo), iv.lo);
        EXPECT_EQ(maps.to_compressed(iv.hi), iv.hi);
      }
    }
  };
  for (const scenarios::Scenario* sc :
       scenarios::ScenarioCatalog::instance().all()) {
    for (const std::uint64_t seed : {1u, 7u}) {
      const Instance inst = sc->make(seed);
      const prep::Decomposition dec =
          prep::decompose(inst, static_cast<Time>(inst.n()));
      for (const prep::Component& comp : dec.components) {
        for (const Time cap : {Time{1}, Time{4}}) {
          SCOPED_TRACE(::testing::Message()
                       << sc->name << ":" << seed << " cap " << cap);
          check(comp.instance, cap);
        }
      }
    }
  }
  EXPECT_GT(identities, 0u);
  EXPECT_GT(moved, 0u);
  identities = moved = 0;
  check(Instance::one_interval({{1, 3}}), 1);
  check(Instance::one_interval({{0, 3}, {7, 8}}), 3);
  check(Instance::one_interval({{0, 3}, {8, 8}}), 3);
  // Out of start order: decided by the full layout, with the same answer.
  check(Instance::one_interval({{5, 6}, {0, 3}}), 1);
  EXPECT_EQ(identities, 2u);
  EXPECT_EQ(moved, 2u);
  Instance empty;
  EXPECT_TRUE(compress_dead_time_capped_in_place(empty, 1).identity());
}

TEST(CompressDeadTimeCapped, InPlaceLeavesCompactInstancesByteIdentical) {
  // Origin 0 and no interior dead run longer than the cap (runs of 1, 2
  // and 3 at cap 3): the map is the identity and the instance comes back
  // byte for byte as it went in.
  Instance inst = Instance::one_interval({{0, 2}, {4, 6}, {9, 10}}, 2);
  inst.jobs.push_back(Job{TimeSet({{1, 1}, {14, 15}})});
  const Instance before = inst;
  const CompressedInstance maps = compress_dead_time_capped_in_place(inst, 3);
  EXPECT_EQ(maps.dead_time_removed(), 0);
  EXPECT_EQ(maps.compressed_intervals, maps.original_intervals);
  EXPECT_EQ(inst.processors, before.processors);
  ASSERT_EQ(inst.n(), before.n());
  for (std::size_t j = 0; j < inst.n(); ++j) {
    const std::span<const Interval> got = inst.jobs[j].allowed.intervals();
    const std::span<const Interval> want = before.jobs[j].allowed.intervals();
    ASSERT_EQ(got.size(), want.size()) << "job " << j;
    EXPECT_EQ(std::memcmp(got.data(), want.data(),
                          got.size() * sizeof(Interval)),
              0)
        << "job " << j;
  }

  // The same layout away from the origin is only rebased at 0.
  Instance far = before;
  for (Job& j : far.jobs) j.allowed.shift(100);
  const CompressedInstance rebased =
      compress_dead_time_capped_in_place(far, 3);
  EXPECT_EQ(rebased.dead_time_removed(), 0);
  for (std::size_t j = 0; j < far.n(); ++j) {
    EXPECT_EQ(far.jobs[j].allowed, before.jobs[j].allowed) << "job " << j;
  }
}

// Property: with cap = ceil(alpha) + 1 the power optimum is exactly
// preserved; the tier-1 sample here is small — the >=500-instance-per-family
// sweep with shrinking lives in tests/fuzz.
class CappedCompressionPreservesPower : public ::testing::TestWithParam<int> {
};

TEST_P(CappedCompressionPreservesPower, OptimaMatch) {
  const std::uint64_t prng_seed =
      testing::seed_for(static_cast<std::uint64_t>(GetParam()) * 223 + 19);
  GAPSCHED_TRACE_SEED(prng_seed);
  Prng rng(prng_seed);
  const double alpha = 0.5 * static_cast<double>(rng.uniform(0, 10));
  const Time cap = static_cast<Time>(std::ceil(alpha)) + 1;
  Instance inst;
  const std::size_t n = 4 + rng.index(3);
  for (std::size_t j = 0; j < n; ++j) {
    const Time base = rng.uniform(0, 5) * 9;  // deserts straddling alpha
    const Time lo = base + rng.uniform(0, 4);
    inst.jobs.push_back(Job{TimeSet::window(lo, lo + rng.uniform(0, 3))});
  }
  const CompressedInstance c = compress_dead_time_capped(inst, cap);
  const ExactPowerResult a = brute_force_min_power(inst, alpha);
  const ExactPowerResult b = brute_force_min_power(c.instance, alpha);
  ASSERT_EQ(a.feasible, b.feasible);
  if (a.feasible) {
    EXPECT_NEAR(a.power, b.power, 1e-9 * std::max(1.0, a.power))
        << "alpha " << alpha << ", cap " << cap;
  }
}

INSTANTIATE_TEST_SUITE_P(Random, CappedCompressionPreservesPower,
                         ::testing::Range(0, 30));

// -------------------------------------------------------- dead-run stretch --

TEST(StretchDeadTime, DilatesLongRunsAndKeepsShortOnes) {
  Instance inst;
  inst.jobs.push_back(Job{TimeSet::window(3, 4)});    // run of 2 follows
  inst.jobs.push_back(Job{TimeSet::window(7, 8)});    // run of 5 follows
  inst.jobs.push_back(Job{TimeSet::window(14, 15)});
  const Instance wide = stretch_dead_time(inst, 3, 4);
  // Origin kept; run of 2 (< min_run 4) kept; run of 5 -> 15.
  EXPECT_EQ(wide.jobs[0].allowed, TimeSet::window(3, 4));
  EXPECT_EQ(wide.jobs[1].allowed, TimeSet::window(7, 8));
  EXPECT_EQ(wide.jobs[2].allowed, TimeSet::window(24, 25));
}

TEST(StretchDeadTime, FactorOneIsIdentity) {
  Prng rng(testing::seed_for(816));
  const Instance inst = gen_uniform_one_interval(rng, 8, 300, 5);
  const Instance same = stretch_dead_time(inst, 1, 1);
  ASSERT_EQ(same.n(), inst.n());
  for (std::size_t j = 0; j < inst.n(); ++j) {
    EXPECT_EQ(same.jobs[j].allowed, inst.jobs[j].allowed);
  }
}

TEST(StretchDeadTime, CappedCompressionNormalizesStretchedCopies) {
  // The tentpole's cache-normalization property at the transform level:
  // stretching dead runs at or above the cap and then compressing with
  // that cap lands on the same instance the unstretched original
  // compresses to.
  Instance inst;
  inst.jobs.push_back(Job{TimeSet::window(0, 2)});
  inst.jobs.push_back(Job{TimeSet::window(9, 10)});   // run of 6
  inst.jobs.push_back(Job{TimeSet::window(30, 32)});  // run of 19
  const Time cap = 4;
  const Instance wide = stretch_dead_time(inst, 7, cap);
  const CompressedInstance a = compress_dead_time_capped(inst, cap);
  const CompressedInstance b = compress_dead_time_capped(wide, cap);
  ASSERT_EQ(a.instance.n(), b.instance.n());
  for (std::size_t j = 0; j < inst.n(); ++j) {
    EXPECT_EQ(a.instance.jobs[j].allowed, b.instance.jobs[j].allowed);
  }
  EXPECT_GT(b.dead_time_removed(), a.dead_time_removed());
}

// ------------------------------------------ naive reference comparison --
//
// The transforms build the live union with one sort-and-merge and map times
// by binary search. These tests hold them to the straightforward versions:
// the union grown one interval at a time, and every map a linear scan.

/// Union of every job's allowed intervals, grown one interval at a time: an
/// added interval absorbs every interval it overlaps or touches, and the
/// result goes before the first interval left of which it ends.
std::vector<Interval> naive_live(const Instance& inst) {
  std::vector<Interval> live;
  for (const Job& j : inst.jobs) {
    for (Interval add : j.allowed.intervals()) {
      std::vector<Interval> next;
      for (const Interval& iv : live) {
        if (iv.hi + 1 < add.lo || add.hi + 1 < iv.lo) {
          next.push_back(iv);
        } else {
          add = {std::min(add.lo, iv.lo), std::max(add.hi, iv.hi)};
        }
      }
      auto at = next.begin();
      while (at != next.end() && at->hi < add.lo) ++at;
      next.insert(at, add);
      live = std::move(next);
    }
  }
  return live;
}

Time naive_map(const std::vector<Interval>& from,
               const std::vector<Interval>& to, Time t) {
  for (std::size_t i = 0; i < from.size(); ++i) {
    if (from[i].contains(t)) return to[i].lo + (t - from[i].lo);
  }
  ADD_FAILURE() << "time " << t << " is in no interval";
  return t;
}

/// Lays `live` out again with every interior dead run of length d replaced
/// by `run(d)`, starting at `origin`.
template <typename Run>
std::vector<Interval> naive_layout(const std::vector<Interval>& live,
                                   Time origin, Run run) {
  std::vector<Interval> out;
  Time cursor = origin;
  for (std::size_t i = 0; i < live.size(); ++i) {
    if (i > 0) cursor += run(live[i].lo - live[i - 1].hi - 1);
    out.push_back({cursor, cursor + live[i].length() - 1});
    cursor += live[i].length();
  }
  return out;
}

std::vector<Job> naive_map_jobs(const Instance& inst,
                                const std::vector<Interval>& from,
                                const std::vector<Interval>& to) {
  std::vector<Job> out;
  for (const Job& j : inst.jobs) {
    std::vector<Interval> mapped;
    for (const Interval& iv : j.allowed.intervals()) {
      const Time lo = naive_map(from, to, iv.lo);
      mapped.push_back({lo, lo + iv.length() - 1});
    }
    out.push_back(Job{TimeSet(std::move(mapped))});
  }
  return out;
}

/// Multi-interval jobs in shuffled order. Intervals overlap at random, and
/// about a third start right after an interval drawn earlier (lo == hi + 1),
/// so adjacent runs must merge; clusters leave dead runs of many lengths.
Instance random_multi_interval(Prng& rng, std::size_t n) {
  Instance inst;
  inst.processors = 1 + static_cast<int>(rng.index(3));
  std::vector<Interval> drawn;
  for (std::size_t j = 0; j < n; ++j) {
    std::vector<Interval> ivs;
    const std::size_t k = 1 + rng.index(3);
    for (std::size_t i = 0; i < k; ++i) {
      Time lo = rng.uniform(0, 40) * 7 + rng.uniform(0, 3);
      if (!drawn.empty() && rng.chance(0.35)) {
        lo = drawn[rng.index(drawn.size())].hi + 1;
      }
      const Interval iv{lo, lo + rng.uniform(0, 3)};
      ivs.push_back(iv);
      drawn.push_back(iv);
    }
    inst.jobs.push_back(Job{TimeSet(std::move(ivs))});
  }
  rng.shuffle(inst.jobs);
  return inst;
}

/// Compares compress_dead_time_capped, its in-place form and
/// stretch_dead_time on `inst` with the naive versions, and round-trips
/// every allowed time through both time maps; with `naive_maps` each
/// compressed image is also checked against the naive map.
void expect_matches_naive(const Instance& inst, Time cap, bool naive_maps) {
  const std::vector<Interval> live = naive_live(inst);
  const std::vector<Interval> compressed = naive_layout(
      live, 0, [&](Time d) { return std::min(d, cap); });
  const CompressedInstance c = compress_dead_time_capped(inst, cap);
  ASSERT_EQ(c.original_intervals, live);
  ASSERT_EQ(c.compressed_intervals, compressed);
  const std::vector<Job> jobs = naive_map_jobs(inst, live, compressed);
  ASSERT_EQ(c.instance.n(), jobs.size());
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    ASSERT_EQ(c.instance.jobs[j].allowed, jobs[j].allowed) << "job " << j;
  }
  // The in-place form rewrites a copy to the same image and returns the
  // same maps without an instance, or empty maps for the identity.
  const bool identity = compressed == live;
  Instance in_place = inst;
  const CompressedInstance maps =
      compress_dead_time_capped_in_place(in_place, cap);
  ASSERT_EQ(maps.instance.n(), 0u);
  ASSERT_EQ(maps.original_intervals,
            identity ? std::vector<Interval>{} : live);
  ASSERT_EQ(maps.compressed_intervals,
            identity ? std::vector<Interval>{} : compressed);
  ASSERT_EQ(maps.dead_time_removed(), c.dead_time_removed());
  ASSERT_EQ(in_place.processors, inst.processors);
  ASSERT_EQ(in_place.n(), jobs.size());
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    ASSERT_EQ(in_place.jobs[j].allowed, jobs[j].allowed) << "job " << j;
  }
  std::size_t up = 0;
  std::size_t back = 0;
  for (const Interval& iv : live) {
    for (Time t = iv.lo; t <= iv.hi; ++t) {
      const Time squeezed = c.to_compressed(t);
      ASSERT_EQ(c.to_original(squeezed), t);
      // The hinted maps agree with the binary search along a sweep.
      ASSERT_EQ(c.to_compressed(t, &up), squeezed) << t;
      ASSERT_EQ(c.to_original(squeezed, &back), t) << t;
      if (naive_maps) {
        ASSERT_EQ(squeezed, naive_map(live, compressed, t)) << t;
      }
    }
  }
  // And against a sweep from the far end.
  for (auto iv = live.rbegin(); iv != live.rend(); ++iv) {
    ASSERT_EQ(c.to_compressed(iv->hi, &up), c.to_compressed(iv->hi));
    ASSERT_EQ(c.to_compressed(iv->lo, &up), c.to_compressed(iv->lo));
  }

  const Time k = 1 + cap;
  const std::vector<Interval> stretched = naive_layout(
      live, live.front().lo, [&](Time d) { return d >= cap ? d * k : d; });
  const Instance wide = stretch_dead_time(inst, k, cap);
  const std::vector<Job> wide_jobs = naive_map_jobs(inst, live, stretched);
  ASSERT_EQ(wide.processors, inst.processors);
  ASSERT_EQ(wide.n(), wide_jobs.size());
  for (std::size_t j = 0; j < wide_jobs.size(); ++j) {
    ASSERT_EQ(wide.jobs[j].allowed, wide_jobs[j].allowed) << "job " << j;
  }
}

class TransformsMatchNaive : public ::testing::TestWithParam<int> {};

TEST_P(TransformsMatchNaive, RandomMultiIntervalInstances) {
  const std::uint64_t prng_seed =
      testing::seed_for(static_cast<std::uint64_t>(GetParam()) * 227 + 23);
  GAPSCHED_TRACE_SEED(prng_seed);
  Prng rng(prng_seed);
  const Instance inst = random_multi_interval(rng, 1 + rng.index(40));
  for (Time cap = 1; cap <= 4; ++cap) {
    SCOPED_TRACE(::testing::Message() << "cap " << cap);
    expect_matches_naive(inst, cap, /*naive_maps=*/true);
  }
}

INSTANTIATE_TEST_SUITE_P(Random, TransformsMatchNaive, ::testing::Range(0, 40));

TEST(TransformsMatchNaive, TwentyThousandJobsWithManyDeadRuns) {
  // Clusters of short windows spread far apart: thousands of live
  // intervals separated by dead runs of every length class around the caps.
  Prng rng(testing::seed_for(829));
  Instance inst;
  for (std::size_t j = 0; j < 20000; ++j) {
    const Time lo = rng.uniform(0, 2500) * 13 + rng.uniform(0, 9);
    inst.jobs.push_back(Job{TimeSet::window(lo, lo + rng.uniform(0, 2))});
  }
  expect_matches_naive(inst, 3, /*naive_maps=*/false);
  EXPECT_GT(compress_dead_time_capped(inst, 3).original_intervals.size(),
            2500u);
}

}  // namespace
}  // namespace gapsched
