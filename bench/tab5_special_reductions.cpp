// T5 — Theorems 7, 8, 9, 10: the special-case reductions preserve optima.
// Paper claims: 2-interval and 3-unit gap scheduling are as hard as general
// multi-interval (optimum preserved up to the extra block's +1); two-unit
// and disjoint-unit gap scheduling are equivalent up to +-1; B-set cover
// embeds exactly into disjoint-unit scheduling.
// Protocol: random sources, exact solvers on both sides of each reduction.
// Shape: 100% of instances satisfy the claimed value map.

#include "bench_common.hpp"

#include <mutex>

#include "gapsched/exact/brute_force.hpp"
#include "gapsched/gen/generators.hpp"
#include "gapsched/reductions/multi_to_three_unit.hpp"
#include "gapsched/reductions/multi_to_two_interval.hpp"
#include "gapsched/reductions/setcover_to_disjoint_unit.hpp"
#include "gapsched/reductions/two_unit_disjoint.hpp"
#include "gapsched/setcover/setcover.hpp"

using namespace gapsched;

namespace {

constexpr int kTrials = 30;

Instance random_multi(Prng& rng, std::size_t n, std::size_t max_ivs,
                      Time horizon) {
  Instance inst;
  inst.processors = 1;
  for (std::size_t j = 0; j < n; ++j) {
    std::vector<Interval> ivs;
    const std::size_t k = 1 + rng.index(max_ivs);
    for (std::size_t i = 0; i < k; ++i) {
      const Time lo = rng.uniform(0, horizon);
      ivs.push_back({lo, lo + rng.uniform(0, 1)});
    }
    inst.jobs.push_back(Job{TimeSet(std::move(ivs))});
  }
  return inst;
}

}  // namespace

int main(int, char** argv) {
  bench::banner("T5 (Theorems 7/8/9/10: special-case reductions)",
                "value maps hold on 100% of random instances");

  Table table({"reduction", "trials", "checked", "map_holds"});
  std::mutex mu;

  // Theorem 7: multi-interval -> 2-interval (+1 for the extra block).
  {
    int checked = 0, ok = 0;
    parallel_for(kTrials, [&](std::size_t trial) {
      Prng rng(bench::kSeed + trial * 331);
      Instance inst = random_multi(rng, 3, 4, 14);
      TwoIntervalReduction red = reduce_multi_to_two_interval(inst);
      const ExactGapResult a = brute_force_min_transitions(inst);
      const ExactGapResult b = brute_force_min_transitions(red.instance);
      std::lock_guard<std::mutex> lk(mu);
      ++checked;
      if (a.feasible == b.feasible &&
          (!a.feasible ||
           b.transitions == red.original_to_reduced(a.transitions))) {
        ++ok;
      }
    });
    table.row().add("thm7_multi_to_2interval").add(kTrials).add(checked).add(
        std::to_string(ok) + "/" + std::to_string(checked));
  }

  // Theorem 8: multi-interval -> 3-unit (+1 for the extra block).
  {
    int checked = 0, ok = 0;
    parallel_for(kTrials, [&](std::size_t trial) {
      Prng rng(bench::kSeed + trial * 733);
      Instance inst;
      inst.processors = 1;
      for (int j = 0; j < 3; ++j) {
        std::vector<Time> pts;
        const std::size_t k = 1 + rng.index(5);
        for (std::size_t i = 0; i < k; ++i) pts.push_back(rng.uniform(0, 12));
        inst.jobs.push_back(Job{TimeSet::points(pts)});
      }
      ThreeUnitReduction red = reduce_multi_to_three_unit(inst);
      const ExactGapResult a = brute_force_min_transitions(inst);
      const ExactGapResult b = brute_force_min_transitions(red.instance);
      std::lock_guard<std::mutex> lk(mu);
      ++checked;
      if (a.feasible == b.feasible &&
          (!a.feasible ||
           b.transitions == red.original_to_reduced(a.transitions))) {
        ++ok;
      }
    });
    table.row().add("thm8_multi_to_3unit").add(kTrials).add(checked).add(
        std::to_string(ok) + "/" + std::to_string(checked));
  }

  // Theorem 9 forward: two-unit -> disjoint-unit (within +-1).
  {
    int checked = 0, ok = 0;
    parallel_for(kTrials, [&](std::size_t trial) {
      Prng rng(bench::kSeed + trial * 1117);
      Instance inst = gen_unit_points(rng, 6, 14, 2);
      TwoUnitDisjointReduction red = reduce_two_unit_to_disjoint(inst);
      if (!red.feasible_input || red.instance.n() == 0) return;
      const ExactGapResult a =
          brute_force_min_transitions(red.compressed_source.instance);
      const ExactGapResult b = brute_force_min_transitions(red.instance);
      std::lock_guard<std::mutex> lk(mu);
      ++checked;
      if (a.feasible && b.feasible &&
          std::llabs(a.transitions - b.transitions) <= 1) {
        ++ok;
      }
    });
    table.row().add("thm9_2unit_to_disjoint").add(kTrials).add(checked).add(
        std::to_string(ok) + "/" + std::to_string(checked));
  }

  // Theorem 9 backward: disjoint-unit -> two-unit (within +-1).
  {
    int checked = 0, ok = 0;
    parallel_for(kTrials, [&](std::size_t trial) {
      Prng rng(bench::kSeed + trial * 1327);
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
      if (!red.feasible_input || red.instance.n() == 0) return;
      const ExactGapResult a =
          brute_force_min_transitions(red.compressed_source.instance);
      const ExactGapResult b = brute_force_min_transitions(red.instance);
      std::lock_guard<std::mutex> lk(mu);
      ++checked;
      if (a.feasible && b.feasible &&
          std::llabs(a.transitions - b.transitions) <= 1) {
        ++ok;
      }
    });
    table.row().add("thm9_disjoint_to_2unit").add(kTrials).add(checked).add(
        std::to_string(ok) + "/" + std::to_string(checked));
  }

  // Theorem 10: B-set cover -> disjoint-unit (exact equality).
  {
    int checked = 0, ok = 0;
    parallel_for(kTrials, [&](std::size_t trial) {
      Prng rng(bench::kSeed + trial * 1429);
      SetCoverInstance sc = gen_random_set_cover(rng, 5, 4, 3);
      const SetCoverResult cover = exact_set_cover(sc);
      if (!cover.coverable) return;
      DisjointUnitReduction red = reduce_setcover_to_disjoint_unit(sc);
      const ExactGapResult sched = brute_force_min_transitions(red.instance);
      std::lock_guard<std::mutex> lk(mu);
      ++checked;
      if (sched.feasible &&
          sched.transitions == DisjointUnitReduction::cover_to_transitions(
                                   cover.chosen.size())) {
        ++ok;
      }
    });
    table.row().add("thm10_setcover_to_disjoint").add(kTrials).add(checked).add(
        std::to_string(ok) + "/" + std::to_string(checked));
  }

  bench::emit(argv[0], table);
  return 0;
}
