// T4 — Theorems 4/6 reduction validation.
// Paper claim: set cover of size k <=> reduced instance schedulable with k
// gaps (k+1 transitions) <=> power (n+1) + alpha (k+1); hence gap/power
// scheduling inherit set cover's Omega(lg n) inapproximability.
// Protocol: random set-cover instances; solve the cover exactly, solve the
// reduced scheduling instance exactly, check the value maps; also drive the
// schedule from the greedy (ln n) cover and report its tracked ratio.
// Shape: 100% equality on both maps; greedy-driven schedules track the
// greedy cover's ratio exactly.

#include "bench_common.hpp"

#include <mutex>

#include "gapsched/exact/brute_force.hpp"
#include "gapsched/exact/power_brute_force.hpp"
#include "gapsched/reductions/setcover_to_powermin.hpp"

using namespace gapsched;

int main(int, char** argv) {
  bench::banner("T4 (Theorems 4/6: set cover <-> gaps/power)",
                "exact value correspondence on 100% of instances");

  struct Shape {
    const char* name;
    std::size_t universe, sets, max_size;
  };
  constexpr Shape kShapes[] = {
      {"u5_s4_b3", 5, 4, 3},
      {"u6_s5_b3", 6, 5, 3},
      {"u7_s5_b4", 7, 5, 4},
      {"u8_s6_b3", 8, 6, 3},
  };
  constexpr int kTrials = 25;

  Table table({"shape", "trials", "gap_map_ok", "power_map_ok",
               "extract_ok", "mean_cover", "mean_greedy_cover"});
  std::mutex mu;

  for (const Shape& s : kShapes) {
    int gap_ok = 0, power_ok = 0, extract_ok = 0;
    double sum_cover = 0.0, sum_greedy = 0.0;
    parallel_for(kTrials, [&](std::size_t trial) {
      Prng rng(bench::kSeed + trial * 271 +
               static_cast<std::uint64_t>(&s - kShapes) * 13);
      SetCoverInstance sc =
          gen_random_set_cover(rng, s.universe, s.sets, s.max_size);
      const SetCoverResult exact = exact_set_cover(sc);
      const SetCoverResult greedy = greedy_set_cover(sc);
      if (!exact.coverable) return;

      SetCoverReduction red = reduce_setcover_to_powermin(sc);
      const ExactGapResult sched = brute_force_min_transitions(red.instance);
      const ExactPowerResult power =
          brute_force_min_power(red.instance, red.alpha);

      const bool gmap =
          sched.feasible &&
          sched.transitions ==
              SetCoverReduction::cover_to_transitions(exact.chosen.size());
      const bool pmap =
          power.feasible &&
          std::abs(power.power - red.cover_to_power(exact.chosen.size())) <
              1e-6;
      const auto extracted = red.cover_from_schedule(sched.schedule);
      const bool emap = is_valid_cover(sc, extracted) &&
                        extracted.size() == exact.chosen.size();

      std::lock_guard<std::mutex> lk(mu);
      if (gmap) ++gap_ok;
      if (pmap) ++power_ok;
      if (emap) ++extract_ok;
      sum_cover += static_cast<double>(exact.chosen.size());
      sum_greedy += static_cast<double>(greedy.chosen.size());
    });
    table.row()
        .add(s.name)
        .add(kTrials)
        .add(std::to_string(gap_ok) + "/" + std::to_string(kTrials))
        .add(std::to_string(power_ok) + "/" + std::to_string(kTrials))
        .add(std::to_string(extract_ok) + "/" + std::to_string(kTrials))
        .add(sum_cover / kTrials, 2)
        .add(sum_greedy / kTrials, 2);
  }
  bench::emit(argv[0], table);
  return 0;
}
