// T1 — Theorems 1 & 2 exactness.
// Paper claim: the dynamic program solves multiprocessor gap scheduling and
// power minimization optimally in polynomial time.
// Protocol: random instances across families and processor counts; the DP
// must match the independent brute-force subset DP on every instance (both
// objectives), and its schedules must be valid and achieve the claimed cost.

#include "bench_common.hpp"

#include <atomic>

#include "gapsched/dp/gap_dp.hpp"
#include "gapsched/dp/power_dp.hpp"
#include "gapsched/exact/brute_force.hpp"
#include "gapsched/exact/power_brute_force.hpp"
#include "gapsched/gen/generators.hpp"

using namespace gapsched;

namespace {

struct Family {
  const char* name;
  std::size_t n;
  Time horizon;
  Time window;
  int processors;
  bool feasible_family;
};

constexpr Family kFamilies[] = {
    {"uniform_p1", 7, 10, 4, 1, false}, {"uniform_p2", 7, 9, 4, 2, false},
    {"uniform_p3", 6, 8, 3, 3, false},  {"anchored_p1", 8, 14, 3, 1, true},
    {"anchored_p2", 8, 10, 3, 2, true}, {"anchored_p3", 7, 8, 2, 3, true},
    {"tight_p1", 8, 8, 2, 1, false},    {"tight_p2", 9, 7, 2, 2, false},
};

constexpr int kTrials = 60;

}  // namespace

int main(int, char** argv) {
  bench::banner("T1 (exactness of Theorems 1-2)",
                "DP == brute force on 100% of instances, both objectives");

  Table table({"family", "n", "p", "trials", "feasible", "gap_agree",
               "power_agree", "sched_valid"});

  for (const Family& f : kFamilies) {
    std::atomic<int> feasible{0}, gap_agree{0}, power_agree{0}, valid{0};
    parallel_for(kTrials, [&](std::size_t trial) {
      Prng rng(bench::kSeed + trial * 1009 +
               static_cast<std::uint64_t>(&f - kFamilies) * 77);
      Instance inst =
          f.feasible_family
              ? gen_feasible_one_interval(rng, f.n, f.horizon, f.window,
                                          f.processors)
              : gen_uniform_one_interval(rng, f.n, f.horizon, f.window,
                                         f.processors);
      const double alpha = 0.5 * static_cast<double>(1 + rng.index(8));

      const ExactGapResult bf = brute_force_min_transitions(inst);
      const GapDpResult dp = solve_gap_dp(inst);
      const ExactPowerResult pbf = brute_force_min_power(inst, alpha);
      const PowerDpResult pdp = solve_power_dp(inst, alpha);

      if (bf.feasible) feasible.fetch_add(1);
      if (bf.feasible == dp.feasible &&
          (!bf.feasible || bf.transitions == dp.transitions)) {
        gap_agree.fetch_add(1);
      }
      if (pbf.feasible == pdp.feasible &&
          (!pbf.feasible || std::abs(pbf.power - pdp.power) < 1e-9)) {
        power_agree.fetch_add(1);
      }
      if (!bf.feasible ||
          (dp.schedule.validate(inst).empty() &&
           dp.schedule.profile().transitions() == dp.transitions &&
           pdp.schedule.validate(inst).empty())) {
        valid.fetch_add(1);
      }
    });
    table.row()
        .add(f.name)
        .add(f.n)
        .add(f.processors)
        .add(kTrials)
        .add(feasible.load())
        .add(std::to_string(gap_agree.load()) + "/" + std::to_string(kTrials))
        .add(std::to_string(power_agree.load()) + "/" +
             std::to_string(kTrials))
        .add(std::to_string(valid.load()) + "/" + std::to_string(kTrials));
  }
  bench::emit(argv[0], table);
  return 0;
}
