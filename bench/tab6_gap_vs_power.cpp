// T6 — gap objective vs power objective (Theorems 1 vs 2).
// Paper claim: the two objectives coincide for exact one-interval solving
// "with a subtle difference": a power-minimizing processor may bridge short
// gaps in the active state, so gap-optimal and power-optimal schedules
// diverge for small alpha and converge as alpha grows past the idle
// lengths.
// Protocol: alpha sweep on fixed instances; compare power(power-opt),
// power(gap-opt schedule), and both schedules' transitions. Shape:
// power(gap-opt) >= power(power-opt), equality for large alpha.

#include "bench_common.hpp"

#include <mutex>

#include "gapsched/dp/gap_dp.hpp"
#include "gapsched/dp/power_dp.hpp"
#include "gapsched/gen/generators.hpp"
#include "gapsched/matching/feasibility.hpp"

using namespace gapsched;

int main(int, char** argv) {
  bench::banner("T6 (gap-optimal vs power-optimal schedules)",
                "objectives diverge at small alpha, converge at large alpha");

  const double alphas[] = {0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 32.0};
  constexpr int kTrials = 20;

  Table table({"alpha", "mean_power_opt", "mean_power_of_gap_opt",
               "overhead_pct", "mean_trans_power_opt", "mean_trans_gap_opt",
               "schedules_identical_pct"});
  std::mutex mu;

  for (double alpha : alphas) {
    double p_opt = 0.0, p_gap = 0.0, t_p = 0.0, t_g = 0.0;
    int same = 0, used = 0;
    parallel_for(kTrials, [&](std::size_t trial) {
      Prng rng(bench::kSeed + trial * 97);  // same instances for all alpha
      Instance inst = gen_uniform_one_interval(rng, 9, 18, 4, 1);
      if (!is_feasible(inst)) return;
      const GapDpResult gap = solve_gap_dp(inst);
      const PowerDpResult power = solve_power_dp(inst, alpha);
      const double pg = gap.schedule.profile().optimal_power(alpha);
      std::lock_guard<std::mutex> lk(mu);
      ++used;
      p_opt += power.power;
      p_gap += pg;
      t_p += static_cast<double>(power.schedule.profile().transitions());
      t_g += static_cast<double>(gap.transitions);
      if (std::abs(pg - power.power) < 1e-9) ++same;
    });
    table.row()
        .add(alpha, 2)
        .add(used ? p_opt / used : 0.0, 2)
        .add(used ? p_gap / used : 0.0, 2)
        .add(p_opt > 0 ? 100.0 * (p_gap - p_opt) / p_opt : 0.0, 2)
        .add(used ? t_p / used : 0.0, 2)
        .add(used ? t_g / used : 0.0, 2)
        .add(used ? 100.0 * same / used : 0.0, 1);
  }
  bench::emit(argv[0], table);
  return 0;
}
