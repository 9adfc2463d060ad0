// F7 — online power-down baseline ([AIS04] setting, cited in Section 1).
// Paper context: online power saving admits a (3 + 2*sqrt(2)) ~ 5.83
// competitive strategy and no better than 2; the classic deterministic
// threshold policy (stay active alpha units, then sleep) is 2-competitive
// per idle period on top of the forced EDF schedule.
// Protocol: alpha sweep; online threshold policy vs the offline Theorem 2
// optimum, on neutral and adversarial workloads. Shape: ratio bounded well
// below 5.83 on neutral workloads and pushed toward/above 2 on the
// adversarial family (where the EDF schedule itself is bad).

#include "bench_common.hpp"

#include <mutex>

#include "gapsched/dp/power_dp.hpp"
#include "gapsched/gen/generators.hpp"
#include "gapsched/matching/feasibility.hpp"
#include "gapsched/online/online_powerdown.hpp"

using namespace gapsched;

int main(int, char** argv) {
  bench::banner("F7 (online power-down vs offline optimum)",
                "threshold policy competitive; adversarial family degrades "
                "the EDF side");

  const double alphas[] = {0.5, 1.0, 2.0, 4.0, 8.0};
  constexpr int kTrials = 25;

  Table table({"workload", "alpha", "mean_online", "mean_offline",
               "mean_ratio", "max_ratio"});
  std::mutex mu;

  for (const char* family : {"uniform", "adversarial"}) {
    for (double alpha : alphas) {
      double sum_on = 0.0, sum_off = 0.0, sum_r = 0.0, max_r = 0.0;
      int used = 0;
      parallel_for(kTrials, [&](std::size_t trial) {
        Prng rng(bench::kSeed + trial * 409 +
                 static_cast<std::uint64_t>(alpha * 8));
        Instance inst = std::string(family) == "uniform"
                            ? gen_uniform_one_interval(rng, 10, 24, 5, 1)
                            : gen_online_adversarial(5 + trial % 4);
        if (!is_feasible(inst)) return;
        const OnlinePowerdownResult online = online_powerdown(inst, alpha);
        const PowerDpResult offline = solve_power_dp(inst, alpha);
        const double ratio = online.power / offline.power;
        std::lock_guard<std::mutex> lk(mu);
        ++used;
        sum_on += online.power;
        sum_off += offline.power;
        sum_r += ratio;
        max_r = std::max(max_r, ratio);
      });
      table.row()
          .add(family)
          .add(alpha, 1)
          .add(used ? sum_on / used : 0.0, 2)
          .add(used ? sum_off / used : 0.0, 2)
          .add(used ? sum_r / used : 0.0, 3)
          .add(max_r, 3);
    }
  }
  bench::emit(argv[0], table);
  return 0;
}
