// F2 — Theorem 3 approximation factor versus alpha.
// Paper claim: multi-interval power minimization admits a polynomial-time
// (1 + (2/3 + eps) alpha)-approximation; the trivial bound is 1 + alpha, and
// Section 4.2 shows some dependence on alpha is necessary.
// Protocol: alpha sweep on random multi-interval instances small enough for
// the exact brute force; report measured ratio vs both envelopes. Shape:
// measured <= theorem bound for all alpha, and the theorem bound beats the
// trivial envelope as alpha grows.

#include "bench_common.hpp"

#include <mutex>

#include "gapsched/exact/power_brute_force.hpp"
#include "gapsched/gen/generators.hpp"
#include "gapsched/matching/feasibility.hpp"
#include "gapsched/powermin/powermin_approx.hpp"

using namespace gapsched;

int main(int, char** argv) {
  bench::banner(
      "F2 (Theorem 3: power-min approximation vs alpha)",
      "ratio <= 1 + (2/3+eps)*alpha, tighter than the trivial 1 + alpha");

  const double alphas[] = {0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0};
  constexpr int kTrials = 30;

  Table table({"alpha", "feasible", "mean_ratio", "max_ratio", "thm3_bound",
               "trivial_bound", "mean_pairs"});
  std::mutex mu;

  for (double alpha : alphas) {
    int feasible = 0;
    double sum_ratio = 0.0, max_ratio = 0.0, sum_pairs = 0.0;
    parallel_for(kTrials, [&](std::size_t trial) {
      Prng rng(bench::kSeed + trial * 10007 +
               static_cast<std::uint64_t>(alpha * 16));
      Instance inst = gen_multi_interval(rng, 8, 24, 2, 2);
      if (!is_feasible(inst)) return;
      const ExactPowerResult opt = brute_force_min_power(inst, alpha);
      const PowerMinApproxResult apx = powermin_approx(inst, alpha);
      const double ratio = apx.power / opt.power;
      std::lock_guard<std::mutex> lk(mu);
      ++feasible;
      sum_ratio += ratio;
      max_ratio = std::max(max_ratio, ratio);
      sum_pairs += static_cast<double>(apx.pairs_packed);
    });
    table.row()
        .add(alpha, 2)
        .add(feasible)
        .add(feasible ? sum_ratio / feasible : 0.0, 3)
        .add(max_ratio, 3)
        .add(theorem3_bound(alpha), 3)
        .add(1.0 + alpha, 3)
        .add(feasible ? sum_pairs / feasible : 0.0, 2);
  }
  bench::emit(argv[0], table);
  return 0;
}
