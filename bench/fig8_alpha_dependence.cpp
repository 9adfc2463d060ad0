// F8 — Theorems 4.2/5: the approximation factor's dependence on alpha.
// Paper claim: no polynomial algorithm for multi-interval power
// minimization has a factor independent of alpha (Section 4.2), and the
// factor must grow like Omega(lg alpha) (Theorem 5, via B-set cover with
// alpha = B).
// Protocol: the Theorem 5 family with alpha = B for growing B: drive the
// reduced instance with the greedy set cover (the natural poly-time
// heuristic on this family) and compare its power to the optimal cover's.
// Shape: the heuristic/OPT power gap grows with B (tracking the greedy
// cover's ~ln B slack), illustrating why a B-independent factor is
// impossible for a set-cover-powered family.

#include "bench_common.hpp"

#include <mutex>

#include "gapsched/reductions/setcover_to_powermin.hpp"

using namespace gapsched;

int main(int, char** argv) {
  bench::banner("F8 (Theorem 5: alpha-dependence of power-min approximation)",
                "heuristic/OPT power ratio grows with alpha = B");

  constexpr int kTrials = 30;
  Table table({"B(=alpha)", "universe", "mean_cover_opt", "mean_cover_greedy",
               "mean_power_ratio", "max_power_ratio"});
  std::mutex mu;

  for (std::size_t b : {2u, 3u, 4u, 6u, 8u}) {
    const std::size_t universe = 2 * b + 6;
    const std::size_t sets = universe;  // redundancy so greedy can err
    double cover_opt = 0.0, cover_greedy = 0.0, sum_r = 0.0, max_r = 0.0;
    int used = 0;
    parallel_for(kTrials, [&](std::size_t trial) {
      Prng rng(bench::kSeed + trial * 829 + b * 11);
      SetCoverInstance sc = gen_random_set_cover(rng, universe, sets, b);
      const SetCoverResult exact = exact_set_cover(sc);
      const SetCoverResult greedy = greedy_set_cover(sc);
      if (!exact.coverable) return;
      SetCoverReduction red =
          reduce_setcover_to_powermin(sc, static_cast<double>(b));
      // Power achieved by scheduling along each cover (Theorem 4's forward
      // map; exact by T4's validation).
      const double p_opt = red.cover_to_power(exact.chosen.size());
      const double p_greedy = red.cover_to_power(greedy.chosen.size());
      const double ratio = p_greedy / p_opt;
      std::lock_guard<std::mutex> lk(mu);
      ++used;
      cover_opt += static_cast<double>(exact.chosen.size());
      cover_greedy += static_cast<double>(greedy.chosen.size());
      sum_r += ratio;
      max_r = std::max(max_r, ratio);
    });
    if (used == 0) used = 1;
    table.row()
        .add(b)
        .add(universe)
        .add(cover_opt / used, 2)
        .add(cover_greedy / used, 2)
        .add(sum_r / used, 4)
        .add(max_r, 4);
  }
  bench::emit(argv[0], table);
  return 0;
}
