// F1 — Theorem 1 polynomial scaling.
// Paper claim: O(n^7 p^5) time, O(n^5 p^3) states — polynomial in both n
// and p (the surprise of Theorem 1: not n^O(p)).
// Protocol: anchored feasible instances, n and p sweeps; report wall time,
// reachable memoized states, and states as a fraction of the n^5 p^3 bound.
// The log-log growth rate (printed per successive n) should stay far below
// exponential and roughly constant, and the p columns should grow
// polynomially at fixed n.

#include "bench_common.hpp"

#include <cmath>
#include <mutex>

#include "gapsched/dp/gap_dp.hpp"
#include "gapsched/gen/generators.hpp"

using namespace gapsched;

int main(int, char** argv) {
  bench::banner("F1 (Theorem 1 scaling)",
                "runtime and state count polynomial in n and p");

  Table table({"n", "p", "ms_median", "states", "bound_n5p3", "states/bound",
               "loglog_slope_vs_prev_n"});
  std::mutex mu;

  const std::size_t ns[] = {8, 12, 16, 20, 24, 28, 32, 40};
  const int ps[] = {1, 2, 4, 8};

  for (int p : ps) {
    double prev_ms = -1.0;
    std::size_t prev_n = 0;
    for (std::size_t n : ns) {
      // Median of 3 seeded repetitions, instances sized to stay feasible.
      std::vector<double> ms(3);
      std::vector<std::size_t> states(3);
      parallel_for(3, [&](std::size_t rep) {
        Prng rng(bench::kSeed + rep * 31 + n * 7 + static_cast<std::size_t>(p));
        Instance inst = gen_feasible_one_interval(
            rng, n, static_cast<Time>(2 * n), 3, p);
        Stopwatch sw;
        GapDpResult r = solve_gap_dp(inst);
        std::lock_guard<std::mutex> lk(mu);
        ms[rep] = sw.millis();
        states[rep] = r.states;
      });
      std::sort(ms.begin(), ms.end());
      std::sort(states.begin(), states.end());
      const double med = ms[1];
      const double bound = std::pow(static_cast<double>(n), 5) *
                           std::pow(static_cast<double>(p), 3);
      std::string slope = "-";
      if (prev_ms > 0.0 && med > 0.0) {
        const double s = std::log(med / prev_ms) /
                         std::log(static_cast<double>(n) /
                                  static_cast<double>(prev_n));
        char buf[32];
        std::snprintf(buf, sizeof buf, "%.2f", s);
        slope = buf;
      }
      table.row()
          .add(n)
          .add(p)
          .add(med, 2)
          .add(states[1])
          .add(static_cast<std::int64_t>(bound))
          .add(static_cast<double>(states[1]) / bound, 4)
          .add(slope);
      prev_ms = med;
      prev_n = n;
    }
  }
  bench::emit(argv[0], table);
  return 0;
}
