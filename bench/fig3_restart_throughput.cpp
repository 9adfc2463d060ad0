// F3 — Theorem 11: throughput under a gap budget.
// Paper claim: the k-round greedy is an O(sqrt(n))-approximation for
// maximizing scheduled jobs subject to at most k gaps.
// Protocol: k sweep on random multi-interval instances small enough for the
// exhaustive optimum; report greedy vs OPT and the worst observed ratio
// against the 2 sqrt(n) envelope. Shape: throughput monotone in k; ratio
// far inside the envelope.

#include "bench_common.hpp"

#include <cmath>
#include <mutex>

#include "gapsched/gen/generators.hpp"
#include "gapsched/restart/restart_greedy.hpp"

using namespace gapsched;

int main(int, char** argv) {
  bench::banner("F3 (Theorem 11: restart-bounded throughput)",
                "greedy within O(sqrt(n)) of OPT; monotone in k");

  constexpr std::size_t kN = 9;
  constexpr int kTrials = 25;

  Table table({"k", "mean_greedy", "mean_opt", "mean_ratio", "min_ratio",
               "envelope_1/(2sqrt_n)"});
  std::mutex mu;

  for (std::size_t k = 1; k <= 5; ++k) {
    double sum_g = 0.0, sum_o = 0.0, sum_r = 0.0, min_r = 2.0;
    int used = 0;
    parallel_for(kTrials, [&](std::size_t trial) {
      Prng rng(bench::kSeed + trial * 887);
      Instance inst = gen_multi_interval(rng, kN, 22, 2, 2);
      const std::size_t greedy = restart_greedy(inst, k).scheduled;
      const std::size_t opt = restart_exact_max_jobs(inst, k);
      std::lock_guard<std::mutex> lk(mu);
      ++used;
      sum_g += static_cast<double>(greedy);
      sum_o += static_cast<double>(opt);
      if (opt > 0) {
        const double r = static_cast<double>(greedy) / static_cast<double>(opt);
        sum_r += r;
        min_r = std::min(min_r, r);
      } else {
        sum_r += 1.0;
      }
    });
    table.row()
        .add(k)
        .add(used ? sum_g / used : 0.0, 2)
        .add(used ? sum_o / used : 0.0, 2)
        .add(used ? sum_r / used : 0.0, 3)
        .add(min_r, 3)
        .add(1.0 / (2.0 * std::sqrt(static_cast<double>(kN))), 3);
  }
  bench::emit(argv[0], table);
  return 0;
}
