// T2 — FHKN greedy approximation quality.
// Paper claim (Section 1, citing [FHKN06]): the greedy that repeatedly
// commits the largest feasibility-preserving gap is a 3-approximation for
// one-interval gap scheduling.
// Protocol: random one-interval families; report the observed ratio
// greedy/OPT (OPT = Baptiste DP). Shape: max ratio <= 3, mean well below.

#include "bench_common.hpp"

#include <mutex>

#include "gapsched/bcd/bcd.hpp"
#include "gapsched/gen/generators.hpp"
#include "gapsched/greedy/fhkn_greedy.hpp"

using namespace gapsched;

namespace {

struct Family {
  const char* name;
  std::size_t n;
  Time horizon;
  Time window;
  bool feasible_family;
};

constexpr Family kFamilies[] = {
    {"uniform_loose", 12, 30, 8, false}, {"uniform_tight", 12, 18, 3, false},
    {"anchored_sparse", 12, 40, 4, true}, {"anchored_dense", 14, 20, 3, true},
    {"bursty", 0, 0, 0, true},  // special-cased below
};

constexpr int kTrials = 40;

}  // namespace

int main(int, char** argv) {
  bench::banner("T2 (FHKN greedy ratio)",
                "greedy/OPT in [1, 3]; mean far below 3");

  Table table({"family", "trials", "feasible", "mean_ratio", "max_ratio",
               "greedy_optimal_pct"});
  std::mutex mu;

  for (const Family& f : kFamilies) {
    int feasible = 0, optimal = 0;
    double sum_ratio = 0.0, max_ratio = 0.0;
    parallel_for(kTrials, [&](std::size_t trial) {
      Prng rng(bench::kSeed + trial * 7919 +
               static_cast<std::uint64_t>(&f - kFamilies));
      Instance inst;
      if (std::string(f.name) == "bursty") {
        inst = gen_bursty(rng, 3, 4, 25, 8, 1);
      } else if (f.feasible_family) {
        inst = gen_feasible_one_interval(rng, f.n, f.horizon, f.window, 1);
      } else {
        inst = gen_uniform_one_interval(rng, f.n, f.horizon, f.window, 1);
      }
      const BcdGapResult opt = solve_bcd_gap(inst);
      if (!opt.feasible) return;
      const FhknResult grd = fhkn_greedy(inst);
      const double ratio = static_cast<double>(grd.transitions) /
                           static_cast<double>(opt.transitions);
      std::lock_guard<std::mutex> lk(mu);
      ++feasible;
      sum_ratio += ratio;
      max_ratio = std::max(max_ratio, ratio);
      if (grd.transitions == opt.transitions) ++optimal;
    });
    table.row()
        .add(f.name)
        .add(kTrials)
        .add(feasible)
        .add(feasible ? sum_ratio / feasible : 0.0, 3)
        .add(max_ratio, 3)
        .add(feasible ? 100.0 * optimal / feasible : 0.0, 1);
  }
  bench::emit(argv[0], table);
  return 0;
}
