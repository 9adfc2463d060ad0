// T3 — [HS89] set-packing local-search ablation.
// Paper claim (Lemma 5): the quality of the k-set packing black box drives
// the Theorem 3 bound; Hurkens-Schrijver local search approaches k/2.
// Protocol: the same instances through swap sizes 0 (greedy maximal),
// 1 (1->2 swaps) and 2 (2->3 swaps); report packed pairs, final spans and
// final power. Shape: monotone improvement with swap size, at higher cost.

#include "bench_common.hpp"

#include <mutex>

#include "gapsched/gen/generators.hpp"
#include "gapsched/matching/feasibility.hpp"
#include "gapsched/powermin/powermin_approx.hpp"

using namespace gapsched;

int main(int, char** argv) {
  bench::banner("T3 ([HS89] swap-size ablation)",
                "packing size and final power improve monotonically with "
                "swap size");

  constexpr int kTrials = 30;
  constexpr double kAlpha = 4.0;

  Table table({"block_k", "swap_size", "trials", "mean_blocks",
               "mean_transitions", "mean_power", "mean_ms"});
  std::mutex mu;

  for (int block = 2; block <= 3; ++block) {
    for (int swap = 0; swap <= 2; ++swap) {
      int used = 0;
      double blocks = 0.0, spans = 0.0, power = 0.0, ms = 0.0;
      parallel_for(kTrials, [&](std::size_t trial) {
        Prng rng(bench::kSeed + trial * 42043);  // same instances per config
        Instance inst = gen_multi_interval(rng, 14, 40, 2, 2);
        if (!is_feasible(inst)) return;
        PowerMinApproxOptions opts;
        opts.swap_size = swap;
        opts.block_size = block;
        Stopwatch sw;
        const PowerMinApproxResult r = powermin_approx(inst, kAlpha, opts);
        const double elapsed = sw.millis();
        std::lock_guard<std::mutex> lk(mu);
        ++used;
        blocks += static_cast<double>(r.pairs_packed);
        spans += static_cast<double>(r.transitions);
        power += r.power;
        ms += elapsed;
      });
      table.row()
          .add(block)
          .add(swap)
          .add(used)
          .add(used ? blocks / used : 0.0, 2)
          .add(used ? spans / used : 0.0, 2)
          .add(used ? power / used : 0.0, 2)
          .add(used ? ms / used : 0.0, 2);
    }
  }
  bench::emit(argv[0], table);
  return 0;
}
