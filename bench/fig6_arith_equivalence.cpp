// F6 — Section 2's equivalence: p-processor scheduling == single-processor
// multi-interval scheduling with homogeneous arithmetic intervals.
// Paper claim: laying the processors' timelines end to end (period longer
// than the horizon) turns a window [a, d] into the arithmetic progression
// [a, d], [a+x, d+x], ..., preserving the gap structure exactly.
// Protocol: random multiprocessor instances; compare the Theorem 1 DP on
// the original against the exact brute force on the embedded instance, and
// unembed the schedule back. Shape: equality on 100%; the DP is the far
// cheaper route.

#include "bench_common.hpp"

#include <mutex>

#include "gapsched/dp/gap_dp.hpp"
#include "gapsched/exact/brute_force.hpp"
#include "gapsched/gen/generators.hpp"
#include "gapsched/reductions/arithmetic_embedding.hpp"

using namespace gapsched;

int main(int, char** argv) {
  bench::banner("F6 (Section 2: arithmetic-interval equivalence)",
                "embedded optimum == multiprocessor optimum on 100%");

  constexpr int kTrials = 30;
  Table table({"p", "trials", "equal", "unembed_valid", "dp_ms_mean",
               "embedded_bf_ms_mean"});
  std::mutex mu;

  for (int p : {2, 3, 4}) {
    int equal = 0, valid = 0, used = 0;
    double dp_ms = 0.0, bf_ms = 0.0;
    parallel_for(kTrials, [&](std::size_t trial) {
      Prng rng(bench::kSeed + trial * 613 + static_cast<std::uint64_t>(p));
      Instance inst = gen_feasible_one_interval(rng, 7, 9, 2, p);
      ArithmeticEmbedding emb = embed_multiprocessor(inst);

      Stopwatch sw1;
      const GapDpResult dp = solve_gap_dp(inst);
      const double t1 = sw1.millis();
      Stopwatch sw2;
      const ExactGapResult bf = brute_force_min_transitions(emb.embedded);
      const double t2 = sw2.millis();

      std::lock_guard<std::mutex> lk(mu);
      ++used;
      dp_ms += t1;
      bf_ms += t2;
      if (dp.feasible && bf.feasible && dp.transitions == bf.transitions) {
        ++equal;
        Schedule back = emb.unembed_schedule(bf.schedule);
        if (back.validate(inst).empty() &&
            back.per_processor_transitions(inst) == bf.transitions) {
          ++valid;
        }
      }
    });
    table.row()
        .add(p)
        .add(used)
        .add(std::to_string(equal) + "/" + std::to_string(used))
        .add(std::to_string(valid) + "/" + std::to_string(used))
        .add(used ? dp_ms / used : 0.0, 2)
        .add(used ? bf_ms / used : 0.0, 2);
  }
  bench::emit(argv[0], table);
  return 0;
}
