// F4 — the online lower bound (Section 1).
// Paper claim: any online algorithm guaranteed to find feasible schedules
// has competitive ratio >= n for gap scheduling: on the adversarial family
// it must start the n loose jobs immediately, paying Theta(n) spans, while
// the offline optimum interleaves them with the tight comb in O(1) spans.
// Protocol: n sweep of the paper's family; report online vs offline
// transitions and their ratio. Shape: ratio grows linearly in n.

#include "bench_common.hpp"

#include "gapsched/bcd/bcd.hpp"
#include "gapsched/gen/generators.hpp"
#include "gapsched/online/online_edf.hpp"

using namespace gapsched;

int main(int, char** argv) {
  bench::banner("F4 (online Omega(n) lower bound)",
                "online/offline transition ratio grows linearly in n");

  Table table({"n", "jobs", "online_transitions", "offline_transitions",
               "ratio", "ratio/n"});

  for (std::size_t n : {4, 6, 8, 10, 12, 14, 16}) {
    Instance inst = gen_online_adversarial(n);
    const OnlineResult online = online_edf(inst);
    const BcdGapResult offline = solve_bcd_gap(inst);
    const double ratio = static_cast<double>(online.transitions) /
                         static_cast<double>(offline.transitions);
    table.row()
        .add(n)
        .add(inst.n())
        .add(online.transitions)
        .add(offline.transitions)
        .add(ratio, 2)
        .add(ratio / static_cast<double>(n), 3);
  }
  bench::emit(argv[0], table);
  return 0;
}
