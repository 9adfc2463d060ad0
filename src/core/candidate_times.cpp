#include "gapsched/core/candidate_times.hpp"

#include <algorithm>

namespace gapsched {

std::vector<Time> candidate_times(const Instance& inst,
                                  bool plus_one_closure) {
  if (inst.n() == 0) return {};
  const auto n = static_cast<Time>(inst.n());

  // Prop 2.1 anchors: every interval endpoint of every job (releases and
  // deadlines in the one-interval case). Some optimal schedule runs every
  // job within distance n of SOME anchor — note: any job's anchor, not just
  // the job's own.
  std::vector<Interval> neighbourhoods;
  std::vector<Interval> allowed_union;
  for (const Job& j : inst.jobs) {
    for (const Interval& iv : j.allowed.intervals()) {
      neighbourhoods.push_back({iv.lo - (n + 1), iv.lo + (n + 1)});
      neighbourhoods.push_back({iv.hi - (n + 1), iv.hi + (n + 1)});
      allowed_union.push_back(iv);
    }
  }
  // A candidate is useful only if some job may run there.
  TimeSet core =
      TimeSet(std::move(neighbourhoods)).intersect(TimeSet(std::move(allowed_union)));

  if (plus_one_closure) {
    const Time horizon_max = inst.latest_deadline();
    std::vector<Interval> widened(core.intervals().begin(),
                                  core.intervals().end());
    for (Interval& iv : widened) iv.hi = std::min(iv.hi + 1, horizon_max);
    core = TimeSet(std::move(widened));
  }
  return core.to_vector();
}

}  // namespace gapsched
