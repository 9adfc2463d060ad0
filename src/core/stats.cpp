#include "gapsched/core/stats.hpp"

#include <algorithm>

namespace gapsched {

InstanceStats compute_stats(const Instance& inst) {
  InstanceStats s;
  s.jobs = inst.n();
  s.processors = inst.processors;
  if (inst.n() == 0) return s;

  s.horizon = inst.latest_deadline() - inst.earliest_release() + 1;
  double slack_sum = 0.0;
  std::size_t pinned = 0;
  for (const Job& j : inst.jobs) {
    const std::int64_t slack = j.allowed.size() - 1;
    slack_sum += static_cast<double>(slack);
    s.max_slack = std::max(s.max_slack, slack);
    if (slack == 0) ++pinned;
    s.max_intervals = std::max(s.max_intervals, j.allowed.interval_count());
  }
  s.live_time = inst.live_times().size();
  s.mean_slack = slack_sum / static_cast<double>(inst.n());
  s.pinned_fraction =
      static_cast<double>(pinned) / static_cast<double>(inst.n());
  s.contention = static_cast<double>(inst.n()) /
                 (static_cast<double>(s.live_time) *
                  static_cast<double>(inst.processors));
  return s;
}

}  // namespace gapsched
