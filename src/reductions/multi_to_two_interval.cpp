#include "gapsched/reductions/multi_to_two_interval.hpp"

#include <algorithm>

namespace gapsched {

TwoIntervalReduction reduce_multi_to_two_interval(const Instance& inst) {
  TwoIntervalReduction red;
  red.instance.processors = 1;
  if (inst.n() == 0) return red;

  // Extra blocks start two units after the whole original timeline so the
  // block's span can never merge with a normal span.
  Time cursor = inst.latest_deadline() + 3;
  const Time block_start = cursor;

  for (const Job& job : inst.jobs) {
    const std::span<const Interval> ivs = job.allowed.intervals();
    const std::size_t k = ivs.size();
    if (k <= 2) {
      red.instance.jobs.push_back(job);
      continue;
    }
    red.has_extra_block = true;
    const Interval extra{cursor, cursor + 2 * static_cast<Time>(k) - 2};
    // k dummy jobs pinned at the odd positions 1, 3, ..., 2k-1 (offsets
    // 0, 2, ..., 2k-2 from the block start).
    for (std::size_t i = 0; i < k; ++i) {
      const Time pos = extra.lo + 2 * static_cast<Time>(i);
      red.instance.jobs.push_back(Job{TimeSet({{pos, pos}})});
    }
    // Replacement job r_i: I_i or anywhere in the extra interval.
    for (std::size_t i = 0; i < k; ++i) {
      red.instance.jobs.push_back(Job{TimeSet({ivs[i], extra})});
    }
    cursor = extra.hi + 1;  // next block immediately adjacent
  }
  if (red.has_extra_block) red.extra_block = {block_start, cursor - 1};
  return red;
}

}  // namespace gapsched
