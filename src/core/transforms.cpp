#include "gapsched/core/transforms.hpp"

#include <algorithm>
#include <cassert>
#include <iterator>
#include <utility>

namespace gapsched {

namespace {

/// Maps `t` from the interval of `from` (sorted, disjoint) that contains it
/// to the same offset in the matching interval of `to`: one binary search.
Time remap(const std::vector<Interval>& from, const std::vector<Interval>& to,
           Time t) {
  // The last interval starting at or before t is the only candidate.
  const auto after = std::upper_bound(
      from.begin(), from.end(), t,
      [](Time v, const Interval& iv) { return v < iv.lo; });
  if (after == from.begin() || std::prev(after)->hi < t) {
    assert(false && "time is not in any allowed interval");
    return t;
  }
  const auto i = static_cast<std::size_t>(after - from.begin()) - 1;
  return to[i].lo + (t - from[i].lo);
}

}  // namespace

Time CompressedInstance::to_original(Time compressed) const {
  return remap(compressed_intervals, original_intervals, compressed);
}

Time CompressedInstance::to_compressed(Time original) const {
  return remap(original_intervals, compressed_intervals, original);
}

Time CompressedInstance::dead_time_removed() const {
  if (original_intervals.empty()) return 0;
  const Time original_span =
      original_intervals.back().hi - original_intervals.front().lo;
  const Time compressed_span =
      compressed_intervals.back().hi - compressed_intervals.front().lo;
  return original_span - compressed_span;
}

CompressedInstance compress_dead_time(const Instance& inst) {
  return compress_dead_time_capped(inst, 1);
}

CompressedInstance compress_dead_time_capped(const Instance& inst, Time cap) {
  Instance copy = inst;
  CompressedInstance out = compress_dead_time_capped_in_place(copy, cap);
  out.instance = std::move(copy);
  return out;
}

CompressedInstance compress_dead_time_capped_in_place(Instance& inst,
                                                      Time cap) {
  assert(cap >= 1 && "dead runs cannot shrink below one unit");
  CompressedInstance out;
  if (inst.n() == 0) return out;

  const TimeSet live = inst.live_times();

  // Lay live intervals out left to right, truncating each interior dead run
  // of length d to min(d, cap) units.
  out.original_intervals = live.intervals();
  out.compressed_intervals.reserve(live.interval_count());
  Time cursor = 0;
  Time prev_hi = 0;
  bool first = true;
  bool moved = false;
  for (const Interval& iv : live.intervals()) {
    if (!first) {
      cursor += std::min<Time>(iv.lo - prev_hi - 1, cap);
    }
    moved = moved || cursor != iv.lo;
    out.compressed_intervals.push_back({cursor, cursor + iv.length() - 1});
    cursor += iv.length();
    prev_hi = iv.hi;
    first = false;
  }

  // With the origin at 0 and no run over the cap no live interval moved:
  // the map is the identity and `inst` is left as it is.
  if (moved) {
    const auto map_lo = [&](Time lo) { return out.to_compressed(lo); };
    for (Job& j : inst.jobs) j.allowed.remap_starts(map_lo);
  }
  return out;
}

Instance stretch_dead_time(const Instance& inst, Time k, Time min_run) {
  assert(k >= 1 && "dilation factor must be at least 1");
  Instance out = inst;
  if (inst.n() == 0) return out;

  const TimeSet live = inst.live_times();

  // Each live interval's image: the origin is preserved, and each interior
  // dead run of length d >= min_run grows to k * d.
  std::vector<Interval> stretched;
  stretched.reserve(live.interval_count());
  Time cursor = live.min();
  Time prev_hi = 0;
  bool first = true;
  for (const Interval& iv : live.intervals()) {
    if (!first) {
      const Time dead = iv.lo - prev_hi - 1;
      cursor += dead >= min_run ? dead * k : dead;
    }
    stretched.push_back({cursor, cursor + iv.length() - 1});
    cursor += iv.length();
    prev_hi = iv.hi;
    first = false;
  }

  const auto map_lo = [&](Time lo) {
    return remap(live.intervals(), stretched, lo);
  };
  for (Job& j : out.jobs) j.allowed.remap_starts(map_lo);
  return out;
}

}  // namespace gapsched
