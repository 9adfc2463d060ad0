#include "gapsched/core/transforms.hpp"

#include <algorithm>
#include <cassert>
#include <iterator>

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

/// Rewrites every job's intervals through `map` (a per-live-interval time
/// map that preserves interval lengths, so only each interval's lo needs
/// mapping).
template <typename MapLo>
std::vector<Job> map_jobs(const Instance& inst, MapLo&& map_lo) {
  std::vector<Job> out;
  out.reserve(inst.n());
  for (const Job& j : inst.jobs) {
    std::vector<Interval> mapped;
    mapped.reserve(j.allowed.interval_count());
    for (const Interval& iv : j.allowed.intervals()) {
      const Time lo = map_lo(iv.lo);
      mapped.push_back({lo, lo + iv.length() - 1});
    }
    out.push_back(Job{TimeSet(std::move(mapped))});
  }
  return out;
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
  assert(cap >= 1 && "dead runs cannot shrink below one unit");
  CompressedInstance out;
  out.instance.processors = inst.processors;
  if (inst.n() == 0) return out;

  const TimeSet live = inst.live_times();

  // Lay live intervals out left to right, truncating each interior dead run
  // of length d to min(d, cap) units.
  out.original_intervals = live.intervals();
  out.compressed_intervals.reserve(live.interval_count());
  Time cursor = 0;
  Time prev_hi = 0;
  bool first = true;
  for (const Interval& iv : live.intervals()) {
    if (!first) {
      cursor += std::min<Time>(iv.lo - prev_hi - 1, cap);
    }
    out.compressed_intervals.push_back({cursor, cursor + iv.length() - 1});
    cursor += iv.length();
    prev_hi = iv.hi;
    first = false;
  }

  out.instance.jobs =
      map_jobs(inst, [&](Time lo) { return out.to_compressed(lo); });
  return out;
}

Instance stretch_dead_time(const Instance& inst, Time k, Time min_run) {
  assert(k >= 1 && "dilation factor must be at least 1");
  Instance out;
  out.processors = inst.processors;
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

  out.jobs = map_jobs(
      inst, [&](Time lo) { return remap(live.intervals(), stretched, lo); });
  return out;
}

}  // namespace gapsched
