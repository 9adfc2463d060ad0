#include "gapsched/core/transforms.hpp"

#include <algorithm>
#include <cassert>
#include <iterator>
#include <utility>

namespace gapsched {

namespace {

/// Maps `t` from the interval of `from` (sorted, disjoint) that contains it
/// to the same offset in the matching interval of `to`. The interval *hint
/// names (the previous call's) and its successor are tried before one
/// binary search; *hint keeps the interval found.
Time remap(std::span<const Interval> from, std::span<const Interval> to,
           Time t, std::size_t* hint) {
  if (from.empty()) return t;  // empty maps are the identity
  std::size_t i = *hint;
  if (i >= from.size() || !from[i].contains(t)) {
    if (i + 1 < from.size() && from[i + 1].contains(t)) {
      ++i;
    } else {
      // The last interval starting at or before t is the only candidate.
      const auto after = std::upper_bound(
          from.begin(), from.end(), t,
          [](Time v, const Interval& iv) { return v < iv.lo; });
      if (after == from.begin() || std::prev(after)->hi < t) {
        assert(false && "time is not in any allowed interval");
        return t;
      }
      i = static_cast<std::size_t>(after - from.begin()) - 1;
    }
    *hint = i;
  }
  return to[i].lo + (t - from[i].lo);
}

/// True when the allowed intervals, read in job order, start at time 0,
/// come in non-decreasing start order and leave no dead run longer than
/// `cap`: the compression map is then the identity. One sweep, no
/// allocation; release-sorted one-interval jobs (every prep component) are
/// always decided, and intervals out of start order answer false, which
/// only means "not decided here".
bool already_compressed(const Instance& inst, Time cap) {
  bool first = true;
  Time last_lo = 0;
  Time reach = 0;  // the largest time the union covers so far
  for (const Job& job : inst.jobs) {
    for (const Interval& iv : job.allowed.intervals()) {
      if (first ? iv.lo != 0 : iv.lo < last_lo) return false;
      if (!first && iv.lo - reach - 1 > cap) return false;
      first = false;
      last_lo = iv.lo;
      reach = std::max(reach, iv.hi);
    }
  }
  return true;
}

}  // namespace

Time CompressedInstance::to_original(Time compressed) const {
  std::size_t hint = 0;
  return to_original(compressed, &hint);
}

Time CompressedInstance::to_original(Time compressed,
                                     std::size_t* hint) const {
  return remap(compressed_intervals, original_intervals, compressed, hint);
}

Time CompressedInstance::to_compressed(Time original) const {
  std::size_t hint = 0;
  return to_compressed(original, &hint);
}

Time CompressedInstance::to_compressed(Time original,
                                       std::size_t* hint) const {
  return remap(original_intervals, compressed_intervals, original, hint);
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
  if (out.original_intervals.empty() && copy.n() > 0) {
    // The identity: both maps are the live intervals themselves.
    out.original_intervals = copy.live_intervals();
    out.compressed_intervals = out.original_intervals;
  }
  out.instance = std::move(copy);
  return out;
}

CompressedInstance compress_dead_time_capped_in_place(Instance& inst,
                                                      Time cap) {
  assert(cap >= 1 && "dead runs cannot shrink below one unit");
  CompressedInstance out;
  if (already_compressed(inst, cap)) return out;

  // Lay live intervals out left to right, truncating each interior dead run
  // of length d to min(d, cap) units. For release-sorted one-interval jobs
  // (every prep component) the union is one linear merge: the intervals
  // already come in start order.
  out.original_intervals = inst.live_intervals();
  out.compressed_intervals.reserve(out.original_intervals.size());
  Time cursor = 0;
  Time prev_hi = 0;
  bool first = true;
  bool moved = false;
  for (const Interval& iv : out.original_intervals) {
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
  // the map is the identity, returned as empty maps, and `inst` is left as
  // it is. Otherwise each start is looked up from the live interval the
  // previous one fell in, which for release-sorted jobs is that interval or
  // the next.
  if (!moved) return CompressedInstance{};
  std::size_t hint = 0;
  const auto map_lo = [&](Time lo) { return out.to_compressed(lo, &hint); };
  for (Job& j : inst.jobs) j.allowed.remap_starts(map_lo);
  return out;
}

Instance stretch_dead_time(const Instance& inst, Time k, Time min_run) {
  assert(k >= 1 && "dilation factor must be at least 1");
  Instance out = inst;
  if (inst.n() == 0) return out;

  const std::vector<Interval> live = inst.live_intervals();

  // Each live interval's image: the origin is preserved, and each interior
  // dead run of length d >= min_run grows to k * d.
  std::vector<Interval> stretched;
  stretched.reserve(live.size());
  Time cursor = live.front().lo;
  Time prev_hi = 0;
  bool first = true;
  for (const Interval& iv : live) {
    if (!first) {
      const Time dead = iv.lo - prev_hi - 1;
      cursor += dead >= min_run ? dead * k : dead;
    }
    stretched.push_back({cursor, cursor + iv.length() - 1});
    cursor += iv.length();
    prev_hi = iv.hi;
    first = false;
  }

  std::size_t hint = 0;
  const auto map_lo = [&](Time lo) {
    return remap(live, stretched, lo, &hint);
  };
  for (Job& j : out.jobs) j.allowed.remap_starts(map_lo);
  return out;
}

}  // namespace gapsched
