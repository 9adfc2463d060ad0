#include "gapsched/core/timeset.hpp"

#include <algorithm>
#include <cassert>

namespace gapsched {

TimeSet::TimeSet(std::vector<Interval> intervals)
    : intervals_(std::move(intervals)) {
  normalize();
}

TimeSet::TimeSet(std::initializer_list<Interval> intervals)
    : intervals_(intervals) {
  normalize();
}

TimeSet TimeSet::window(Time a, Time d) {
  assert(a <= d && "window requires release <= deadline");
  return TimeSet({Interval{a, d}});
}

TimeSet TimeSet::points(const std::vector<Time>& times) {
  std::vector<Interval> ivs;
  ivs.reserve(times.size());
  for (Time t : times) ivs.push_back({t, t});
  return TimeSet(std::move(ivs));
}

void TimeSet::normalize() {
  std::erase_if(intervals_, [](const Interval& iv) { return iv.empty(); });
  const auto by_start = [](const Interval& a, const Interval& b) {
    return a.lo < b.lo;
  };
  if (!std::is_sorted(intervals_.begin(), intervals_.end(), by_start)) {
    std::sort(intervals_.begin(), intervals_.end(), by_start);
  }
  // Merge overlapping and adjacent neighbours in place: [0, kept) is the
  // normalized prefix.
  std::size_t kept = 0;
  for (const Interval& iv : intervals_) {
    if (kept > 0 && iv.lo <= intervals_[kept - 1].hi + 1) {
      intervals_[kept - 1].hi = std::max(intervals_[kept - 1].hi, iv.hi);
    } else {
      intervals_[kept++] = iv;
    }
  }
  intervals_.resize(kept);
}

std::int64_t TimeSet::size() const {
  std::int64_t total = 0;
  for (const Interval& iv : intervals_) total += iv.length();
  return total;
}

bool TimeSet::is_unit_points() const {
  if (intervals_.empty()) return false;
  return std::all_of(intervals_.begin(), intervals_.end(),
                     [](const Interval& iv) { return iv.lo == iv.hi; });
}

bool TimeSet::contains(Time t) const {
  // First interval with hi >= t; contains t iff its lo <= t.
  auto it = std::lower_bound(
      intervals_.begin(), intervals_.end(), t,
      [](const Interval& iv, Time v) { return iv.hi < v; });
  return it != intervals_.end() && it->lo <= t;
}

TimeSet TimeSet::intersect(const TimeSet& other) const {
  std::vector<Interval> out;
  std::size_t i = 0, j = 0;
  while (i < intervals_.size() && j < other.intervals_.size()) {
    const Interval& a = intervals_[i];
    const Interval& b = other.intervals_[j];
    Interval cut{std::max(a.lo, b.lo), std::min(a.hi, b.hi)};
    if (!cut.empty()) out.push_back(cut);
    if (a.hi < b.hi) {
      ++i;
    } else {
      ++j;
    }
  }
  return TimeSet(std::move(out));
}

TimeSet TimeSet::restricted_to(Interval window) const {
  if (window.empty()) return TimeSet{};
  return intersect(TimeSet({window}));
}

TimeSet TimeSet::subtract(const TimeSet& other) const {
  std::vector<Interval> out;
  std::size_t j = 0;
  for (Interval cur : intervals_) {
    // Walk the subtrahend intervals overlapping `cur`, carving pieces off.
    while (j < other.intervals_.size() && other.intervals_[j].hi < cur.lo) {
      ++j;
    }
    std::size_t jj = j;
    while (!cur.empty() && jj < other.intervals_.size() &&
           other.intervals_[jj].lo <= cur.hi) {
      const Interval& cut = other.intervals_[jj];
      if (cut.lo > cur.lo) out.push_back({cur.lo, cut.lo - 1});
      cur.lo = std::max(cur.lo, cut.hi + 1);
      ++jj;
    }
    if (!cur.empty()) out.push_back(cur);
  }
  return TimeSet(std::move(out));
}

TimeSet TimeSet::unite(const TimeSet& other) const {
  std::vector<Interval> all = intervals_;
  all.insert(all.end(), other.intervals_.begin(), other.intervals_.end());
  return TimeSet(std::move(all));
}

TimeSet TimeSet::shifted(Time delta) const {
  TimeSet out = *this;
  out.shift(delta);
  return out;
}

std::vector<Time> TimeSet::to_vector() const {
  std::vector<Time> out;
  out.reserve(static_cast<std::size_t>(size()));
  for (const Interval& iv : intervals_) {
    for (Time t = iv.lo; t <= iv.hi; ++t) out.push_back(t);
  }
  return out;
}

}  // namespace gapsched
