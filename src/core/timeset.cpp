#include "gapsched/core/timeset.hpp"

#include <algorithm>
#include <cassert>
#include <memory>

namespace gapsched {

void normalize_intervals(std::vector<Interval>& intervals) {
  std::erase_if(intervals, [](const Interval& iv) { return iv.empty(); });
  const auto by_start = [](const Interval& a, const Interval& b) {
    return a.lo < b.lo;
  };
  if (!std::is_sorted(intervals.begin(), intervals.end(), by_start)) {
    std::sort(intervals.begin(), intervals.end(), by_start);
  }
  // Merge overlapping and adjacent neighbours in place: [0, kept) is the
  // normalized prefix. iv.lo > prev.hi >= INT64_MIN makes iv.lo - 1 safe,
  // so the adjacency test cannot overflow at either end of the range.
  std::size_t kept = 0;
  for (const Interval& iv : intervals) {
    if (kept > 0) {
      Interval& prev = intervals[kept - 1];
      if (iv.lo <= prev.hi || iv.lo - 1 == prev.hi) {
        prev.hi = std::max(prev.hi, iv.hi);
        continue;
      }
    }
    intervals[kept++] = iv;
  }
  intervals.resize(kept);
}

TimeSet::TimeSet(std::vector<Interval> intervals) : TimeSet() {
  normalize_intervals(intervals);
  adopt(intervals);
}

TimeSet::TimeSet(std::initializer_list<Interval> intervals)
    : TimeSet(std::vector<Interval>(intervals)) {}

TimeSet::TimeSet(const TimeSet& other) : TimeSet() { adopt(other.intervals()); }

TimeSet& TimeSet::operator=(const TimeSet& other) {
  if (this != &other) {
    release();
    adopt(other.intervals());
  }
  return *this;
}

TimeSet& TimeSet::operator=(TimeSet&& other) noexcept {
  if (this != &other) {
    release();
    steal(other);
  }
  return *this;
}

void TimeSet::adopt(std::span<const Interval> ivs) {
  assert(count_ <= 1 && "adopt requires no heap array held");
  if (ivs.size() <= 1) {
    one_ = ivs.empty() ? Interval{} : ivs.front();
  } else {
    heap_ = std::allocator<Interval>().allocate(ivs.size());
    std::uninitialized_copy(ivs.begin(), ivs.end(), heap_);
  }
  count_ = ivs.size();
}

void TimeSet::release() noexcept {
  if (count_ > 1) std::allocator<Interval>().deallocate(heap_, count_);
  count_ = 0;
}

TimeSet TimeSet::window(Time a, Time d) {
  assert(a <= d && "window requires release <= deadline");
  return TimeSet(Interval{a, d});
}

TimeSet TimeSet::points(const std::vector<Time>& times) {
  std::vector<Interval> ivs;
  ivs.reserve(times.size());
  for (Time t : times) ivs.push_back({t, t});
  return TimeSet(std::move(ivs));
}

std::int64_t TimeSet::size() const {
  std::int64_t total = 0;
  for (const Interval& iv : intervals()) total += iv.length();
  return total;
}

bool TimeSet::is_unit_points() const {
  const std::span<const Interval> ivs = intervals();
  if (ivs.empty()) return false;
  return std::all_of(ivs.begin(), ivs.end(),
                     [](const Interval& iv) { return iv.lo == iv.hi; });
}

bool TimeSet::contains(Time t) const {
  // First interval with hi >= t; contains t iff its lo <= t.
  const std::span<const Interval> ivs = intervals();
  auto it = std::lower_bound(
      ivs.begin(), ivs.end(), t,
      [](const Interval& iv, Time v) { return iv.hi < v; });
  return it != ivs.end() && it->lo <= t;
}

TimeSet TimeSet::intersect(const TimeSet& other) const {
  const std::span<const Interval> mine = intervals();
  const std::span<const Interval> theirs = other.intervals();
  std::vector<Interval> out;
  std::size_t i = 0, j = 0;
  while (i < mine.size() && j < theirs.size()) {
    const Interval& a = mine[i];
    const Interval& b = theirs[j];
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
  return intersect(TimeSet(window));
}

TimeSet TimeSet::subtract(const TimeSet& other) const {
  const std::span<const Interval> cuts = other.intervals();
  std::vector<Interval> out;
  std::size_t j = 0;
  for (Interval cur : intervals()) {
    // Walk the subtrahend intervals overlapping `cur`, carving pieces off.
    while (j < cuts.size() && cuts[j].hi < cur.lo) ++j;
    std::size_t jj = j;
    while (!cur.empty() && jj < cuts.size() && cuts[jj].lo <= cur.hi) {
      const Interval& cut = cuts[jj];
      if (cut.lo > cur.lo) out.push_back({cur.lo, cut.lo - 1});
      // cut.hi < cur.hi here keeps cut.hi + 1 from overflowing.
      cur = cut.hi >= cur.hi ? Interval{}
                             : Interval{std::max(cur.lo, cut.hi + 1), cur.hi};
      ++jj;
    }
    if (!cur.empty()) out.push_back(cur);
  }
  return TimeSet(std::move(out));
}

TimeSet TimeSet::unite(const TimeSet& other) const {
  std::vector<Interval> all;
  all.reserve(count_ + other.count_);
  all.insert(all.end(), intervals().begin(), intervals().end());
  all.insert(all.end(), other.intervals().begin(), other.intervals().end());
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
  for (const Interval& iv : intervals()) {
    for (Time t = iv.lo; t <= iv.hi; ++t) out.push_back(t);
  }
  return out;
}

bool TimeSet::operator==(const TimeSet& other) const {
  return std::ranges::equal(intervals(), other.intervals());
}

}  // namespace gapsched
