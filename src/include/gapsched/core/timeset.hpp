#pragma once
// TimeSet: the set of integer times at which a unit job may execute,
// represented as a sorted list of disjoint, inclusive intervals.
//
// This is the paper's `T_i` (Sections 3, 5, 6). One-interval jobs (Section 2)
// are the special case of a single [release, deadline] interval; "k-unit"
// jobs (Section 5) are k singleton intervals.
//
// Layout: 24 bytes, a union of one inline Interval and a pointer to an
// exact-size heap array, plus the interval count. A set of zero or one
// interval (every Section 2 job) holds it inline and never allocates; a
// second interval moves the set to the heap array. Unlike a vector's
// elements, a one-interval set's intervals live inside the set object, so a
// span from intervals() is invalidated when its set is moved or destroyed:
// a Job moved by a growing std::vector<Job>, or moved out of its instance,
// takes its interval with it.

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <span>
#include <string_view>
#include <vector>

namespace gapsched {

/// Discrete time. Times may be as large as the Theorem 4 reduction's n^3
/// spacing requires, hence 64-bit.
using Time = std::int64_t;

/// Inclusive integer interval [lo, hi]. Empty iff lo > hi.
struct Interval {
  Time lo = 0;
  Time hi = -1;

  bool empty() const { return lo > hi; }
  /// Number of integer points in the interval (0 when empty).
  std::int64_t length() const { return empty() ? 0 : hi - lo + 1; }
  bool contains(Time t) const { return lo <= t && t <= hi; }
  bool operator==(const Interval&) const = default;
};

/// Largest accepted magnitude of a job's interval ends: 2^61. Both instance
/// readers refuse a time past it while parsing, and Instance::validate()
/// refuses it in every request. The difference of two such times is at
/// most 2^62, and the solvers add to a time or a difference at most the
/// Prop 2.1 margin n + 1 or a compressed dead run min(run, cap), never
/// longer than the run itself; every such sum stays below 2^63 in
/// magnitude, so none of them overflows int64.
inline constexpr Time kMaxTime = Time{1} << 61;

/// True when both ends of `iv` lie within [-kMaxTime, kMaxTime].
constexpr bool in_time_range(Interval iv) {
  return -kMaxTime <= iv.lo && iv.lo <= kMaxTime && -kMaxTime <= iv.hi &&
         iv.hi <= kMaxTime;
}

/// The diagnostic for an interval end outside that range.
inline constexpr std::string_view kTimeRangeError =
    "interval time outside [-2^61, 2^61]";

/// Sorts `intervals` by start, drops the empty ones and merges overlapping
/// and adjacent neighbours, in place: the normal form a TimeSet holds.
void normalize_intervals(std::vector<Interval>& intervals);

/// Union of disjoint inclusive intervals, normalized (sorted, non-adjacent,
/// non-empty). The set operations return new sets; shift() and
/// remap_starts() rewrite the intervals in place and keep the normal form
/// without re-normalizing.
class TimeSet {
 public:
  TimeSet() noexcept : one_{}, count_(0) {}

  /// The one-interval set `iv`, or the empty set when `iv` is empty.
  /// Never allocates.
  explicit TimeSet(Interval iv) noexcept
      : one_(iv), count_(iv.empty() ? 0 : 1) {}

  /// Builds from arbitrary (possibly overlapping, unsorted) intervals;
  /// empty intervals are dropped and adjacent/overlapping ones merged.
  explicit TimeSet(std::vector<Interval> intervals);
  TimeSet(std::initializer_list<Interval> intervals);

  TimeSet(const TimeSet& other);
  /// Leaves `other` empty.
  TimeSet(TimeSet&& other) noexcept : TimeSet() { steal(other); }
  TimeSet& operator=(const TimeSet& other);
  /// Leaves `other` empty (a self-move leaves the set as it was).
  TimeSet& operator=(TimeSet&& other) noexcept;
  ~TimeSet() { release(); }

  /// Single window [a, d]; the one-interval job shape. Requires a <= d.
  static TimeSet window(Time a, Time d);

  /// Set of singleton times (need not be sorted or distinct).
  static TimeSet points(const std::vector<Time>& times);

  bool empty() const { return count_ == 0; }
  /// Number of integer times in the set.
  std::int64_t size() const;
  /// Number of maximal intervals ("k" in the paper's k-interval problems).
  std::size_t interval_count() const { return count_; }
  /// True iff the set is one contiguous interval.
  bool is_single_interval() const { return count_ == 1; }
  /// True iff every interval is an isolated single point. Note this is a
  /// representation-level check: adjacent unit times merge during
  /// normalization ({3} u {4} becomes [3,4]), so the paper's "k-unit job"
  /// property is the semantic size() <= k, not this predicate.
  bool is_unit_points() const;

  bool contains(Time t) const;
  /// Earliest allowed time. Requires non-empty.
  Time min() const { return data()[0].lo; }
  /// Latest allowed time. Requires non-empty.
  Time max() const { return data()[count_ - 1].hi; }

  /// The maximal intervals in increasing order. Valid until the set is
  /// modified, moved or destroyed.
  std::span<const Interval> intervals() const { return {data(), count_}; }

  /// Set intersection.
  TimeSet intersect(const TimeSet& other) const;
  /// Intersection with one interval.
  TimeSet restricted_to(Interval window) const;
  /// Set difference (this \ other).
  TimeSet subtract(const TimeSet& other) const;
  /// Set union.
  TimeSet unite(const TimeSet& other) const;
  /// The whole set shifted by delta: a copy followed by shift().
  TimeSet shifted(Time delta) const;

  /// Shifts the whole set by delta in place.
  void shift(Time delta) {
    remap_starts([delta](Time lo) { return lo + delta; });
  }

  /// Moves every interval [lo, hi] to [f(lo), f(lo) + hi - lo] in place.
  /// Requires f strictly increasing and the moved intervals to stay
  /// non-adjacent (f(lo) > the previous moved hi + 1), so the set stays
  /// normalized; the length-preserving time maps of core/transforms
  /// satisfy both.
  template <typename F>
  void remap_starts(F&& f) {
    Interval* ivs = data();
    for (std::size_t i = 0; i < count_; ++i) {
      Interval& iv = ivs[i];
      const Time lo = f(iv.lo);
      assert((i == 0 || lo > ivs[i - 1].hi + 1) &&
             "remap_starts must keep intervals sorted and non-adjacent");
      iv.hi = lo + (iv.hi - iv.lo);
      iv.lo = lo;
    }
  }

  /// Enumerates every time in the set in increasing order. Only sensible for
  /// small sets; callers working with wide windows must iterate intervals.
  std::vector<Time> to_vector() const;

  bool operator==(const TimeSet& other) const;

 private:
  const Interval* data() const { return count_ > 1 ? heap_ : &one_; }
  Interval* data() { return count_ > 1 ? heap_ : &one_; }
  /// Holds the normalized `ivs`: inline for at most one interval, else in
  /// a new heap array of exactly ivs.size(). Requires no heap array held.
  void adopt(std::span<const Interval> ivs);
  /// Frees the heap array, if any; the set is then empty.
  void release() noexcept;
  /// Takes `other`'s intervals, heap array included, and leaves it empty.
  /// Requires this set empty.
  void steal(TimeSet& other) noexcept {
    if (other.count_ > 1) {
      heap_ = other.heap_;
    } else {
      one_ = other.one_;
    }
    count_ = other.count_;
    other.count_ = 0;
  }

  union {
    Interval one_;    // count_ <= 1
    Interval* heap_;  // count_ >= 2: exactly count_ intervals
  };
  std::size_t count_;
};

}  // namespace gapsched
