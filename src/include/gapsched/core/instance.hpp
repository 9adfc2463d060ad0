#pragma once
// Job and Instance: the scheduling inputs shared by every algorithm.

#include <cstddef>
#include <string>
#include <vector>

#include "gapsched/core/timeset.hpp"

namespace gapsched {

/// A unit-processing-time job with its allowed execution times.
struct Job {
  TimeSet allowed;

  /// Release time a_i (earliest allowed time). Requires non-empty allowed.
  Time release() const { return allowed.min(); }
  /// Deadline d_i (latest allowed time). Requires non-empty allowed.
  Time deadline() const { return allowed.max(); }
};

/// A scheduling instance: n unit jobs on p identical processors.
/// p = 1 gives the single-processor problems of Sections 3-6; p > 1 with
/// one-interval jobs is the Section 2 multiprocessor problem.
struct Instance {
  std::vector<Job> jobs;
  int processors = 1;

  std::size_t n() const { return jobs.size(); }

  /// True iff every job's allowed set is one contiguous [a, d] window
  /// (the classic arrival/deadline model required by the Theorem 1 DP).
  bool is_one_interval() const;

  /// True iff every job's allowed set is a union of singleton times.
  bool is_unit_points() const;

  /// Maximum number of allowed intervals over all jobs (the "k" in
  /// k-interval gap scheduling).
  std::size_t max_intervals_per_job() const;

  /// Earliest release over all jobs. Requires n >= 1.
  Time earliest_release() const;
  /// Latest deadline over all jobs. Requires n >= 1.
  Time latest_deadline() const;

  /// The maximal intervals of every job's allowed times, normalized: one
  /// merge over all intervals, sorted first unless they already come in
  /// start order (release-sorted one-interval jobs). They are the live
  /// regions; the times between them are dead (no job can use them).
  std::vector<Interval> live_intervals() const;
  /// The same union as a set.
  TimeSet live_times() const { return TimeSet(live_intervals()); }

  /// Basic well-formedness: >=1 processor, every job has a non-empty
  /// allowed set. Returns an empty string when OK, else a diagnostic.
  std::string validate() const;

  /// Convenience builder for one-interval jobs.
  static Instance one_interval(
      const std::vector<std::pair<Time, Time>>& windows, int processors = 1);
};

}  // namespace gapsched
