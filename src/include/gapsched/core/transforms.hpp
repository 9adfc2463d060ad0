#pragma once
// Objective-preserving instance transforms over dead time (times no job can
// ever use).

#include "gapsched/core/instance.hpp"
#include "gapsched/core/schedule.hpp"

namespace gapsched {

/// Result of compress_dead_time[_capped]: the compressed instance plus the
/// time map. compress_dead_time_capped_in_place leaves `instance` empty
/// (default-constructed): the compressed image is the caller's instance.
/// Empty maps are the identity: both maps send every time to itself.
struct CompressedInstance {
  Instance instance;
  /// Maps a compressed time back to the original time. Both maps are one
  /// binary search over the live intervals.
  Time to_original(Time compressed) const;
  /// Maps an original allowed time to its compressed time.
  Time to_compressed(Time original) const;
  /// The same maps for a run of nearby times: the search starts at *hint,
  /// the live interval the previous call found (0 at first), and its
  /// successor before any binary search, and *hint is updated.
  Time to_original(Time compressed, std::size_t* hint) const;
  Time to_compressed(Time original, std::size_t* hint) const;
  /// Total dead time units removed by the transform (0 when nothing was
  /// truncated, i.e. the instance was already in compressed form).
  Time dead_time_removed() const;
  /// True when the map moves no time: both maps are equal, or both empty.
  bool identity() const { return compressed_intervals == original_intervals; }

  /// The maximal intervals of the allowed-time union, in original and in
  /// compressed coordinates (index-aligned, sorted). Dead runs sit between
  /// them with length min(original run, cap) in compressed coordinates.
  std::vector<Interval> compressed_intervals;
  std::vector<Interval> original_intervals;
};

/// Shrinks every maximal "dead" run (times no job can use) to a single unit
/// and rebases the timeline at 0. No job can ever be scheduled in dead time,
/// so busy-time adjacency — and hence the transition/gap objective — is
/// preserved exactly. (Power objectives are NOT preserved at cap 1: idle-
/// bridging costs depend on real gap lengths; use compress_dead_time_capped
/// with cap >= ceil(alpha) + 1 instead.)
CompressedInstance compress_dead_time(const Instance& inst);

/// Length-aware variant: every interior dead run of length d shrinks to
/// min(d, cap) units (cap >= 1), and the timeline is rebased at 0.
///
/// With cap = ceil(alpha) + 1 the POWER objective is preserved exactly:
/// schedules of the original and compressed instances correspond one-to-one
/// (jobs can only occupy live times, which map bijectively), active time is
/// unchanged, and every idle run's bridge term min(gap, alpha) survives —
/// a gap is shortened only when it contains a truncated dead run, and a
/// truncated run alone already has compressed length cap > alpha, so the
/// gap sits at the min's alpha-saturated plateau on both sides of the map.
/// Gaps shorter than alpha are never touched (each of their dead runs is
/// < cap). cap = 1 degenerates to compress_dead_time and preserves only the
/// gap objective; cap = ceil(alpha) - 1 is genuinely unsound (a gap of
/// exactly ceil(alpha) compresses below alpha and its bridge term shrinks —
/// the fuzz harness pins this).
///
/// Compresses a copy of `inst` with the in-place form below. Its maps are
/// always the live intervals, also when the map is the identity.
CompressedInstance compress_dead_time_capped(const Instance& inst, Time cap);

/// In-place form of compress_dead_time_capped, the one implementation:
/// rewrites every job's interval starts in `inst` through the time map
/// (lengths are kept) and returns only the two interval maps, with an
/// empty `instance`. When the live union already starts at 0 and no
/// interior dead run exceeds the cap, the map is the identity: `inst` is
/// not touched and both maps come back empty. For intervals in start order
/// (release-sorted one-interval jobs, every prep component) that is found
/// by one sweep that allocates nothing.
CompressedInstance compress_dead_time_capped_in_place(Instance& inst,
                                                      Time cap);

/// Inverse-direction transform for metamorphic tests and the
/// `stretched:<k>` scenario wrapper: every interior dead run of length
/// >= min_run is dilated by the integer factor k (>= 1); shorter runs and
/// all live times keep their relative layout (the origin is preserved).
/// The gap objective is always invariant under this map, and the power
/// objective is invariant whenever min_run > alpha (dilated gaps stay on
/// the min(gap, alpha) plateau) — the exact inverse statement of the
/// capped-compression rule above.
Instance stretch_dead_time(const Instance& inst, Time k, Time min_run);

}  // namespace gapsched
