#pragma once
// gapsched::prep — instance canonicalization and independent-component
// decomposition, the preprocessing stage of the solver engine.
//
// On sparse long-horizon workloads (scenario:sparse_spread,
// scenario:power_longhaul) the Theorem 1/2 DPs pay for the full Prop 2.1
// candidate-time axis — and its O(n^5)-ish state space — even when the jobs
// form far-apart clusters that provably cannot interact. Baptiste–Chrobak–
// Dürr's minimum-energy algorithms and the gap-model survey both exploit
// exactly this locality; this module brings it into the engine:
//
//   canonicalize()  sort jobs by (release, deadline, id) and shift the
//                   origin to time 0, with the inverse job/time maps;
//   decompose()     split the canonical instance into independent
//                   components wherever consecutive job clusters are
//                   separated by more than a threshold of empty time units;
//   recombine()     merge per-component schedules back into an n-job
//                   schedule in original job ids and original times.
//
// Soundness of the cut (gap objective): a component's cluster interval
// covers every member job's allowed set, so no job can ever execute in the
// dead run between two components and every schedule's occupancy is 0
// there. With at least one guaranteed-idle unit between clusters, staircase
// transitions are additive across components, hence the joint optimum is
// the sum of the component optima. The engine cuts at separation > n
// (Prop 2.1: no candidate-time neighbourhood reaches further than n+1 past
// a release or deadline, so the per-component candidate axes cannot touch).
//
// Soundness of the cut (power objective): additionally requires the dead
// run to be at least alpha long. Then bridging a processor across the cut
// (cost = run length) is never cheaper than sleeping and paying the fresh
// wake-up alpha that the right component's independent optimum already
// charges, so the joint optimum again equals the sum — the closed-form
// "bridge term" min(gap, alpha) degenerates to alpha, i.e. to the wake-ups
// the components price themselves. The engine therefore cuts power solves
// at separation > max(n, ceil(alpha)).
//
// Dead time the cut cannot remove (interior runs of at most the threshold,
// or runs welded into one component by a straddling multi-interval job) is
// handled by the pipeline's length-aware compression instead
// (core/transforms): gap components shrink every interior dead run to one
// unit, power components to min(run, ceil(alpha) + 1) — the smallest cap
// that keeps every min(gap, alpha) bridge term exact, because a truncated
// run is already longer than alpha on both sides of the map. Compression
// is what normalizes component cache keys across dead-run lengths.

#include <cstddef>
#include <vector>

#include "gapsched/core/instance.hpp"
#include "gapsched/core/schedule.hpp"
#include "gapsched/core/transforms.hpp"

namespace gapsched::prep {

/// The canonical form of an instance plus the maps back to the original.
struct Canonical {
  /// Jobs sorted by (release, deadline, original id), every allowed set
  /// shifted so the earliest release sits at time 0.
  Instance instance;
  /// original time = canonical time + shift.
  Time shift = 0;
  /// order[i] = original index of canonical job i.
  std::vector<std::size_t> order;
};

/// Canonicalizes `inst`. Idempotent: canonicalizing a canonical instance
/// yields shift 0 and the identity order.
Canonical canonicalize(const Instance& inst);

/// One independent sub-instance of a decomposition.
struct Component {
  /// The component's jobs, origin shifted to time 0.
  Instance instance;
  /// original time = component-local time + shift.
  Time shift = 0;
  /// jobs[i] = original index of component job i.
  std::vector<std::size_t> jobs;
};

/// A split of an instance into independent components, in time order.
struct Decomposition {
  std::vector<Component> components;
  /// Dead time units strictly between consecutive components' clusters
  /// (size components.size() - 1); every entry exceeds the cut threshold.
  std::vector<Time> separations;
};

/// Splits `inst` into independent components wherever consecutive job
/// clusters — grouped by the span [allowed.min(), allowed.max()], so a
/// multi-interval job welds together everything it straddles — are
/// separated by strictly more than `threshold` empty time units. With
/// threshold >= n the components' gap optima are additive; see the file
/// comment for the power-objective threshold. threshold < 0 is treated
/// as 0. n == 0 yields zero components.
Decomposition decompose(const Instance& inst, Time threshold);

/// The same split of an already canonicalized instance, made on a copy of
/// `canon` by the moving form below. Without a cut the one component is
/// `canon` itself: shift canon.shift, jobs canon.order.
Decomposition decompose(const Canonical& canon, Time threshold);

/// The moving form, the one implementation: each canonical job is moved
/// into its component and its intervals shifted there in place, so no
/// TimeSet is copied. `canon` is left with moved-from jobs.
Decomposition decompose(Canonical&& canon, Time threshold);

/// Merges per-component schedules (parts[c] solves components[c].instance
/// in its local coordinates) back into one n-job schedule in original job
/// ids and original times. Unscheduled component jobs stay unscheduled.
Schedule recombine(const Decomposition& dec,
                   const std::vector<Schedule>& parts, std::size_t n);

/// The one mapping loop behind recombine: writes `part`, a schedule of
/// `comp`'s jobs, into `out` (an n-job schedule) in original job ids and
/// times. When `part` solves the dead-time compressed image of
/// comp.instance, `map` holds that compression and takes each time back
/// first; with empty maps (the identity) the times are component-local.
void recombine_component(const Component& comp, const Schedule& part,
                         const CompressedInstance& map, Schedule& out);

}  // namespace gapsched::prep
