#pragma once
// The process-wide executor: one fixed set of worker threads, spawned on
// first use, that runs every parallel loop in the library — the Dispatch
// fan-out over decomposition components and the benchmark sweeps (each
// Theorem 1/2 DP solve itself is serial). Each solve is deterministic
// whatever the width: parallel callers only split independent work
// (components, trials) and merge it in a fixed order.
//
// Every parallel_for call waits for its own indices only, never for the
// executor as a whole, so concurrent callers do not wait out each other's
// work, and a loop body may itself call parallel_for (the caller's worker
// runs its own group's indices while it waits, so nesting cannot
// deadlock). A thread outside the executor only waits: loop bodies run on
// executor workers alone.

#include <cstddef>
#include <functional>

namespace gapsched {

/// Width of the executor: hardware concurrency, at least 1.
std::size_t executor_threads();

/// Runs fn(i) for every i in [0, n) on the executor and returns once all n
/// calls have finished. fn must be safe to invoke concurrently for distinct
/// i and must not throw.
void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn);

}  // namespace gapsched
