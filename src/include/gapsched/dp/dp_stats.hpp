#pragma once
// Tuning knobs and per-solve memo diagnostics of the Theorem 1/2 DP
// execution layer. Split out of dp_common.hpp so result headers
// (gap_dp.hpp / power_dp.hpp) can carry MemoStats without pulling in the
// memo-table machinery.

#include <cstddef>
#include <cstdint>

namespace gapsched::dp {

/// Memo storage strategy for one DP solve.
enum class MemoLayout : std::uint8_t {
  /// Pick per solve: dense direct-indexed arena when the state box fits the
  /// entry budget, hash table otherwise.
  kAuto,
  /// Force the open-addressing hash table (the pre-arena layout).
  kHash,
  /// Prefer the dense arena; still falls back to hash when the state box
  /// exceeds the entry budget (an unconditional arena could be an
  /// allocation bomb).
  kArena,
};

/// Execution options of one Theorem 1/2 DP solve. The defaults reproduce
/// the engine's production configuration; benches and tests override
/// individual knobs to A/B layouts, pruning, and thread counts.
struct DpOptions {
  MemoLayout layout = MemoLayout::kAuto;
  /// Candidate-axis and occupancy-cap pruning (see dp_engine.hpp for the
  /// dominance arguments). Off reproduces the unpruned enumeration.
  bool prune = true;
  /// Largest state-box volume (entries, not bytes) the arena layout may
  /// allocate; ~21 bytes per entry. Above this kAuto / kArena fall back to
  /// the hash table.
  std::size_t arena_max_entries = std::size_t{1} << 21;
  /// Width of the intra-solve parallel top-level candidate scan, which
  /// runs on the process-wide executor (parallel/thread_pool.hpp) in
  /// threads * 4 chunks. 1 (the default) keeps the solve fully serial;
  /// 0 means executor_threads(). The answer is bit-identical for every
  /// width — see the determinism note in dp_engine.hpp.
  std::size_t threads = 1;
  /// Minimum state-box volume before the parallel scan is worth its task
  /// overhead; solves below it stay serial at any width.
  std::size_t parallel_min_box = std::size_t{1} << 15;
};

/// Per-solve memo diagnostics, surfaced through Gap/PowerDpResult and the
/// engine's SolveStats.
struct MemoStats {
  /// Layout actually used (never kAuto).
  MemoLayout layout = MemoLayout::kHash;
  /// Memoized states (== the result's `states` field).
  std::size_t entries = 0;
  /// Full state-box volume the arena heuristic evaluated (0 when n == 0).
  std::uint64_t box_volume = 0;
  /// Memo lookups issued by the recursion.
  std::uint64_t find_calls = 0;
  /// Linear-probe steps beyond the home slot (hash layout only; the arena
  /// is direct-indexed and never probes).
  std::uint64_t probe_steps = 0;
  /// Candidate-axis branches skipped by the pruning rules.
  std::uint64_t pruned = 0;
  /// True when the parallel top-level scan ran.
  bool parallel = false;
};

}  // namespace gapsched::dp
