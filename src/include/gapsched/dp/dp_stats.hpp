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
  /// Force the open-addressing hash table (the pre-arena layout).
  kHash,
  /// Dense direct-indexed arena when the state box fits
  /// DpOptions::arena_max_entries, else the hash table (an unconditional
  /// arena could be an allocation bomb).
  kArena,
};

/// Execution options of one Theorem 1/2 DP solve. The defaults reproduce
/// the engine's production configuration; benches and tests override
/// individual knobs to A/B layouts and pruning.
struct DpOptions {
  MemoLayout layout = MemoLayout::kArena;
  /// Candidate-axis and occupancy-cap pruning (see dp_engine.hpp for the
  /// dominance arguments). Off reproduces the unpruned enumeration.
  bool prune = true;
  /// Largest state-box volume (entries, not bytes) the arena layout may
  /// allocate; ~21 bytes per entry. Above this kArena falls back to the
  /// hash table.
  std::size_t arena_max_entries = std::size_t{1} << 21;
};

/// Per-solve memo diagnostics, surfaced through Gap/PowerDpResult and the
/// engine's SolveStats.
struct MemoStats {
  /// Layout actually used: kArena only when the arena was allocated.
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
};

}  // namespace gapsched::dp
