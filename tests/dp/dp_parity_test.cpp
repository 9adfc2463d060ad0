// Execution-layer parity: the DP's answer must be a pure function of the
// instance, not of how the memo is laid out or which dominated branches
// were pruned. Every config — hash vs dense arena, pruning on/off — must
// return bit-identical results (feasibility, optimum, schedule,
// reachable-state count) on the whole scenario catalog. This is what
// licenses the engine to pick layouts opportunistically.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "gapsched/dp/dp_common.hpp"
#include "gapsched/dp/gap_dp.hpp"
#include "gapsched/dp/power_dp.hpp"
#include "gapsched/scenarios/scenarios.hpp"
#include "../support/test_seed.hpp"

namespace gapsched {
namespace {

constexpr double kAlpha = 2.5;

std::vector<Instance> catalog_draws(int seeds_per_family) {
  std::vector<Instance> out;
  for (const scenarios::Scenario* sc :
       scenarios::ScenarioCatalog::instance().all()) {
    if (!sc->one_interval) continue;  // the Theorem 1/2 DPs are one-interval
    for (int s = 0; s < seeds_per_family; ++s) {
      Instance inst = sc->make(testing::seed_for(7000 + s));
      if (!dp::DpContext(inst).limit_violation().empty()) continue;
      out.push_back(std::move(inst));
    }
  }
  return out;
}

// `same_states` only holds between configs with the same pruning setting:
// pruning skips dominated subtrees entirely, so it shrinks the reachable
// (memoized) state set while leaving the optimum and schedule untouched.
void expect_gap_identical(const GapDpResult& a, const GapDpResult& b,
                          const std::string& what, bool same_states = true) {
  ASSERT_EQ(a.error.empty(), b.error.empty()) << what;
  ASSERT_EQ(a.feasible, b.feasible) << what;
  if (same_states) {
    EXPECT_EQ(a.states, b.states) << what;
  }
  if (!a.feasible) return;
  EXPECT_EQ(a.transitions, b.transitions) << what;
  EXPECT_EQ(a.schedule, b.schedule) << what;
}

void expect_power_identical(const PowerDpResult& a, const PowerDpResult& b,
                            const std::string& what, bool same_states = true) {
  ASSERT_EQ(a.error.empty(), b.error.empty()) << what;
  ASSERT_EQ(a.feasible, b.feasible) << what;
  if (same_states) {
    EXPECT_EQ(a.states, b.states) << what;
  }
  if (!a.feasible) return;
  // Bit-identical, not just near: every config explores the winning branch
  // with the same arithmetic.
  EXPECT_EQ(a.power, b.power) << what;
  EXPECT_EQ(a.schedule, b.schedule) << what;
}

// Arena vs hash memo, and pruning on vs off, across the catalog.
TEST(DpParity, ArenaVsHashAcrossScenarioCatalog) {
  dp::DpOptions hash_opts{.layout = dp::MemoLayout::kHash, .prune = true};
  dp::DpOptions hash_noprune{.layout = dp::MemoLayout::kHash, .prune = false};
  dp::DpOptions arena_opts{.layout = dp::MemoLayout::kArena, .prune = true};
  // Forcing the arena high enough that every catalog draw's state box fits
  // densely; draws whose box still exceeds it fall back to hash, which is
  // itself a config worth exercising.
  arena_opts.arena_max_entries = std::size_t{1} << 26;

  int arena_solves = 0;
  for (const Instance& inst : catalog_draws(2)) {
    const std::string what =
        "n=" + std::to_string(inst.n()) + " p=" + std::to_string(inst.processors);
    const GapDpResult g_hash = solve_gap_dp(inst, hash_opts);
    const GapDpResult g_plain = solve_gap_dp(inst, hash_noprune);
    const GapDpResult g_arena = solve_gap_dp(inst, arena_opts);
    expect_gap_identical(g_hash, g_plain, what + " gap prune/noprune",
                         /*same_states=*/false);
    expect_gap_identical(g_hash, g_arena, what + " gap hash/arena");
    if (g_arena.memo.layout == dp::MemoLayout::kArena) ++arena_solves;

    const PowerDpResult p_hash = solve_power_dp(inst, kAlpha, hash_opts);
    const PowerDpResult p_plain = solve_power_dp(inst, kAlpha, hash_noprune);
    const PowerDpResult p_arena = solve_power_dp(inst, kAlpha, arena_opts);
    expect_power_identical(p_hash, p_plain, what + " power prune/noprune",
                           /*same_states=*/false);
    expect_power_identical(p_hash, p_arena, what + " power hash/arena");
  }
  // The parity sweep must actually have exercised the dense layout.
  EXPECT_GT(arena_solves, 0);
}

}  // namespace
}  // namespace gapsched
