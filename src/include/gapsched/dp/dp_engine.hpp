#pragma once
// Unified execution core of the Theorem 1 (gap) and Theorem 2 (power)
// dynamic programs. The two objectives share one recursion shape — the
// W(t1, t2, k, q, l1, l2) window decomposition of dp_common.hpp — and
// differ only in base-case feasibility, glue cost, and value arithmetic,
// captured here as a Policy. The engine adds three coordinated
// optimisations over the per-objective solvers it replaced:
//
//  1. Memo layout selection (run_dp): a dense direct-indexed ArenaMemo
//     when the state box [i_min, i_max]^2 x [0,n] x [0,q_max] x [0,p]^2
//     fits DpOptions::arena_max_entries, else the open-addressing
//     MemoTable. Which layout ran, and its probe/volume statistics, are
//     reported through MemoStats.
//
//  2. Candidate-axis pruning (DpOptions::prune). Every rule is a
//     dominance or infeasibility argument, so pruned and unpruned solves
//     return identical values *and* identical reconstruction choices:
//       - capacity: a split at t' is skipped when the left window cannot
//         seat left_jobs + 1 unit jobs ((t'-t1+1) * p slots) or the right
//         window cannot seat right_jobs + q — a necessary condition for
//         any feasible child, both objectives;
//       - occupancy caps (gap only, where l counts *jobs*): occupancy at
//         t1 can only come from jobs released exactly at t1, occupancy at
//         the seam t'+1 only from jobs released exactly there (plus the q
//         ancestors when the seam is t2), and occupancy at t' from jobs
//         whose window covers t' (plus jk). States and (l', l'') branches
//         above these counts are infeasible by counting, value inf;
//       - empty-right shortcut (power only): with no right jobs, no
//         ancestors (q = 0) and no interface demand (l2 = 0), any
//         l'' > 0 pays glue >= l'' to bridge into a window that needs
//         nothing — l'' = 0 strictly dominates;
//       - root interface caps (both): active/occupied processors at t_min
//         beyond the jobs released at t_min are strictly dominated (they
//         pay their wake at the root and could instead wake later), and
//         at t_max beyond the jobs due at t_max there is nothing left to
//         bridge to. The alpha-bounded useful-gap horizon for power is
//         enforced upstream of the DP: the prep pipeline's dead-time
//         compression truncates interior idle runs to ceil(alpha) + 1
//         units, so the candidate axis never extends past the horizon
//         where min(gap, alpha) saturates.
//
//  3. Wider state packing: the 128-bit StateKey of dp_common.hpp
//     (n <= 4095, |Theta| < 2^20, p <= 4095).
//
// Every solve is one serial top-down recursion on the calling thread, so
// values, schedules and the memo counters are deterministic.

#include <algorithm>
#include <cstdint>
#include <deque>
#include <limits>
#include <type_traits>
#include <utility>
#include <vector>

#include "gapsched/core/schedule.hpp"
#include "gapsched/dp/dp_common.hpp"

namespace gapsched::dp {

// ------------------------------------------------------------- policies --

/// Theorem 1: minimize sleep->active transitions. Values are saturating
/// int64 counts; l1/l2 are job occupancy at the window edges.
struct GapPolicy {
  using Value = std::int64_t;
  /// l counts jobs (enables the occupancy-cap pruning rules).
  static constexpr bool kOccupancy = true;

  static Value inf() { return kInfCost; }
  static bool is_inf(Value v) { return v >= kInfCost; }
  bool point_feasible(int jobs_total, int l) const { return l == jobs_total; }
  bool empty_feasible(int l1, int q, int l2) const {
    return l1 == 0 && l2 == q;
  }
  Value empty_cost(int /*l1*/, int l2, std::int64_t /*idle*/) const {
    // The q jobs at t2 wake from a fully idle previous unit.
    return l2;
  }
  Value glue(int lp, int ldp) const { return std::max(0, ldp - lp); }
  Value combine(Value left, Value g, Value right) const {
    return add_sat(add_sat(left, g), right);
  }
  /// Top level owns t_min: l1 occupants wake there.
  Value root_total(int l1, Value w) const { return add_sat(l1, w); }
};

/// Theorem 2: minimize active time + alpha * wake-ups. Values are doubles;
/// l1/l2 are active-processor counts (>= job occupancy, bridging allowed).
struct PowerPolicy {
  using Value = double;
  static constexpr bool kOccupancy = false;

  double alpha = 0.0;

  static Value inf() { return std::numeric_limits<double>::infinity(); }
  static bool is_inf(Value v) {
    return v == std::numeric_limits<double>::infinity();
  }
  bool point_feasible(int jobs_total, int l) const { return jobs_total <= l; }
  bool empty_feasible(int /*l1*/, int q, int l2) const { return q <= l2; }
  Value empty_cost(int l1, int l2, std::int64_t idle) const {
    return step_cost(l1, l2, idle);
  }
  /// Glue owns time t'+1: its active units plus its wake-ups.
  Value glue(int lp, int ldp) const {
    return ldp + alpha * std::max(0, ldp - lp);
  }
  Value combine(Value left, Value g, Value right) const {
    return left + g + right;
  }
  /// Top level owns t_min: l1 processors wake and run one unit there.
  Value root_total(int l1, Value w) const { return l1 * (1.0 + alpha) + w; }

  /// Power cost of moving from m_prev active processors to m_new active
  /// ones across `idle` fully idle time units, including m_new's active
  /// unit: carried processors pay min(idle, alpha), fresh ones pay alpha.
  double step_cost(int m_prev, int m_new, std::int64_t idle) const {
    if (m_new == 0) return 0.0;
    double cost = static_cast<double>(m_new);
    if (idle == 0) return cost + alpha * std::max(0, m_new - m_prev);
    const int carried = std::min(m_prev, m_new);
    const double carry_unit = std::min(static_cast<double>(idle), alpha);
    return cost + carried * carry_unit + alpha * (m_new - carried);
  }
};

// -------------------------------------------------------- memo adapters --

/// MemoTable behind the index-based interface the engine uses (the arena
/// consumes indices natively; the hash layout packs them into a StateKey).
template <class Value>
class HashMemo {
 public:
  bool find(std::size_t i1, std::size_t i2, std::size_t k, int q, int l1,
            int l2, Value* value) const {
    const auto* e = table_.find(pack_state(i1, i2, k, q, l1, l2));
    if (e == nullptr) return false;
    *value = e->value;
    return true;
  }
  void insert(std::size_t i1, std::size_t i2, std::size_t k, int q, int l1,
              int l2, const Value& value, const Choice& choice) {
    table_.insert(pack_state(i1, i2, k, q, l1, l2), value, choice);
  }
  const Choice& choice_at(std::size_t i1, std::size_t i2, std::size_t k,
                          int q, int l1, int l2) const {
    return table_.find(pack_state(i1, i2, k, q, l1, l2))->choice;
  }
  std::size_t size() const { return table_.size(); }
  std::uint64_t probe_steps() const { return table_.probe_steps(); }

 private:
  MemoTable<Value> table_;
};

// ---------------------------------------------------------------- engine --

template <class Policy, class Memo>
class DpEngine {
 public:
  using Value = typename Policy::Value;

  struct Outcome {
    bool feasible = false;
    Value value{};
    Schedule schedule{0};
    std::uint64_t find_calls = 0;
    std::uint64_t pruned = 0;
  };

  DpEngine(const DpContext& ctx, const Policy& policy, bool prune, Memo& memo)
      : ctx_(ctx),
        policy_(policy),
        memo_(memo),
        p_(ctx.inst->processors),
        prune_(prune) {}

  Outcome run() {
    Outcome out;
    const std::size_t n = ctx_.inst->n();
    const std::size_t i_min = ctx_.index_of(ctx_.inst->earliest_release());
    const std::size_t i_max = ctx_.index_of(ctx_.inst->latest_deadline());

    // Root interface caps (see the dominance note in the file header).
    int cap_l1 = p_;
    int cap_l2 = p_;
    if (prune_) {
      const Time t_min = ctx_.theta[i_min];
      const Time t_max = ctx_.theta[i_max];
      int e1 = 0, e2 = 0;
      for (std::size_t x = 0; x < n; ++x) {
        if (ctx_.release_bd[x] == t_min) ++e1;
        if (ctx_.deadline_bd[x] == t_max) ++e2;
      }
      cap_l1 = std::min(p_, e1);
      cap_l2 = std::min(p_, e2);
    }

    Value best = Policy::inf();
    int best_l1 = -1, best_l2 = -1;
    for (int l1 = 0; l1 <= cap_l1; ++l1) {
      for (int l2 = 0; l2 <= cap_l2; ++l2) {
        const Value w = solve(i_min, i_max, n, 0, l1, l2, 0);
        const Value total = policy_.root_total(l1, w);
        if (total < best) {
          best = total;
          best_l1 = l1;
          best_l2 = l2;
        }
      }
    }

    out.find_calls = find_calls_;
    out.pruned = pruned_;
    if (best_l1 < 0) {
      out.schedule = Schedule(n);
      return out;
    }
    out.feasible = true;
    out.value = best;
    Schedule sched(n);
    reconstruct(i_min, i_max, n, 0, best_l1, best_l2, sched);
    sched.assign_processors_staircase();
    out.schedule = std::move(sched);
    return out;
  }

 private:
  /// Depth-indexed job-set scratch (a deque so references survive growth).
  std::vector<std::size_t>& jobs_at(std::size_t depth) {
    while (scratch_.size() <= depth) scratch_.emplace_back();
    return scratch_[depth];
  }

  Value solve(std::size_t i1, std::size_t i2, std::size_t k, int q, int l1,
              int l2, std::size_t depth) {
    ++find_calls_;
    Value v{};
    if (memo_.find(i1, i2, k, q, l1, l2, &v)) return v;
    Choice choice{};
    const Value best = compute(i1, i2, k, q, l1, l2, depth, &choice);
    memo_.insert(i1, i2, k, q, l1, l2, best, choice);
    return best;
  }

  // W(t1, t2, k, q, l1, l2): the window recursion.
  Value compute(std::size_t i1, std::size_t i2, std::size_t k, int q, int l1,
                int l2, std::size_t depth, Choice* out_choice) {
    const Time t1 = ctx_.theta[i1];
    const Time t2 = ctx_.theta[i2];
    Value best = Policy::inf();
    Choice choice{};

    if (i1 == i2) {
      // Point window: q ancestors + k own jobs sit at t1.
      if (l1 == l2 && l1 <= p_ &&
          policy_.point_feasible(q + static_cast<int>(k), l1)) {
        best = Value{};
        choice.kind = Choice::Kind::kBasePoint;
      }
    } else if (k == 0) {
      // Empty window: only the interface counts matter.
      if (policy_.empty_feasible(l1, q, l2)) {
        best = policy_.empty_cost(l1, l2, t2 - t1 - 1);
        choice.kind = Choice::Kind::kBaseEmpty;
      }
    } else {
      std::vector<std::size_t>& jobs = jobs_at(depth);
      ctx_.fill_job_positions(t1, t2, k, jobs);
      bool viable = jobs.size() == k;
      if (viable && Policy::kOccupancy && prune_) {
        // Occupancy quick check: occupants at t1 must be released exactly
        // at t1; occupants at t2 are the q ancestors plus jobs still alive
        // at t2. States demanding more are infeasible by counting. Each
        // count stops once its demand is met: `jobs` is in deadline order,
        // so the jobs alive at t2 are a suffix read from the back, and a
        // state neither bound can prune (l1 = 0, l2 <= q) reads no job.
        // Plain index loops: compute() recurses about n deep, and a
        // 4095-job solve under ASan already needs most of an 8 MiB stack.
        int e1 = 0, e2 = 0;
        for (std::size_t x = jobs.size();
             x > 0 && l2 > q + e2 && ctx_.deadline_bd[jobs[x - 1]] >= t2;
             --x) {
          ++e2;
        }
        for (std::size_t x = 0; x < jobs.size() && l1 > e1; ++x) {
          if (ctx_.release_bd[jobs[x]] == t1) ++e1;
        }
        if (l1 > e1 || l2 > q + e2) {
          ++pruned_;
          viable = false;
        }
      }
      if (viable) {
        const std::size_t jk_pos = jobs.back();
        const Time lo = std::max(t1, ctx_.release_bd[jk_pos]);
        const Time hi = std::min(t2, ctx_.deadline_bd[jk_pos]);
        auto it = std::lower_bound(ctx_.theta.begin(), ctx_.theta.end(), lo);
        const std::size_t first =
            static_cast<std::size_t>(it - ctx_.theta.begin());
        std::size_t last = first;
        while (last < ctx_.theta.size() && ctx_.theta[last] <= hi) ++last;

        for (std::size_t idx = first; idx < last; ++idx) {
          if (!ctx_.is_core[idx]) continue;
          const Time tp = ctx_.theta[idx];
          if (tp == t2) {
            // jk takes one of the t2 slots; same window, one fewer job.
            if (l2 >= q + 1) {
              const Value v = solve(i1, i2, k - 1, q + 1, l1, l2, depth + 1);
              if (v < best) {
                best = v;
                choice = Choice{};
                choice.kind = Choice::Kind::kAtRightEdge;
                choice.tprime_idx = static_cast<std::uint32_t>(idx);
              }
            }
            continue;
          }
          const std::size_t ridx = idx + 1;
          // The +1 closure guarantees tp+1 is the next candidate time.
          if (ridx >= ctx_.theta.size() || ctx_.theta[ridx] != tp + 1) {
            continue;
          }
          // Split: jobs released after tp go right; the rest (minus jk,
          // which sits at tp) go left with q' = 1 encoding jk's slot. One
          // pass gathers the split count and the occupancy-cap tallies.
          int right_jobs = 0, left_at_tp = 0, right_at_seam = 0;
          for (std::size_t x = 0; x + 1 < k; ++x) {
            const std::size_t pos = jobs[x];
            const Time r = ctx_.release_bd[pos];
            if (r > tp) {
              ++right_jobs;
              if (r == tp + 1) ++right_at_seam;
            } else if (ctx_.deadline_bd[pos] >= tp) {
              ++left_at_tp;
            }
          }
          const std::size_t left_jobs =
              k - 1 - static_cast<std::size_t>(right_jobs);
          if (prune_) {
            // Capacity: every feasible child seats its jobs in its window.
            if (static_cast<std::int64_t>(left_jobs) + 1 >
                    (tp - t1 + 1) * static_cast<std::int64_t>(p_) ||
                static_cast<std::int64_t>(right_jobs) + q >
                    (t2 - tp) * static_cast<std::int64_t>(p_)) {
              ++pruned_;
              continue;
            }
          }
          int lp_hi = p_;
          int ldp_hi = p_;
          if (prune_) {
            if (Policy::kOccupancy) {
              lp_hi = std::min(p_, 1 + left_at_tp);
              ldp_hi = std::min(
                  p_, right_at_seam + (ridx == i2 ? q : 0));
            } else if (right_jobs == 0 && q == 0 && l2 == 0) {
              // Empty-right shortcut (power): bridging into a window that
              // needs nothing strictly loses.
              ldp_hi = 0;
            }
          }
          for (int lp = 1; lp <= lp_hi; ++lp) {
            const Value left = solve(i1, idx, left_jobs, 1, l1, lp, depth + 1);
            if (Policy::is_inf(left)) continue;
            for (int ldp = 0; ldp <= ldp_hi; ++ldp) {
              const Value right = solve(ridx, i2,
                                        static_cast<std::size_t>(right_jobs),
                                        q, ldp, l2, depth + 1);
              if (Policy::is_inf(right)) continue;
              const Value total =
                  policy_.combine(left, policy_.glue(lp, ldp), right);
              if (total < best) {
                best = total;
                choice = Choice{};
                choice.kind = Choice::Kind::kSplit;
                choice.tprime_idx = static_cast<std::uint32_t>(idx);
                choice.right_jobs = static_cast<std::uint16_t>(right_jobs);
                choice.lprime = static_cast<std::int16_t>(lp);
                choice.ldprime = static_cast<std::int16_t>(ldp);
              }
            }
          }
        }
      }
    }

    *out_choice = choice;
    return best;
  }

  void reconstruct(std::size_t i1, std::size_t i2, std::size_t k, int q,
                   int l1, int l2, Schedule& out) {
    const Choice& c = memo_.choice_at(i1, i2, k, q, l1, l2);
    const Time t1 = ctx_.theta[i1];
    const Time t2 = ctx_.theta[i2];
    switch (c.kind) {
      case Choice::Kind::kBasePoint: {
        for (std::size_t j : ctx_.job_set(t1, t2, k)) out.place(j, t1);
        return;
      }
      case Choice::Kind::kBaseEmpty:
        return;
      case Choice::Kind::kAtRightEdge: {
        const std::vector<std::size_t> jobs = ctx_.job_set(t1, t2, k);
        out.place(jobs.back(), t2);
        reconstruct(i1, i2, k - 1, q + 1, l1, l2, out);
        return;
      }
      case Choice::Kind::kSplit: {
        const std::vector<std::size_t> jobs = ctx_.job_set(t1, t2, k);
        out.place(jobs.back(), ctx_.theta[c.tprime_idx]);
        reconstruct(i1, c.tprime_idx, k - 1 - c.right_jobs, 1, l1, c.lprime,
                    out);
        reconstruct(c.tprime_idx + 1, i2, c.right_jobs, q, c.ldprime, l2,
                    out);
        return;
      }
    }
  }

  const DpContext& ctx_;
  Policy policy_;
  Memo& memo_;
  int p_;
  bool prune_;
  std::deque<std::vector<std::size_t>> scratch_;
  std::uint64_t find_calls_ = 0;
  std::uint64_t pruned_ = 0;
};

// ------------------------------------------------------------ run_dp(...) --

template <class Policy>
struct DpRun {
  bool feasible = false;
  typename Policy::Value value{};
  Schedule schedule{0};
  std::size_t states = 0;
  MemoStats memo;
};

/// Runs one DP solve end to end: estimates the state box from the instance
/// shape, selects the memo layout, runs the recursion, and reports the memo
/// diagnostics. The caller has already checked ctx.limit_violation() and
/// n > 0.
template <class Policy>
DpRun<Policy> run_dp(const DpContext& ctx, const Policy& policy,
                     const DpOptions& opts) {
  using Value = typename Policy::Value;
  const std::size_t n = ctx.inst->n();
  const int p = ctx.inst->processors;
  const std::size_t i_min = ctx.index_of(ctx.inst->earliest_release());
  const std::size_t i_max = ctx.index_of(ctx.inst->latest_deadline());
  const std::size_t extent = i_max - i_min + 1;
  // q counts ancestor commitments at t2: bounded by both the job count and
  // the processor count (incrementing q requires l2 >= q + 1 <= p).
  const int q_max = static_cast<int>(
      std::min<std::size_t>(n, static_cast<std::size_t>(p)));

  const auto mul_sat = [](std::uint64_t a, std::uint64_t b) {
    const std::uint64_t cap = std::numeric_limits<std::uint64_t>::max();
    return (a != 0 && b > cap / a) ? cap : a * b;
  };
  std::uint64_t volume = mul_sat(extent, extent);
  volume = mul_sat(volume, n + 1);
  volume = mul_sat(volume, static_cast<std::uint64_t>(q_max) + 1);
  volume = mul_sat(volume, static_cast<std::uint64_t>(p) + 1);
  volume = mul_sat(volume, static_cast<std::uint64_t>(p) + 1);

  DpRun<Policy> out;
  out.memo.box_volume = volume;
  const auto solve = [&](auto& memo, MemoLayout layout) {
    DpEngine<Policy, std::remove_reference_t<decltype(memo)>> engine(
        ctx, policy, opts.prune, memo);
    auto run = engine.run();
    out.feasible = run.feasible;
    out.value = run.value;
    out.schedule = std::move(run.schedule);
    out.states = memo.size();
    out.memo.layout = layout;
    out.memo.entries = memo.size();
    out.memo.find_calls = run.find_calls;
    out.memo.pruned = run.pruned;
  };
  if (volume <= opts.arena_max_entries) {
    ArenaMemo<Value> memo(i_min, extent, n, q_max, p);
    solve(memo, MemoLayout::kArena);
  } else {
    HashMemo<Value> memo;
    solve(memo, MemoLayout::kHash);
    out.memo.probe_steps = memo.probe_steps();
  }
  return out;
}

}  // namespace gapsched::dp
