// Microbenchmarks of the library's hot paths, emitting the machine-readable
// bench/baselines/BENCH_micro.json (schema gapsched-bench-micro/v1) via
// json_report.hpp so CI can diff per-solver ns/op and memo statistics
// between commits.
//
// The DP section A/Bs the Theorem 1/2 execution layer on fixed-seed dense
// scenarios:
//   baseline  hash memo + pruning off    (the pre-arena inner loop)
//   tuned     default layout + pruning   (the engine's production config)
// Every tuned answer is audited by the independent oracle and cross-checked
// against the baseline; any refutation makes the binary exit non-zero so
// the CI micro-bench lane fails loudly instead of archiving corrupt
// numbers.
//
// The hit-path section times the warm restart of one large request: a
// fresh Engine on a populated store serving poly_scale:1200 and
// poly_scale:2000 through bcd_poly_gap with validate on (store open, disk
// load, oracle re-audit, prep; no solver), with the disk hits per op.

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "gapsched/bcd/bcd.hpp"
#include "gapsched/core/candidate_times.hpp"
#include "gapsched/dp/dp_stats.hpp"
#include "gapsched/dp/gap_dp.hpp"
#include "gapsched/dp/power_dp.hpp"
#include "gapsched/engine/engine.hpp"
#include "gapsched/gen/generators.hpp"
#include "gapsched/greedy/fhkn_greedy.hpp"
#include "gapsched/matching/feasibility.hpp"
#include "gapsched/oracle/oracle.hpp"
#include "gapsched/powermin/powermin_approx.hpp"
#include "gapsched/scenarios/scenarios.hpp"
#include "json_report.hpp"

namespace {

using namespace gapsched;

double g_target_ms = 60.0;  // per-sample budget; --min-time-ms overrides
int g_refutations = 0;

void refute(const std::string& what) {
  std::fprintf(stderr, "[REFUTED] %s\n", what.c_str());
  ++g_refutations;
}

/// Median-of-3-samples ns per call of `fn`; each sample repeats `fn` often
/// enough to fill the per-sample budget.
template <class Fn>
double time_ns(Fn&& fn) {
  using clock = std::chrono::steady_clock;
  fn();  // warmup / first-touch
  auto once = clock::now();
  fn();
  double est_ns = static_cast<double>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(clock::now() - once)
          .count());
  if (est_ns < 1.0) est_ns = 1.0;
  const double budget_ns = g_target_ms * 1e6;
  std::size_t reps = static_cast<std::size_t>(budget_ns / est_ns);
  if (reps < 1) reps = 1;
  if (reps > 1000000) reps = 1000000;
  double best = 0.0;
  for (int sample = 0; sample < 3; ++sample) {
    const auto t0 = clock::now();
    for (std::size_t r = 0; r < reps; ++r) fn();
    const double ns = static_cast<double>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(clock::now() - t0)
            .count());
    const double per_op = ns / static_cast<double>(reps);
    if (sample == 0 || per_op < best) best = per_op;
  }
  return best;
}

Instance make_dense(std::size_t n, int p) {
  Prng rng(12345 + static_cast<std::uint64_t>(n) * 31 +
           static_cast<std::uint64_t>(p));
  return gen_feasible_one_interval(rng, n, 2 * static_cast<Time>(n), 3, p);
}

/// A pinned chain [j, j] x n: instances past the old n <= 255 packed-key
/// limit that the PR-5 engine rejected outright; the optimum is one
/// unbroken span.
Instance make_pinned_chain(std::size_t n) {
  std::vector<std::pair<Time, Time>> windows;
  windows.reserve(n);
  for (std::size_t j = 0; j < n; ++j) {
    windows.emplace_back(static_cast<Time>(j), static_cast<Time>(j));
  }
  return Instance::one_interval(windows);
}

const char* layout_name(dp::MemoLayout layout) {
  switch (layout) {
    case dp::MemoLayout::kHash: return "hash";
    case dp::MemoLayout::kArena: return "arena";
  }
  return "?";
}

bench::Json memo_json(const dp::MemoStats& m) {
  bench::Json j = bench::Json::object();
  j.set("layout", layout_name(m.layout));
  j.set("entries", m.entries);
  j.set("box_volume", static_cast<std::int64_t>(m.box_volume));
  j.set("find_calls", static_cast<std::int64_t>(m.find_calls));
  j.set("probe_steps", static_cast<std::int64_t>(m.probe_steps));
  j.set("pruned", static_cast<std::int64_t>(m.pruned));
  return j;
}

struct DpScenario {
  std::string name;
  bool power = false;
  double alpha = 2.0;
  Instance inst;
};

/// True when the seed (PR-5) engine's 64-bit packed keys rejected this
/// instance (n > 255 or |Theta| >= 2^16 or p > 255).
bool pr5_rejected(const Instance& inst) {
  if (inst.n() > 255 || inst.processors > 255) return true;
  return candidate_times(inst, /*plus_one_closure=*/true).size() >=
         (std::size_t{1} << 16);
}

bench::Json run_dp_scenario(const DpScenario& sc) {
  const dp::DpOptions baseline_opts{.prune = false, .arena_max_entries = 0};
  const dp::DpOptions tuned_opts{};  // default layout + pruning (production)

  bench::Json row = bench::Json::object();
  row.set("name", sc.name);
  row.set("objective", sc.power ? "power" : "gap");
  row.set("n", sc.inst.n());
  row.set("p", sc.inst.processors);
  if (sc.power) row.set("alpha", sc.alpha);
  const bool legacy_reject = pr5_rejected(sc.inst);
  row.set("pr5_rejected", legacy_reject);

  double base_ns = 0.0, tuned_ns = 0.0;
  if (sc.power) {
    const PowerDpResult base = solve_power_dp(sc.inst, sc.alpha, baseline_opts);
    const PowerDpResult tuned = solve_power_dp(sc.inst, sc.alpha, tuned_opts);
    if (!tuned.error.empty()) refute(sc.name + ": tuned solve rejected");
    if (base.feasible != tuned.feasible ||
        (tuned.feasible &&
         std::abs(base.power - tuned.power) >
             1e-9 * (1.0 + std::abs(tuned.power)))) {
      refute(sc.name + ": baseline/tuned power mismatch");
    }
    if (tuned.feasible) {
      const oracle::ScheduleAudit audit =
          oracle::audit_schedule(sc.inst, tuned.schedule);
      if (!audit.valid || !audit.complete) {
        refute(sc.name + ": oracle rejected tuned schedule: " +
               audit.violation_summary());
      } else {
        const double floor = oracle::min_power(audit, sc.alpha);
        if (std::abs(tuned.power - floor) > 1e-6 * (1.0 + std::abs(floor))) {
          refute(sc.name + ": tuned power != oracle min_power");
        }
      }
    }
    base_ns = time_ns([&] { solve_power_dp(sc.inst, sc.alpha, baseline_opts); });
    tuned_ns = time_ns([&] { solve_power_dp(sc.inst, sc.alpha, tuned_opts); });
    bench::Json base_j = bench::Json::object();
    base_j.set("ns_op", base_ns).set("memo", memo_json(base.memo));
    bench::Json tuned_j = bench::Json::object();
    tuned_j.set("ns_op", tuned_ns).set("memo", memo_json(tuned.memo));
    row.set("baseline", std::move(base_j));
    row.set("tuned", std::move(tuned_j));
    row.set("feasible", tuned.feasible);
    row.set("states", tuned.states);
  } else {
    const GapDpResult base = solve_gap_dp(sc.inst, baseline_opts);
    const GapDpResult tuned = solve_gap_dp(sc.inst, tuned_opts);
    if (!tuned.error.empty()) refute(sc.name + ": tuned solve rejected");
    if (base.feasible != tuned.feasible ||
        (tuned.feasible && base.transitions != tuned.transitions)) {
      refute(sc.name + ": baseline/tuned transitions mismatch");
    }
    if (tuned.feasible) {
      const oracle::ScheduleAudit audit =
          oracle::audit_schedule(sc.inst, tuned.schedule);
      if (!audit.valid || !audit.complete) {
        refute(sc.name + ": oracle rejected tuned schedule: " +
               audit.violation_summary());
      } else if (audit.transitions != tuned.transitions) {
        refute(sc.name + ": tuned transitions != oracle rederivation");
      }
    }
    base_ns = time_ns([&] { solve_gap_dp(sc.inst, baseline_opts); });
    tuned_ns = time_ns([&] { solve_gap_dp(sc.inst, tuned_opts); });
    bench::Json base_j = bench::Json::object();
    base_j.set("ns_op", base_ns).set("memo", memo_json(base.memo));
    bench::Json tuned_j = bench::Json::object();
    tuned_j.set("ns_op", tuned_ns).set("memo", memo_json(tuned.memo));
    row.set("baseline", std::move(base_j));
    row.set("tuned", std::move(tuned_j));
    row.set("feasible", tuned.feasible);
    row.set("states", tuned.states);
  }
  row.set("speedup_tuned_vs_baseline",
          tuned_ns > 0.0 ? base_ns / tuned_ns : 0.0);
  std::printf("%-28s baseline %12.0f ns  tuned %12.0f ns  (%.2fx)\n",
              sc.name.c_str(), base_ns, tuned_ns,
              tuned_ns > 0.0 ? base_ns / tuned_ns : 0.0);
  return row;
}

/// Hit path: a cold Engine populates a store with the `scenario` answer;
/// each op is then a fresh Engine (threads 1) on that store serving the
/// same validated request — store open, disk load, oracle re-audit and the
/// prep stages, no solver. An answer that differs from the cold solve, or
/// one the audit refutes, is a refutation.
bench::Json run_hit_path(const std::string& solver, const std::string& scenario,
                         const std::string& store_path) {
  engine::SolveRequest req;
  req.instance = *scenarios::make_scenario(scenario, 7);
  req.objective = engine::Objective::kGaps;
  req.params.validate = true;
  std::remove(store_path.c_str());
  engine::EngineOptions opt;
  opt.threads = 1;
  opt.store_path = store_path;
  opt.store_spill_min_ms = 0.0;
  engine::SolveResult cold;
  {
    engine::Engine eng(opt);
    cold = eng.solve(solver, req);
    eng.flush_store();
  }
  const std::string name =
      "hit_" + solver + "_n" + std::to_string(req.instance.n());
  if (!cold.ok || !cold.feasible || !cold.audit_error.empty()) {
    refute(name + ": cold solve " + cold.error + cold.audit_error);
  }
  engine::CacheStats warm_stats;
  const double ns = time_ns([&] {
    engine::Engine eng(opt);
    const engine::SolveResult warm = eng.solve(solver, req);
    warm_stats = eng.cache_stats();
    if (!warm.audit_error.empty()) {
      refute(name + ": " + warm.audit_error);
    } else if (warm.feasible != cold.feasible || warm.cost != cold.cost ||
               warm.transitions != cold.transitions ||
               !(warm.schedule == cold.schedule)) {
      refute(name + ": answer differs from the cold solve");
    }
  });
  std::remove(store_path.c_str());
  bench::Json row = bench::Json::object();
  row.set("name", name);
  row.set("scenario", scenario);
  row.set("n", req.instance.n());
  row.set("ns_op", ns);
  row.set("disk_hits", warm_stats.disk_hits);
  row.set("disk_rejects", warm_stats.disk_rejects);
  std::printf("%-28s %12.0f ns  disk_hits %zu\n", name.c_str(), ns,
              warm_stats.disk_hits);
  return row;
}

bench::Json solver_row(const std::string& name, double ns) {
  bench::Json row = bench::Json::object();
  row.set("name", name);
  row.set("ns_op", ns);
  std::printf("%-28s %12.0f ns\n", name.c_str(), ns);
  return row;
}

}  // namespace

int main(int argc, char** argv) {
  for (int a = 1; a < argc; ++a) {
    if (std::strncmp(argv[a], "--min-time-ms=", 14) == 0) {
      g_target_ms = std::atof(argv[a] + 14);
      if (g_target_ms <= 0.0) g_target_ms = 60.0;
    }
  }

  // Dense one-cluster DP scenarios: tight horizons keep every window
  // overlapping, so prep could not decompose these — they exercise exactly
  // the monolithic inner loop the arena + pruning target.
  std::vector<DpScenario> scenarios;
  scenarios.push_back({"gap_dense_n12_p1", false, 0.0, make_dense(12, 1)});
  scenarios.push_back({"gap_dense_n14_p1", false, 0.0, make_dense(14, 1)});
  scenarios.push_back({"gap_dense_n12_p2", false, 0.0, make_dense(12, 2)});
  scenarios.push_back({"gap_dense_n10_p4", false, 0.0, make_dense(10, 4)});
  scenarios.push_back({"power_dense_n10_p1", true, 2.0, make_dense(10, 1)});
  scenarios.push_back({"power_dense_n12_p1", true, 2.0, make_dense(12, 1)});
  scenarios.push_back({"power_dense_n8_p2", true, 2.0, make_dense(8, 2)});
  scenarios.push_back({"power_dense_n10_p2", true, 2.0, make_dense(10, 2)});
  scenarios.push_back({"power_dense_n8_p4", true, 2.0, make_dense(8, 4)});
  // Past the seed engine's n <= 255 limit: PR-5 rejected this outright.
  scenarios.push_back({"gap_chain_n300", false, 0.0, make_pinned_chain(300)});

  bench::Json dp_rows = bench::Json::array();
  for (const DpScenario& sc : scenarios) dp_rows.push(run_dp_scenario(sc));

  // Per-solver single-config timings (continuity with the older harness).
  bench::Json solver_rows = bench::Json::array();
  {
    Prng rng(777);
    Instance feas = gen_uniform_one_interval(rng, 64, 192, 6, 1);
    solver_rows.push(
        solver_row("feasibility_oracle_n64", time_ns([&] { is_feasible(feas); })));
    Instance greedy_inst = make_dense(20, 1);
    solver_rows.push(solver_row("fhkn_greedy_n20",
                                time_ns([&] { fhkn_greedy(greedy_inst); })));
    solver_rows.push(solver_row(
        "baptiste_n12", time_ns([&] { solve_bcd_gap(make_dense(12, 1)); })));
    Prng mrng(999);
    Instance multi = gen_multi_interval(mrng, 16, 48, 2, 2);
    solver_rows.push(solver_row(
        "powermin_approx_n16", time_ns([&] { powermin_approx(multi, 2.0); })));
    engine::Engine eng({.cache = false});
    engine::SolveRequest req;
    req.instance = make_dense(10, 1);
    req.objective = engine::Objective::kGaps;
    solver_rows.push(solver_row("engine_dispatch_gap_dp_n10",
                                time_ns([&] { eng.solve("gap_dp", req); })));
  }

  bench::Json hit_rows = bench::Json::array();
  for (const char* scenario : {"poly_scale:1200", "poly_scale:2000"}) {
    hit_rows.push(run_hit_path("bcd_poly_gap", scenario,
                               std::string(argv[0]) + ".hit_path.store"));
  }

  bench::Json root = bench::Json::object();
  root.set("schema", "gapsched-bench-micro/v1");
  root.set("target_ms_per_sample", g_target_ms);
  root.set("dp", std::move(dp_rows));
  root.set("solvers", std::move(solver_rows));
  root.set("hit_path", std::move(hit_rows));
  root.set("refutations", g_refutations);
  bench::emit_json("micro", root);

  if (g_refutations > 0) {
    std::fprintf(stderr, "%d refutation(s); failing.\n", g_refutations);
    return 1;
  }
  return 0;
}
