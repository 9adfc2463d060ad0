// Engine layer: registry completeness, dispatch parity with the direct
// solver entry points, request validation, and deterministic batched
// solving across thread counts. Everything dispatches through
// engine::Engine — the deprecated solve_with/solve_many shims are gone —
// with the solve cache off, so each call here is an independent stateless
// solve.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "gapsched/bcd/bcd.hpp"
#include "gapsched/dp/gap_dp.hpp"
#include "gapsched/dp/power_dp.hpp"
#include "gapsched/engine/engine.hpp"
#include "gapsched/exact/brute_force.hpp"
#include "gapsched/exact/power_brute_force.hpp"
#include "gapsched/exact/span_search.hpp"
#include "gapsched/gen/generators.hpp"
#include "gapsched/greedy/fhkn_greedy.hpp"
#include "gapsched/greedy/lazy.hpp"
#include "gapsched/io/json.hpp"
#include "gapsched/online/online_edf.hpp"
#include "gapsched/online/online_powerdown.hpp"
#include "gapsched/powermin/powermin_approx.hpp"
#include "gapsched/restart/restart_greedy.hpp"
#include "../support/test_seed.hpp"

namespace gapsched::engine {
namespace {

Instance small_instance(std::uint64_t site) {
  // Routed through the shared seed plumbing so GAPSCHED_TEST_SEED sweeps
  // the whole engine suite onto fresh draws.
  Prng rng(testing::seed_for(site));
  return gen_feasible_one_interval(rng, 8, 16, 3, 1);
}

/// One shared cache-off engine: each solve is stateless and independent,
/// the configuration the parity and validation pins below assume.
SolveResult engine_solve(std::string_view solver, const SolveRequest& req) {
  static Engine eng({.cache = false});
  return eng.solve(solver, req);
}

/// A fresh cache-off engine with its own pool of `threads` workers (the
/// determinism sweeps compare batches across pool sizes).
std::vector<SolveResult> batch_solve(const std::vector<BatchJob>& jobs,
                                     std::size_t threads) {
  Engine eng({.threads = threads, .cache = false});
  return eng.solve_batch(jobs);
}

// ---------------------------------------------------------------- registry --

TEST(Registry, ListsEveryFamily) {
  const std::vector<std::string> names = SolverRegistry::instance().names();
  const std::set<std::string> got(names.begin(), names.end());
  const std::set<std::string> want = {
      "gap_dp",      "power_dp",         "baptiste",
      "bcd_poly_gap", "bcd_poly_power",
      "brute_force", "power_brute_force", "span_search",
      "fhkn_greedy", "lazy",             "powermin_approx",
      "restart_greedy", "online_edf",    "online_powerdown"};
  EXPECT_EQ(got, want);
  EXPECT_EQ(SolverRegistry::instance().size(), want.size());
}

TEST(Registry, InfoIsWellFormed) {
  for (const Solver* solver : SolverRegistry::instance().all()) {
    const SolverInfo& info = solver->info();
    EXPECT_FALSE(info.name.empty());
    EXPECT_FALSE(info.summary.empty());
    EXPECT_FALSE(info.paper_ref.empty());
    EXPECT_FALSE(info.complexity.empty());
    // Objective names round-trip through the string mapping.
    const auto parsed = objective_from_string(to_string(info.objective));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, info.objective);
    // find() returns the same object the listing exposed.
    EXPECT_EQ(SolverRegistry::instance().find(info.name), solver);
  }
}

TEST(Registry, ObjectivePartitionCoversAllSolvers) {
  std::size_t total = 0;
  for (Objective obj : {Objective::kGaps, Objective::kPower,
                        Objective::kThroughput}) {
    for (const Solver* solver : SolverRegistry::instance().for_objective(obj)) {
      EXPECT_EQ(solver->info().objective, obj);
      ++total;
    }
  }
  EXPECT_EQ(total, SolverRegistry::instance().size());
}

/// Minimal solver used to probe registration edge cases.
class FakeSolver final : public Solver {
 public:
  explicit FakeSolver(std::string name) {
    info_.name = std::move(name);
    info_.summary = "test double";
    info_.paper_ref = "n/a";
    info_.complexity = "O(1)";
  }
  const SolverInfo& info() const override { return info_; }

 protected:
  SolveResult do_solve(const SolveRequest&) const override { return {}; }

 private:
  SolverInfo info_;
};

TEST(Registry, RejectsDuplicateNames) {
  SolverRegistry& registry = SolverRegistry::instance();
  const Solver* original = registry.find("gap_dp");
  ASSERT_NE(original, nullptr);
  const std::size_t before = registry.size();
  // A second registration under an existing name is refused and must not
  // displace (or invalidate pointers to) the original solver.
  EXPECT_FALSE(registry.add(std::make_unique<FakeSolver>("gap_dp")));
  EXPECT_EQ(registry.size(), before);
  EXPECT_EQ(registry.find("gap_dp"), original);
  EXPECT_EQ(original->info().paper_ref, "Theorem 1 (Section 2)");
}

TEST(Registry, UnknownNameIsRejected) {
  EXPECT_EQ(SolverRegistry::instance().find("nonexistent"), nullptr);
  const SolveResult r = engine_solve("nonexistent", SolveRequest{});
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("unknown solver"), std::string::npos);
}

// ------------------------------------------------- dispatch == direct call --
// Parity is pinned with the prep pipeline off: with it on, the engine may
// legitimately solve canonicalized / dead-time-compressed coordinates and
// return a different (equal-cost) optimal schedule than the direct call.
// Cost-level pipeline-on-vs-off equality lives in tests/prep and
// tests/differential.

TEST(Dispatch, GapSolversMatchDirectCalls) {
  for (int seed = 0; seed < 8; ++seed) {
    const Instance inst = small_instance(100 + seed);
    SolveRequest req{inst, Objective::kGaps, {}};
    req.params.decompose = false;

    const GapDpResult dp = solve_gap_dp(inst);
    const SolveResult via_dp = engine_solve("gap_dp", req);
    ASSERT_TRUE(via_dp.ok) << via_dp.error;
    EXPECT_EQ(via_dp.feasible, dp.feasible);
    EXPECT_EQ(via_dp.transitions, dp.transitions);
    EXPECT_EQ(via_dp.stats.states, dp.states);
    EXPECT_EQ(via_dp.schedule, dp.schedule);

    // `baptiste` is the bcd_poly_gap adapter under a second name.
    const BcdGapResult bcd = solve_bcd_gap(inst);
    const SolveResult via_bp = engine_solve("baptiste", req);
    ASSERT_TRUE(via_bp.ok) << via_bp.error;
    EXPECT_EQ(via_bp.feasible, bcd.feasible);
    EXPECT_EQ(via_bp.transitions, bcd.transitions);
    EXPECT_EQ(via_bp.stats.states, bcd.states);
    EXPECT_EQ(via_bp.schedule, bcd.schedule);

    const ExactGapResult bf = brute_force_min_transitions(inst);
    const SolveResult via_bf = engine_solve("brute_force", req);
    EXPECT_EQ(via_bf.transitions, bf.transitions);

    const SpanSearchResult ss = span_search_min_transitions(inst);
    const SolveResult via_ss = engine_solve("span_search", req);
    EXPECT_EQ(via_ss.transitions, ss.transitions);
    EXPECT_EQ(via_ss.stats.nodes, ss.nodes);

    const FhknResult greedy = fhkn_greedy(inst);
    const SolveResult via_greedy = engine_solve("fhkn_greedy", req);
    EXPECT_EQ(via_greedy.transitions, greedy.transitions);

    const LazyResult lz = lazy_schedule(inst);
    const SolveResult via_lazy = engine_solve("lazy", req);
    EXPECT_EQ(via_lazy.transitions, lz.transitions);

    const OnlineResult oe = online_edf(inst);
    const SolveResult via_online = engine_solve("online_edf", req);
    EXPECT_EQ(via_online.transitions, oe.transitions);
  }
}

TEST(Dispatch, PowerSolversMatchDirectCalls) {
  for (int seed = 0; seed < 8; ++seed) {
    const Instance inst = small_instance(200 + seed);
    const double alpha = 0.5 + seed;
    SolveRequest req{inst, Objective::kPower, {}};
    req.params.alpha = alpha;
    req.params.decompose = false;

    const PowerDpResult dp = solve_power_dp(inst, alpha);
    const SolveResult via_dp = engine_solve("power_dp", req);
    ASSERT_TRUE(via_dp.ok) << via_dp.error;
    EXPECT_EQ(via_dp.feasible, dp.feasible);
    EXPECT_DOUBLE_EQ(via_dp.cost, dp.power);
    EXPECT_EQ(via_dp.schedule, dp.schedule);

    const ExactPowerResult bf = brute_force_min_power(inst, alpha);
    const SolveResult via_bf = engine_solve("power_brute_force", req);
    EXPECT_DOUBLE_EQ(via_bf.cost, bf.power);

    const PowerMinApproxResult apx = powermin_approx(inst, alpha);
    const SolveResult via_apx = engine_solve("powermin_approx", req);
    EXPECT_DOUBLE_EQ(via_apx.cost, apx.power);
    EXPECT_EQ(via_apx.transitions, apx.transitions);

    const OnlinePowerdownResult pd = online_powerdown(inst, alpha);
    const SolveResult via_pd = engine_solve("online_powerdown", req);
    EXPECT_DOUBLE_EQ(via_pd.cost, pd.power);
  }
}

TEST(Dispatch, ThroughputSolverMatchesDirectCall) {
  Prng rng(4242);
  const Instance inst = gen_multi_interval(rng, 9, 20, 2, 2);
  for (std::size_t k = 1; k <= 3; ++k) {
    SolveRequest req{inst, Objective::kThroughput, {}};
    req.params.max_spans = k;
    const RestartResult direct = restart_greedy(inst, k);
    const SolveResult via = engine_solve("restart_greedy", req);
    ASSERT_TRUE(via.ok) << via.error;
    EXPECT_EQ(via.stats.scheduled, direct.scheduled);
    EXPECT_EQ(via.cost, static_cast<double>(direct.scheduled));
    EXPECT_EQ(via.schedule, direct.schedule);
  }
}

// -------------------------------------------------------------- validation --

TEST(Validation, WrongObjectiveIsRejected) {
  SolveRequest req{small_instance(7), Objective::kPower, {}};
  const SolveResult r = engine_solve("gap_dp", req);
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("objective"), std::string::npos);
}

TEST(Validation, OneIntervalRequirementIsEnforced) {
  Prng rng(11);
  SolveRequest req{gen_multi_interval(rng, 6, 18, 2, 2), Objective::kGaps, {}};
  ASSERT_FALSE(req.instance.is_one_interval());
  EXPECT_FALSE(engine_solve("gap_dp", req).ok);
  EXPECT_FALSE(engine_solve("baptiste", req).ok);
  EXPECT_FALSE(engine_solve("lazy", req).ok);
  // The multi-interval-capable families accept the same request.
  EXPECT_TRUE(engine_solve("brute_force", req).ok);
  EXPECT_TRUE(engine_solve("span_search", req).ok);
}

TEST(Validation, SizeAndProcessorCapsAreEnforced) {
  Prng rng(13);
  SolveRequest big{gen_feasible_one_interval(rng, 24, 48, 2, 1),
                   Objective::kGaps, {}};
  const SolveResult r = engine_solve("brute_force", big);
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("capped"), std::string::npos);

  SolveRequest multi{gen_feasible_one_interval(rng, 6, 8, 2, 2),
                     Objective::kGaps, {}};
  ASSERT_EQ(multi.instance.processors, 2);
  EXPECT_FALSE(engine_solve("fhkn_greedy", multi).ok);
  EXPECT_FALSE(engine_solve("span_search", multi).ok);
  EXPECT_TRUE(engine_solve("gap_dp", multi).ok);
}

TEST(Validation, BadParametersAreRejected) {
  SolveRequest req{small_instance(17), Objective::kPower, {}};
  req.params.alpha = -1.0;
  EXPECT_FALSE(engine_solve("power_dp", req).ok);

  SolveRequest tp{small_instance(18), Objective::kThroughput, {}};
  tp.params.max_spans = 0;
  EXPECT_FALSE(engine_solve("restart_greedy", tp).ok);
}

TEST(Validation, MalformedInstanceIsRejected) {
  SolveRequest req;
  req.objective = Objective::kGaps;
  req.instance.processors = 0;
  req.instance.jobs.push_back(Job{TimeSet::window(0, 3)});
  const SolveResult r = engine_solve("gap_dp", req);
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("invalid instance"), std::string::npos);
}

TEST(Validation, TimeLimitFlagsLongSolves) {
  SolveRequest req{small_instance(19), Objective::kGaps, {}};
  req.params.time_limit_s = 1e-12;  // everything exceeds this
  const SolveResult r = engine_solve("gap_dp", req);
  ASSERT_TRUE(r.ok);
  EXPECT_TRUE(r.timed_out);

  req.params.time_limit_s = 1e6;  // nothing exceeds this
  EXPECT_FALSE(engine_solve("gap_dp", req).timed_out);
}

// io::kMaxTime is the readers' bound on job times. Every family must answer
// jobs at both ends of it as it answers the same clusters brought 10^6
// apart, oracle-audited, with decomposition on and off: no int64 sum of
// two bounded times' difference and a margin overflows on the way.
TEST(Validation, JobsAtTheReaderTimeBoundSolveInEveryFamily) {
  const auto clusters = [](Time left, Time right) {
    Instance inst;
    for (Time t : {left, right}) {
      inst.jobs.push_back(Job{TimeSet::window(t, t + 2)});
      inst.jobs.push_back(Job{TimeSet::window(t + 1, t + 2)});
    }
    return inst;
  };
  const Instance edge = clusters(-io::kMaxTime, io::kMaxTime - 2);
  const Instance near = clusters(0, 1000000);
  for (const Solver* solver : SolverRegistry::instance().all()) {
    const std::string& name = solver->info().name;
    for (bool decompose : {true, false}) {
      SolveRequest req{edge, solver->info().objective, {}};
      req.params.validate = true;
      req.params.decompose = decompose;
      const SolveResult got = engine_solve(name, req);
      req.instance = near;
      const SolveResult want = engine_solve(name, req);
      const std::string where = name + (decompose ? "" : " --no-decompose");
      ASSERT_TRUE(got.ok) << where << ": " << got.error;
      EXPECT_TRUE(got.audited) << where;
      EXPECT_EQ(got.audit_error, "") << where;
      EXPECT_TRUE(got.feasible) << where;
      EXPECT_EQ(got.cost, want.cost) << where;
    }
  }
}

// ------------------------------------------------------------- solve_batch --

/// Strips wall-clock noise so batches can be compared bitwise.
struct Essence {
  bool ok, feasible;
  double cost;
  std::int64_t transitions;
  Schedule schedule;
  std::size_t states;
  bool operator==(const Essence&) const = default;
};

std::vector<Essence> essence(const std::vector<SolveResult>& results) {
  std::vector<Essence> out;
  out.reserve(results.size());
  for (const SolveResult& r : results) {
    out.push_back(
        {r.ok, r.feasible, r.cost, r.transitions, r.schedule, r.stats.states});
  }
  return out;
}

TEST(EngineBatch, DeterministicAcrossThreadCounts) {
  std::vector<BatchJob> jobs;
  const char* solvers[] = {"gap_dp", "baptiste", "fhkn_greedy", "power_dp",
                           "restart_greedy"};
  for (int seed = 0; seed < 10; ++seed) {
    for (const char* solver : solvers) {
      BatchJob job;
      job.solver = solver;
      job.request.instance = small_instance(300 + seed);
      const Objective obj =
          SolverRegistry::instance().find(solver)->info().objective;
      job.request.objective = obj;
      job.request.params.max_spans = 2;
      jobs.push_back(std::move(job));
    }
  }

  const std::vector<Essence> one = essence(batch_solve(jobs, 1));
  const std::vector<Essence> two = essence(batch_solve(jobs, 2));
  const std::vector<Essence> eight = essence(batch_solve(jobs, 8));
  EXPECT_EQ(one, two);
  EXPECT_EQ(one, eight);

  // And each slot answers its own request: spot-check against direct calls.
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    ASSERT_TRUE(one[i].ok) << i;
    const SolveResult direct = engine_solve(jobs[i].solver, jobs[i].request);
    EXPECT_EQ(one[i].cost, direct.cost) << i;
  }
}

TEST(EngineBatch, UnknownSolverYieldsPerEntryRejection) {
  std::vector<BatchJob> jobs(3);
  jobs[0] = {"gap_dp", {small_instance(1), Objective::kGaps, {}}};
  jobs[1] = {"no_such_solver", {small_instance(2), Objective::kGaps, {}}};
  jobs[2] = {"baptiste", {small_instance(3), Objective::kGaps, {}}};
  const std::vector<SolveResult> results = batch_solve(jobs, 2);
  ASSERT_EQ(results.size(), 3u);
  EXPECT_TRUE(results[0].ok);
  EXPECT_FALSE(results[1].ok);
  EXPECT_NE(results[1].error.find("unknown solver"), std::string::npos);
  EXPECT_TRUE(results[2].ok);
}

TEST(EngineBatch, SingleSolverBatchKeepsRequestOrder) {
  std::vector<BatchJob> jobs;
  for (int seed = 0; seed < 6; ++seed) {
    BatchJob job{"gap_dp", {small_instance(400 + seed), Objective::kGaps, {}}};
    // Raw-path parity against the direct DP call (see the Dispatch note).
    job.request.params.decompose = false;
    jobs.push_back(std::move(job));
  }
  const std::vector<SolveResult> results = batch_solve(jobs, 3);
  ASSERT_EQ(results.size(), jobs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const GapDpResult direct = solve_gap_dp(jobs[i].request.instance);
    ASSERT_TRUE(results[i].ok);
    EXPECT_EQ(results[i].transitions, direct.transitions) << i;
    EXPECT_EQ(results[i].schedule, direct.schedule) << i;
  }
}

}  // namespace
}  // namespace gapsched::engine
