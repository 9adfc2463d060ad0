// Registry-wide differential testing: every catalog scenario is fanned
// through Engine::solve_batch across every registered solver family, and the
// results are pinned against each other and against the independent oracle:
//
//   * exact families agree on feasibility and on the objective value,
//   * every returned schedule and cost survives the oracle audit,
//   * no heuristic ever beats the exact optimum,
//   * the throughput greedy never beats the exhaustive restart optimum.
//
// The whole sweep runs through a persistent engine::Engine with its solve
// cache ON: identical components dedup, repeated canonical forms hit the
// cache, and every served answer — cached or fresh — must still survive the
// oracle and agree with its exact peers. This doubles as the cache's
// soundness sweep across the catalog.
//
// Runs under the `long` ctest label. Failures print the scenario name and
// the PRNG seed; replay with GAPSCHED_TEST_SEED=<base> (see README).

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <string>
#include <tuple>
#include <vector>

#include "gapsched/engine/engine.hpp"
#include "gapsched/restart/restart_greedy.hpp"
#include "gapsched/scenarios/scenarios.hpp"
#include "../support/test_seed.hpp"

namespace gapsched {
namespace {

using engine::BatchJob;
using engine::Objective;
using engine::SolveResult;
using engine::Solver;
using engine::SolverRegistry;
using scenarios::Scenario;
using scenarios::ScenarioCatalog;

constexpr int kSeedsPerScenario = 6;
constexpr double kAlpha = 2.5;
constexpr std::size_t kMaxSpans = 2;

/// Relative tolerance for double-valued power costs (the exact DPs and the
/// oracle accumulate the same quantities in different orders).
double power_tol(double a, double b) {
  return 1e-9 * std::max({1.0, std::fabs(a), std::fabs(b)});
}

TEST(Differential, RegistryWideAgreementOnCatalog) {
  engine::Engine eng;  // solve cache ON: cached answers face the same bar
  const SolverRegistry& registry = eng.registry();
  const std::vector<const Solver*> solvers = registry.all();
  ASSERT_EQ(solvers.size(), 14u) << "differential suite expects every "
                                    "registered family to participate";
  const std::vector<const Scenario*> catalog =
      ScenarioCatalog::instance().all();
  ASSERT_GE(catalog.size(), 10u);

  std::map<std::string, int> solved_cells;  // family -> cells it answered

  for (std::size_t sc_idx = 0; sc_idx < catalog.size(); ++sc_idx) {
    const Scenario* sc = catalog[sc_idx];
    SCOPED_TRACE(::testing::Message() << "scenario " << sc->name);
    for (int draw = 0; draw < kSeedsPerScenario; ++draw) {
      const std::uint64_t seed = testing::seed_for(sc_idx * 97 + draw);
      GAPSCHED_TRACE_SEED(seed);
      const Instance inst = sc->make(seed);

      std::vector<BatchJob> batch;
      batch.reserve(solvers.size());
      for (const Solver* solver : solvers) {
        BatchJob job;
        job.solver = solver->info().name;
        job.request.instance = inst;
        job.request.objective = solver->info().objective;
        job.request.params.alpha = kAlpha;
        job.request.params.max_spans = kMaxSpans;
        job.request.params.validate = true;
        batch.push_back(std::move(job));
      }
      const std::vector<SolveResult> results = eng.solve_batch(batch);
      ASSERT_EQ(results.size(), solvers.size());

      // -- oracle: every produced answer survives the independent audit --
      for (std::size_t i = 0; i < solvers.size(); ++i) {
        if (!results[i].ok) continue;  // envelope rejection, not an answer
        ++solved_cells[solvers[i]->info().name];
        EXPECT_TRUE(results[i].audited) << solvers[i]->info().name;
        EXPECT_EQ(results[i].audit_error, "")
            << solvers[i]->info().name << ": " << results[i].audit_error;
      }

      // -- exact families agree with each other ---------------------------
      // Feasibility is one question across both complete-schedule
      // objectives, so every exact verdict must match.
      int feasible_verdict = -1;  // -1 unknown, else 0/1
      std::int64_t gap_opt = -1;
      const char* gap_opt_from = nullptr;
      double power_opt = -1.0;
      const char* power_opt_from = nullptr;
      for (std::size_t i = 0; i < solvers.size(); ++i) {
        const engine::SolverInfo& info = solvers[i]->info();
        if (!info.exact || !results[i].ok) continue;
        const int feas = results[i].feasible ? 1 : 0;
        if (feasible_verdict == -1) {
          feasible_verdict = feas;
        } else {
          EXPECT_EQ(feas, feasible_verdict)
              << info.name << " disagrees on feasibility";
        }
        if (!results[i].feasible) continue;
        if (info.objective == Objective::kGaps) {
          if (gap_opt_from == nullptr) {
            gap_opt = results[i].transitions;
            gap_opt_from = info.name.c_str();
          } else {
            EXPECT_EQ(results[i].transitions, gap_opt)
                << info.name << " vs " << gap_opt_from;
          }
        } else if (info.objective == Objective::kPower) {
          if (power_opt_from == nullptr) {
            power_opt = results[i].cost;
            power_opt_from = info.name.c_str();
          } else {
            EXPECT_NEAR(results[i].cost, power_opt,
                        power_tol(results[i].cost, power_opt))
                << info.name << " vs " << power_opt_from;
          }
        }
      }

      // -- the catalog's advertised guarantees hold -----------------------
      ASSERT_NE(feasible_verdict, -1)
          << "no exact solver accepted this scenario";
      if (sc->always_feasible) {
        EXPECT_EQ(feasible_verdict, 1);
      }
      if (sc->always_infeasible) {
        EXPECT_EQ(feasible_verdict, 0);
      }

      // -- heuristics are bounded below by the exact optimum --------------
      for (std::size_t i = 0; i < solvers.size(); ++i) {
        const engine::SolverInfo& info = solvers[i]->info();
        if (info.exact || !results[i].ok || !results[i].feasible) continue;
        if (info.objective == Objective::kThroughput) continue;
        // A complete schedule that passed the oracle certifies feasibility,
        // so an exact "infeasible" verdict would be a contradiction.
        EXPECT_EQ(feasible_verdict, 1)
            << info.name << " produced a valid schedule on an instance the "
            << "exact solvers call infeasible";
        if (info.objective == Objective::kGaps && gap_opt_from != nullptr) {
          EXPECT_GE(results[i].transitions, gap_opt)
              << info.name << " beat the exact optimum " << gap_opt_from;
        }
        if (info.objective == Objective::kPower && power_opt_from != nullptr) {
          EXPECT_GE(results[i].cost,
                    power_opt - power_tol(results[i].cost, power_opt))
              << info.name << " beat the exact optimum " << power_opt_from;
        }
      }

      // -- throughput: greedy never beats the exhaustive optimum ----------
      const Time horizon =
          inst.n() == 0 ? 0 : inst.latest_deadline() - inst.earliest_release();
      if (inst.n() <= 9 && inst.processors == 1 && horizon <= 40) {
        for (std::size_t i = 0; i < solvers.size(); ++i) {
          if (solvers[i]->info().objective != Objective::kThroughput ||
              !results[i].ok) {
            continue;
          }
          const std::size_t exact_max = restart_exact_max_jobs(inst, kMaxSpans);
          EXPECT_LE(results[i].stats.scheduled, exact_max)
              << solvers[i]->info().name << " beat the exhaustive optimum";
        }
      }
    }
  }

  // Acceptance: all 14 families actually answered somewhere in the sweep.
  for (const Solver* solver : solvers) {
    EXPECT_GE(solved_cells[solver->info().name], 1)
        << solver->info().name << " never ran inside its envelope";
  }
}

// The prep decomposition pipeline (on by default for the exact gap/power
// families) must be invisible in every verdict: identical feasibility and
// objective value, and oracle-clean schedules, for every family on every
// catalog scenario. Heuristic and throughput families ignore the flag, so
// for them this doubles as a determinism check.
//
// Every (scenario, draw) cell is checked exactly once. The slow scenarios
// (span_search with decomposition off takes 35-50 s a draw on
// power_longhaul) get one parameterized case per draw, so ctest times each
// cell and runs them side by side; every other cell (all together a few
// seconds) runs in Differential.DecompositionOnVsOffAgreesAcrossCatalog.
constexpr int kDecompositionDraws = 3;
const std::vector<std::string> kSlowDecompositionScenarios = {
    "power_longhaul"};

bool is_slow_decomposition_scenario(const std::string& name) {
  return std::find(kSlowDecompositionScenarios.begin(),
                   kSlowDecompositionScenarios.end(),
                   name) != kSlowDecompositionScenarios.end();
}

void expect_decomposition_invisible(std::size_t sc_idx, int draw) {
  // Cache OFF here: the on/off pair must be two genuinely independent
  // solves, not one solve and one canonical-key lookup of it.
  engine::Engine eng({.cache = false});
  const std::vector<const Solver*> solvers = eng.registry().all();
  const Scenario* sc = ScenarioCatalog::instance().all().at(sc_idx);
  SCOPED_TRACE(::testing::Message() << "scenario " << sc->name);
  const std::uint64_t seed = testing::seed_for(7000 + sc_idx * 53 + draw);
  GAPSCHED_TRACE_SEED(seed);
  const Instance inst = sc->make(seed);

  // Adjacent batch slots: [2i] decomposed (default), [2i+1] monolithic.
  std::vector<BatchJob> batch;
  batch.reserve(2 * solvers.size());
  for (const Solver* solver : solvers) {
    BatchJob job;
    job.solver = solver->info().name;
    job.request.instance = inst;
    job.request.objective = solver->info().objective;
    job.request.params.alpha = kAlpha;
    job.request.params.max_spans = kMaxSpans;
    job.request.params.validate = true;
    BatchJob mono = job;
    mono.request.params.decompose = false;
    batch.push_back(std::move(job));
    batch.push_back(std::move(mono));
  }
  const std::vector<SolveResult> results = eng.solve_batch(batch);
  ASSERT_EQ(results.size(), 2 * solvers.size());

  for (std::size_t i = 0; i < solvers.size(); ++i) {
    const engine::SolverInfo& info = solvers[i]->info();
    const SolveResult& on = results[2 * i];
    const SolveResult& off = results[2 * i + 1];
    SCOPED_TRACE(::testing::Message() << "family " << info.name);
    ASSERT_EQ(on.ok, off.ok) << on.error << " vs " << off.error;
    if (!on.ok) continue;
    EXPECT_EQ(on.audit_error, "") << on.audit_error;
    EXPECT_EQ(off.audit_error, "") << off.audit_error;
    ASSERT_EQ(on.feasible, off.feasible);
    if (!on.feasible) continue;
    if (info.objective == Objective::kPower) {
      EXPECT_NEAR(on.cost, off.cost, power_tol(on.cost, off.cost));
    } else {
      EXPECT_EQ(on.cost, off.cost);
      EXPECT_EQ(on.transitions, off.transitions);
    }
    EXPECT_EQ(on.schedule.scheduled_count(), off.schedule.scheduled_count());
  }
}

TEST(Differential, DecompositionOnVsOffAgreesAcrossCatalog) {
  const std::vector<const Scenario*> catalog =
      ScenarioCatalog::instance().all();
  // A slow name that left the catalog would silently drop no cell, but it
  // would leave a stale split behind: keep the list honest.
  for (const std::string& name : kSlowDecompositionScenarios) {
    EXPECT_TRUE(std::any_of(catalog.begin(), catalog.end(),
                            [&](const Scenario* sc) { return sc->name == name; }))
        << name << " is not a catalog scenario";
  }
  for (std::size_t sc_idx = 0; sc_idx < catalog.size(); ++sc_idx) {
    if (is_slow_decomposition_scenario(catalog[sc_idx]->name)) continue;
    for (int draw = 0; draw < kDecompositionDraws; ++draw) {
      expect_decomposition_invisible(sc_idx, draw);
    }
  }
}

class DecompositionOnVsOff
    : public ::testing::TestWithParam<std::tuple<std::size_t, int>> {};

TEST_P(DecompositionOnVsOff, AgreesOnCatalogDraw) {
  const auto [sc_idx, draw] = GetParam();
  expect_decomposition_invisible(sc_idx, draw);
}

std::vector<std::tuple<std::size_t, int>> slow_decomposition_cells() {
  const std::vector<const Scenario*> catalog =
      ScenarioCatalog::instance().all();
  std::vector<std::tuple<std::size_t, int>> cells;
  for (std::size_t sc_idx = 0; sc_idx < catalog.size(); ++sc_idx) {
    if (!is_slow_decomposition_scenario(catalog[sc_idx]->name)) continue;
    for (int draw = 0; draw < kDecompositionDraws; ++draw) {
      cells.emplace_back(sc_idx, draw);
    }
  }
  return cells;
}

INSTANTIATE_TEST_SUITE_P(
    Catalog, DecompositionOnVsOff,
    ::testing::ValuesIn(slow_decomposition_cells()),
    [](const ::testing::TestParamInfo<std::tuple<std::size_t, int>>& info) {
      return ScenarioCatalog::instance().all()[std::get<0>(info.param)]->name +
             "_draw" + std::to_string(std::get<1>(info.param));
    });

}  // namespace
}  // namespace gapsched
