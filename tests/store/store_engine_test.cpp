// Engine-level behavior of the persistent store tier: warm restarts serve
// oracle-gated disk hits with costs identical to the cold run, the
// cost-weighted spill threshold keeps cheap solves off disk, two live
// Engines share one store file through the tail rescan, the solve cache's
// disk counters surface through Engine::cache_stats(), and a store the
// engine runs without is always explained by store_error(). These also
// run under the CI ASan/TSan lanes (Store* filter).

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "gapsched/engine/engine.hpp"
#include "gapsched/scenarios/scenarios.hpp"
#include "gapsched/store/store.hpp"
#include "../support/temp_path.hpp"

namespace gapsched::store {
namespace {

constexpr const char* kSolver = "gap_dp";

/// A fresh store path, unique to this process (see support/temp_path.hpp).
std::string temp_path(const std::string& name) {
  return testing::temp_path(name, ".store");
}

std::vector<engine::SolveRequest> scenario_requests() {
  std::vector<engine::SolveRequest> requests;
  for (const char* name : {"sparse_spread", "hall_critical", "nested_windows"}) {
    const auto inst = scenarios::make_scenario(name, 11);
    EXPECT_TRUE(inst.has_value()) << name;
    engine::SolveRequest req;
    req.instance = *inst;
    req.params.validate = true;  // every answer independently re-audited
    requests.push_back(std::move(req));
  }
  return requests;
}

engine::EngineOptions store_options(const std::string& path,
                                    double spill_min_ms = 0.0) {
  engine::EngineOptions opt;
  opt.store_path = path;
  opt.store_spill_min_ms = spill_min_ms;
  return opt;
}

TEST(StoreEngine, WarmRestartServesDiskHitsAtColdCosts) {
  const std::string path = temp_path("warm_restart");
  const std::vector<engine::SolveRequest> requests = scenario_requests();
  std::vector<double> cold_costs;
  std::vector<bool> cold_feasible;
  {
    engine::Engine cold(store_options(path));
    ASSERT_EQ(cold.store_error(), "");
    for (const engine::SolveRequest& req : requests) {
      const engine::SolveResult res = cold.solve(kSolver, req);
      ASSERT_TRUE(res.ok) << res.error;
      EXPECT_EQ(res.audit_error, "");
      cold_costs.push_back(res.cost);
      cold_feasible.push_back(res.feasible);
    }
    cold.flush_store();
    const engine::CacheStats stats = cold.cache_stats();
    EXPECT_GT(stats.spilled, 0u);
    EXPECT_EQ(stats.spilled, stats.disk_entries);
    EXPECT_EQ(stats.disk_hits, 0u);  // nothing to warm from on a cold run
  }
  // A restart: fresh process state, same store file. Every answer must be
  // bit-identical to the cold reference and pass its own oracle audit —
  // the disk tier may only ever change *where* an answer comes from.
  engine::Engine warm(store_options(path));
  ASSERT_EQ(warm.store_error(), "");
  for (std::size_t i = 0; i < requests.size(); ++i) {
    const engine::SolveResult res = warm.solve(kSolver, requests[i]);
    ASSERT_TRUE(res.ok) << res.error;
    EXPECT_EQ(res.feasible, cold_feasible[i]);
    EXPECT_EQ(res.cost, cold_costs[i]);
    EXPECT_EQ(res.audit_error, "");
  }
  const engine::CacheStats stats = warm.cache_stats();
  EXPECT_GT(stats.disk_hits, 0u);
  EXPECT_EQ(stats.disk_rejects, 0u);
}

TEST(StoreEngine, SpillThresholdKeepsCheapSolvesOffDisk) {
  const std::string path = temp_path("spill_threshold");
  engine::Engine eng(store_options(path, /*spill_min_ms=*/1e9));
  ASSERT_EQ(eng.store_error(), "");
  for (const engine::SolveRequest& req : scenario_requests()) {
    const engine::SolveResult res = eng.solve(kSolver, req);
    ASSERT_TRUE(res.ok) << res.error;
  }
  eng.flush_store();
  // No scenario solve clears a 1e9 ms bar: the store stays empty — the
  // cost-weighted admission gate is what separates "worth a disk record"
  // from "cheaper to recompute".
  const engine::CacheStats stats = eng.cache_stats();
  EXPECT_EQ(stats.spilled, 0u);
  EXPECT_EQ(stats.disk_entries, 0u);
  ASSERT_NE(eng.store(), nullptr);
  EXPECT_EQ(eng.store()->size(), 0u);
}

TEST(StoreEngine, TwoLiveEnginesShareOneStore) {
  const std::string path = temp_path("two_engines");
  const std::vector<engine::SolveRequest> requests = scenario_requests();
  // Both engines are alive at once — the CLI-session-next-to-server shape.
  engine::Engine writer(store_options(path));
  engine::Engine reader(store_options(path));
  ASSERT_EQ(writer.store_error(), "");
  ASSERT_EQ(reader.store_error(), "");

  std::vector<double> costs;
  for (const engine::SolveRequest& req : requests) {
    costs.push_back(writer.solve(kSolver, req).cost);
  }
  writer.flush_store();  // the hand-off barrier before another process reads

  // The reader's store handle indexed an empty file at construction; its
  // first index miss rescans the grown tail and finds the writer's
  // records — no reopen, no restart.
  for (std::size_t i = 0; i < requests.size(); ++i) {
    const engine::SolveResult res = reader.solve(kSolver, requests[i]);
    ASSERT_TRUE(res.ok) << res.error;
    EXPECT_EQ(res.cost, costs[i]);
    EXPECT_EQ(res.audit_error, "");
  }
  const engine::CacheStats stats = reader.cache_stats();
  EXPECT_GT(stats.disk_hits, 0u);
  EXPECT_EQ(stats.disk_rejects, 0u);
  // The reader re-solved nothing expensive, so it spilled nothing new.
  EXPECT_EQ(stats.spilled, 0u);
}

TEST(StoreEngine, StoreRequiresTheCache) {
  const std::string path = temp_path("no_cache");
  engine::EngineOptions opt;
  opt.cache = false;
  opt.store_path = path;
  engine::Engine eng(opt);
  // No cache tier means no disk tier to sit behind it; the engine still
  // constructs and solves, just without any store.
  EXPECT_EQ(eng.store(), nullptr);
  const auto inst = scenarios::make_scenario("sparse_spread", 3);
  ASSERT_TRUE(inst.has_value());
  engine::SolveRequest req;
  req.instance = *inst;
  req.params.validate = true;
  const engine::SolveResult res = eng.solve(kSolver, req);
  EXPECT_TRUE(res.ok) << res.error;
  EXPECT_EQ(res.audit_error, "");
}

TEST(StoreEngine, StorePathWithoutTheCacheIsDiagnosed) {
  // A caller that asked for a store and runs without one must be able to
  // tell: store_error() explains every missing store, this one included.
  const std::string path = temp_path("no_cache_diag");
  engine::Engine eng({.cache = false, .store_path = path});
  EXPECT_EQ(eng.store(), nullptr);
  EXPECT_NE(eng.store_error().find("requires the cache"), std::string::npos)
      << eng.store_error();
  // Nothing was opened, so nothing was created.
  EXPECT_FALSE(std::ifstream(path).is_open());
}

}  // namespace
}  // namespace gapsched::store
