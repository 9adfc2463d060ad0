// The Engine's execution layer and the staged solve pipeline's observable
// semantics: per-stage ran/skip verdicts in SolveStats::stages, component
// cache keys that match the public prep path, the PipelineStats roll-up
// callers fold from their results, solve_stream callback ordering and
// request-order guarantees, concurrent streams and short-lived callers
// contending on one shared cache, the no-double-audit invariant (cache
// hits are re-audited exactly once, by the serving request), and
// concurrent decomposed solves fanning their components out on the one
// executor. The concurrency tests here also run under the CI ASan/UBSan
// and TSan lanes.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "gapsched/dp/gap_dp.hpp"
#include "gapsched/dp/power_dp.hpp"
#include "gapsched/engine/engine.hpp"
#include "gapsched/gen/generators.hpp"
#include "gapsched/parallel/thread_pool.hpp"
#include "gapsched/core/transforms.hpp"
#include "gapsched/prep/prep.hpp"
#include "gapsched/scenarios/scenarios.hpp"
#include "gapsched/store/store.hpp"
#include "../support/temp_path.hpp"
#include "../support/test_seed.hpp"

namespace gapsched::engine {
namespace {

Instance small_instance(std::uint64_t site) {
  Prng rng(testing::seed_for(site));
  return gen_feasible_one_interval(rng, 8, 16, 3, 1);
}

/// `copies` byte-identical far-apart clusters of three jobs each.
Instance identical_clusters(int copies) {
  Instance out;
  const Time spacing = 8 + static_cast<Time>(copies) * 3 + 64;
  for (int i = 0; i < copies; ++i) {
    const Time base = static_cast<Time>(i) * spacing;
    out.jobs.push_back(Job{TimeSet::window(base, base + 4)});
    out.jobs.push_back(Job{TimeSet::window(base + 1, base + 5)});
    out.jobs.push_back(Job{TimeSet::window(base + 3, base + 7)});
  }
  return out;
}

const StageStats& stage(const SolveResult& r, PipelineStage s) {
  return r.stats.stages[static_cast<std::size_t>(s)];
}

// ------------------------------------------------ stage ran/skip verdicts --

TEST(PipelineStages, DecomposedSolveReportsThePrepStages) {
  Engine eng;
  SolveRequest req{identical_clusters(3), Objective::kGaps, {}};
  const SolveResult r = eng.solve("gap_dp", req);
  ASSERT_TRUE(r.ok) << r.error;
  // Every request is canonicalized, then cut into components. Each
  // cluster is one live interval at origin 0, already in compressed form,
  // so Compress has nothing to move and reports itself skipped.
  EXPECT_TRUE(stage(r, PipelineStage::kCanonicalize).ran);
  EXPECT_TRUE(stage(r, PipelineStage::kDecompose).ran);
  EXPECT_FALSE(stage(r, PipelineStage::kCompress).ran);
  EXPECT_TRUE(stage(r, PipelineStage::kCacheLookup).ran);
  EXPECT_TRUE(stage(r, PipelineStage::kDispatch).ran);
  EXPECT_TRUE(stage(r, PipelineStage::kRecombine).ran);
  EXPECT_FALSE(stage(r, PipelineStage::kAudit).ran);  // no --validate
}

TEST(PipelineStages, WholeInstanceCacheHitSkipsDispatch) {
  Engine eng;
  // Heuristic family: never cut, so the identity decomposition — one
  // component, cap 0, Compress skipped.
  SolveRequest req{small_instance(910), Objective::kGaps, {}};
  const SolveResult cold = eng.solve("fhkn_greedy", req);
  ASSERT_TRUE(cold.ok) << cold.error;
  EXPECT_EQ(cold.stats.components, 1u);
  EXPECT_TRUE(stage(cold, PipelineStage::kCanonicalize).ran);
  EXPECT_TRUE(stage(cold, PipelineStage::kDecompose).ran);
  EXPECT_FALSE(stage(cold, PipelineStage::kCompress).ran);
  EXPECT_TRUE(stage(cold, PipelineStage::kCacheLookup).ran);
  EXPECT_TRUE(stage(cold, PipelineStage::kDispatch).ran);
  EXPECT_TRUE(stage(cold, PipelineStage::kRecombine).ran);

  const SolveResult warm = eng.solve("fhkn_greedy", req);
  ASSERT_TRUE(warm.ok) << warm.error;
  EXPECT_TRUE(warm.stats.cache_hit);
  EXPECT_EQ(warm.stats.component_cache_hits, 1u);
  // The hit is served without invoking the family adapter; Recombine maps
  // the stored canonical schedule back to the requester's coordinates.
  EXPECT_FALSE(stage(warm, PipelineStage::kDispatch).ran);
  EXPECT_TRUE(stage(warm, PipelineStage::kRecombine).ran);
}

TEST(PipelineStages, AllComponentsCachedSkipsDispatch) {
  Engine eng;
  SolveRequest req{identical_clusters(4), Objective::kGaps, {}};
  const SolveResult cold = eng.solve("gap_dp", req);
  ASSERT_TRUE(cold.ok) << cold.error;
  EXPECT_TRUE(stage(cold, PipelineStage::kDispatch).ran);

  const SolveResult warm = eng.solve("gap_dp", req);
  ASSERT_TRUE(warm.ok) << warm.error;
  EXPECT_TRUE(warm.stats.cache_hit);
  EXPECT_EQ(warm.cost, cold.cost);
  EXPECT_FALSE(stage(warm, PipelineStage::kDispatch).ran);
  EXPECT_TRUE(stage(warm, PipelineStage::kRecombine).ran);
}

TEST(PipelineStages, CacheOffEngineSkipsTheCacheStages) {
  Engine eng({.cache = false});
  SolveRequest req{small_instance(911), Objective::kGaps, {}};
  const SolveResult r = eng.solve("fhkn_greedy", req);
  ASSERT_TRUE(r.ok) << r.error;
  // No cache: nothing to look up — the identity component goes straight
  // to Dispatch.
  EXPECT_TRUE(stage(r, PipelineStage::kCanonicalize).ran);
  EXPECT_FALSE(stage(r, PipelineStage::kCacheLookup).ran);
  EXPECT_TRUE(stage(r, PipelineStage::kDispatch).ran);
  EXPECT_TRUE(stage(r, PipelineStage::kRecombine).ran);
}

TEST(PipelineStages, AuditRunsExactlyForValidatedRequests) {
  Engine eng;
  SolveRequest req{small_instance(912), Objective::kGaps, {}};
  req.params.validate = true;
  const SolveResult cold = eng.solve("gap_dp", req);
  ASSERT_TRUE(cold.ok) << cold.error;
  EXPECT_TRUE(cold.audited);
  EXPECT_TRUE(stage(cold, PipelineStage::kAudit).ran);

  // A cache hit under --validate is re-audited by the serving request (the
  // stored entry carries no audit state), still exactly once.
  const SolveResult warm = eng.solve("gap_dp", req);
  ASSERT_TRUE(warm.ok) << warm.error;
  EXPECT_TRUE(warm.audited);
  EXPECT_TRUE(warm.audit_error.empty()) << warm.audit_error;
  EXPECT_TRUE(stage(warm, PipelineStage::kAudit).ran);

  req.params.validate = false;
  const SolveResult unaudited = eng.solve("gap_dp", req);
  ASSERT_TRUE(unaudited.ok) << unaudited.error;
  EXPECT_FALSE(unaudited.audited);
  EXPECT_FALSE(stage(unaudited, PipelineStage::kAudit).ran);
}

// ------------------------------------------------- component cache keys --

/// `copies` far-apart clusters of three jobs, cluster i with an interior
/// dead run of 3 + i units: over the gap cap (1) everywhere and over the
/// power cap at alpha = 2.5 (4) from i = 2 on, under the cut threshold n.
Instance clusters_with_dead_runs(int copies) {
  Instance out;
  for (int i = 0; i < copies; ++i) {
    const Time base = static_cast<Time>(i) * 100;
    out.jobs.push_back(Job{TimeSet::window(base, base + 1)});
    out.jobs.push_back(Job{TimeSet::window(base + 1, base + 2)});
    out.jobs.push_back(Job{TimeSet::window(base + 6 + i, base + 7 + i)});
  }
  return out;
}

TEST(PipelineStages, ComponentKeysMatchThePublicPrepPath) {
  // Every record the pipeline spills must be found again under the key the
  // public copying path builds — decompose, compress_dead_time_capped,
  // make_cache_key — so the in-place prep stages cannot drift from it.
  struct Case {
    const char* solver;
    Objective objective;
    Instance instance;
  };
  std::vector<Case> cases;
  for (const char* solver : {"gap_dp", "bcd_poly_gap"}) {
    cases.push_back({solver, Objective::kGaps, clusters_with_dead_runs(3)});
    for (const char* name : {"sparse_spread", "bursty_clusters", "poly_chain"}) {
      cases.push_back(
          {solver, Objective::kGaps, *scenarios::make_scenario(name, 7)});
    }
  }
  cases.push_back({"power_dp", Objective::kPower, clusters_with_dead_runs(3)});
  for (const char* name : {"sparse_spread", "power_longhaul"}) {
    cases.push_back(
        {"power_dp", Objective::kPower, *scenarios::make_scenario(name, 7)});
  }
  const auto request_of = [](const Case& c) {
    SolveRequest req{c.instance, c.objective, {}};
    req.params.alpha = 2.5;
    return req;
  };

  const std::string path = testing::temp_path("component_keys", ".store");
  std::vector<SolverInfo> infos;
  std::vector<bool> compress_ran;
  {
    EngineOptions opt;
    opt.store_path = path;
    opt.store_spill_min_ms = 0.0;
    Engine eng(opt);
    ASSERT_EQ(eng.store_error(), "");
    for (const Case& c : cases) {
      const SolveResult r = eng.solve(c.solver, request_of(c));
      ASSERT_TRUE(r.ok && r.feasible) << c.solver << ": " << r.error;
      compress_ran.push_back(stage(r, PipelineStage::kCompress).ran);
      infos.push_back(eng.registry().find(c.solver)->info());
    }
    eng.flush_store();
  }

  std::string error;
  const auto store = store::DiskStore::open(path, {}, &error);
  ASSERT_NE(store, nullptr) << error;
  std::size_t multi_component = 0;
  std::size_t probed = 0;
  std::size_t compressed_cases = 0;
  for (std::size_t i = 0; i < cases.size(); ++i) {
    const Case& c = cases[i];
    const SolveRequest req = request_of(c);
    const bool power = c.objective == Objective::kPower;
    const Time alpha_ceil = static_cast<Time>(std::ceil(req.params.alpha));
    const Time n = static_cast<Time>(c.instance.n());
    const prep::Decomposition dec =
        prep::decompose(c.instance, power ? std::max(n, alpha_ceil) : n);
    const Time cap = power ? alpha_ceil + 1 : 1;
    if (dec.components.size() > 1) ++multi_component;
    bool moved = false;
    for (const prep::Component& comp : dec.components) {
      const CompressedInstance compressed =
          compress_dead_time_capped(comp.instance, cap);
      moved = moved || !compressed.identity();
      const CacheKey key = make_cache_key(infos[i], c.objective, req.params,
                                          compressed.instance);
      ++probed;
      EXPECT_TRUE(store->load(key.digest, key.text).has_value())
          << c.solver << " component at shift " << comp.shift;
    }
    // Compress reports itself ran exactly when it moved some component.
    EXPECT_EQ(compress_ran[i], moved) << c.solver << " case " << i;
    if (moved) ++compressed_cases;
  }
  EXPECT_GT(probed, cases.size());
  EXPECT_GE(multi_component, 3u);  // one per solver at least
  EXPECT_GE(compressed_cases, 3u);  // the dead-run clusters, per solver
}

// ----------------------------------------------------- the stats roll-up --

TEST(Session, PipelineStatsTallyRunsAndSkipsAcrossRequests) {
  Engine eng;
  SolveRequest req{small_instance(913), Objective::kGaps, {}};
  req.params.validate = true;
  pipeline::PipelineStats stats;
  stats.absorb(eng.solve("gap_dp", req));  // cold: dispatch runs
  stats.absorb(eng.solve("gap_dp", req));  // warm: served from the cache

  EXPECT_EQ(stats.requests, 2u);
  const auto& dispatch =
      stats.stages[static_cast<std::size_t>(PipelineStage::kDispatch)];
  const auto& lookup =
      stats.stages[static_cast<std::size_t>(PipelineStage::kCacheLookup)];
  const auto& audit =
      stats.stages[static_cast<std::size_t>(PipelineStage::kAudit)];
  EXPECT_EQ(dispatch.runs, 1u);
  EXPECT_EQ(dispatch.skips, 1u);
  EXPECT_EQ(lookup.runs, 2u);
  EXPECT_EQ(lookup.skips, 0u);
  // Both requests asked for validation; both answers were audited — the
  // hit re-audits against the requester's own instance, exactly once each.
  EXPECT_EQ(audit.runs, 2u);
  EXPECT_EQ(audit.skips, 0u);
  // Every stage row accounts for every absorbed request.
  for (const pipeline::StageTally& t : stats.stages) {
    EXPECT_EQ(t.runs + t.skips, stats.requests);
  }
}

TEST(Session, RejectionsAreAbsorbedAsAllSkipRows) {
  Engine eng;
  SolveRequest req{small_instance(914), Objective::kGaps, {}};
  const SolveResult unknown = eng.solve("no_such_solver", req);
  EXPECT_FALSE(unknown.ok);

  SolveRequest wrong = req;
  wrong.objective = Objective::kPower;  // gap_dp rejects at check()
  const SolveResult rejected = eng.solve("gap_dp", wrong);
  EXPECT_FALSE(rejected.ok);

  pipeline::PipelineStats stats;
  stats.absorb(unknown);
  stats.absorb(rejected);
  EXPECT_EQ(stats.requests, 2u);
  EXPECT_EQ(stats.rejected, 2u);
  for (const pipeline::StageTally& t : stats.stages) {
    EXPECT_EQ(t.runs, 0u);
    EXPECT_EQ(t.skips, 2u);
  }
}

// ---------------------------------------------------- streaming semantics --

TEST(Session, StreamCallbacksAreSerializedAndCoverEveryIndexOnce) {
  Engine eng({.threads = 4});
  std::vector<BatchJob> jobs;
  for (int i = 0; i < 24; ++i) {
    jobs.push_back({"gap_dp",
                    {small_instance(920 + static_cast<std::uint64_t>(i)),
                     Objective::kGaps,
                     {}}});
  }

  std::atomic<int> in_callback{0};
  std::atomic<bool> overlapped{false};
  std::vector<std::size_t> delivered;
  const std::vector<SolveResult> results =
      eng.solve_stream(jobs, [&](std::size_t index, const SolveResult& r) {
        // Invocations are serialized: no two callbacks may overlap.
        if (in_callback.fetch_add(1) != 0) overlapped = true;
        EXPECT_TRUE(r.ok) << r.error;
        delivered.push_back(index);
        in_callback.fetch_sub(1);
      });

  EXPECT_FALSE(overlapped.load());
  ASSERT_EQ(results.size(), jobs.size());
  // Completion order is unconstrained, but every index arrives exactly
  // once, and the returned vector restores request order: results[i]
  // answers jobs[i] (solver families are deterministic, so re-solving the
  // same request must reproduce the streamed answer bit for bit).
  EXPECT_EQ(std::set<std::size_t>(delivered.begin(), delivered.end()).size(),
            jobs.size());
  Engine check({.cache = false});
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const SolveResult expect = check.solve("gap_dp", jobs[i].request);
    EXPECT_EQ(results[i].cost, expect.cost) << "index " << i;
    EXPECT_EQ(results[i].schedule, expect.schedule) << "index " << i;
  }
}

TEST(Session, ConcurrentStreamsShareOneEngineWithoutDoubleAudit) {
  // Several threads stream overlapping batches through ONE engine: the
  // shared cache serves hits across streams, every stream keeps request
  // order, and each audited answer is audited by its own request exactly
  // once (audit runs == validated requests, never more).
  Engine eng({.threads = 2});
  constexpr int kStreams = 4;
  constexpr int kJobsPerStream = 12;
  std::vector<BatchJob> jobs;
  for (int i = 0; i < kJobsPerStream; ++i) {
    // Only 3 distinct instances per stream -> heavy cache contention.
    SolveRequest req{small_instance(940 + static_cast<std::uint64_t>(i % 3)),
                     Objective::kGaps,
                     {}};
    req.params.validate = true;
    jobs.push_back({"gap_dp", req});
  }

  std::vector<std::vector<SolveResult>> all(kStreams);
  std::vector<std::thread> threads;
  std::atomic<std::size_t> callbacks{0};
  for (int t = 0; t < kStreams; ++t) {
    threads.emplace_back([&, t] {
      all[t] = eng.solve_stream(
          jobs, [&](std::size_t, const SolveResult&) { ++callbacks; });
    });
  }
  for (std::thread& th : threads) th.join();

  EXPECT_EQ(callbacks.load(), static_cast<std::size_t>(kStreams) *
                                  kJobsPerStream);
  const SolveResult expect0 = Engine({.cache = false}).solve(
      "gap_dp", jobs[0].request);
  for (int t = 0; t < kStreams; ++t) {
    ASSERT_EQ(all[t].size(), jobs.size());
    for (std::size_t i = 0; i < all[t].size(); ++i) {
      const SolveResult& r = all[t][i];
      ASSERT_TRUE(r.ok) << r.error;
      EXPECT_TRUE(r.audited);
      EXPECT_TRUE(r.audit_error.empty()) << r.audit_error;
      // Request order held under contention: entry i answers jobs[i].
      EXPECT_EQ(r.cost, all[0][i].cost) << "stream " << t << " index " << i;
    }
    EXPECT_EQ(all[t][0].cost, expect0.cost);
  }

  // No double-audit: the Audit stage ran once per request — absorbed runs
  // equal the number of validated requests, even though most answers were
  // cache hits re-served across streams.
  pipeline::PipelineStats stats;
  for (const std::vector<SolveResult>& stream : all) {
    for (const SolveResult& r : stream) stats.absorb(r);
  }
  EXPECT_EQ(stats.requests,
            static_cast<std::uint64_t>(kStreams) * kJobsPerStream);
  EXPECT_EQ(stats.audited, stats.requests);
  EXPECT_EQ(stats.refuted, 0u);
  const auto& audit =
      stats.stages[static_cast<std::size_t>(PipelineStage::kAudit)];
  EXPECT_EQ(audit.runs, stats.requests);
  EXPECT_EQ(audit.skips, 0u);
}

TEST(Session, StandaloneSessionSharesRegistryAndCacheWithAnother) {
  // Two callers around one registry and one cache, each passing the cache
  // to Solver::solve — the shape of two shard workers on one Engine. A
  // solve by one caller warms the other.
  auto registry = SolverRegistry::create_with_builtins();
  SolveCache cache(128);
  const Solver* gap_dp = registry->find("gap_dp");
  ASSERT_NE(gap_dp, nullptr);
  pipeline::PipelineStats a;
  pipeline::PipelineStats b;

  SolveRequest req{small_instance(950), Objective::kGaps, {}};
  const SolveResult cold = gap_dp->solve(req, &cache);
  a.absorb(cold);
  ASSERT_TRUE(cold.ok) << cold.error;
  EXPECT_FALSE(cold.stats.cache_hit);

  const SolveResult warm = gap_dp->solve(req, &cache);
  b.absorb(warm);
  ASSERT_TRUE(warm.ok) << warm.error;
  EXPECT_TRUE(warm.stats.cache_hit);
  EXPECT_EQ(warm.cost, cold.cost);

  // Each caller keeps its own roll-up.
  EXPECT_EQ(a.requests, 1u);
  EXPECT_EQ(b.requests, 1u);
  EXPECT_EQ(a.cache_hits, 0u);
  EXPECT_EQ(b.cache_hits, 1u);
}

TEST(Session, ChurningShortLivedSessionsLeaveSharedStateIntact) {
  // Many short-lived callers come and go concurrently around one registry
  // + one cache, each keeping its own PipelineStats. Warmth accumulated by
  // a finished caller must keep serving the living, and tallies folded
  // from the callers' own stats must survive all of them.
  auto registry = SolverRegistry::create_with_builtins();
  const Solver* gap_dp = registry->find("gap_dp");
  ASSERT_NE(gap_dp, nullptr);
  SolveCache cache(256);

  constexpr int kThreads = 8;
  constexpr int kCallersPerThread = 12;
  constexpr int kSites = 5;  // distinct instances, so hits are guaranteed

  std::atomic<std::uint64_t> solves{0};
  std::atomic<std::uint64_t> hits{0};
  std::atomic<std::uint64_t> failures{0};
  pipeline::PipelineStats folded;  // aggregated as each caller finishes
  std::mutex folded_mu;

  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int s = 0; s < kCallersPerThread; ++s) {
        pipeline::PipelineStats stats;  // this caller's own roll-up
        for (int r = 0; r < kSites; ++r) {
          const auto site =
              960 + static_cast<std::uint64_t>((t + s + r) % kSites);
          SolveRequest req{small_instance(site), Objective::kGaps, {}};
          req.params.validate = true;
          const SolveResult result = gap_dp->solve(req, &cache);
          stats.absorb(result);
          if (!result.ok || !result.audit_error.empty()) ++failures;
          ++solves;
          if (result.stats.cache_hit) ++hits;
        }
        std::lock_guard<std::mutex> lk(folded_mu);
        folded += stats;
        // The caller's stats die here; the cache and the fold live on.
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  const auto expected = static_cast<std::uint64_t>(kThreads) *
                        kCallersPerThread * kSites;
  EXPECT_EQ(failures.load(), 0u);
  EXPECT_EQ(solves.load(), expected);
  // The fold — assembled entirely from callers that no longer exist —
  // accounts for every request.
  EXPECT_EQ(folded.requests, expected);
  const auto& audit =
      folded.stages[static_cast<std::size_t>(PipelineStage::kAudit)];
  EXPECT_EQ(audit.runs, expected);
  // Only kSites distinct instances exist: all but the cold solves were
  // served from cache warmed by (mostly) already-finished callers.
  EXPECT_GE(hits.load(), expected - kSites * kThreads);
  EXPECT_GT(hits.load(), 0u);
  EXPECT_EQ(folded.cache_hits, hits.load());
  const CacheStats after = cache.stats();
  EXPECT_EQ(after.hits, hits.load());
  EXPECT_EQ(after.entries, static_cast<std::size_t>(kSites));

  // The shared state is still serviceable after the churn: a fresh
  // caller gets a warm answer immediately.
  SolveRequest req{small_instance(960), Objective::kGaps, {}};
  const SolveResult warm = gap_dp->solve(req, &cache);
  ASSERT_TRUE(warm.ok) << warm.error;
  EXPECT_TRUE(warm.stats.cache_hit);
}

// ------------------------------------------- concurrent executor stress --

/// Three far-apart poly_scale:20 draws: three 20-job components, each over
/// the Dispatch fan-out bar, so one request runs its component DPs as
/// executor tasks.
Instance three_parallel_components() {
  Instance out;
  Time offset = 0;
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    const Instance tile = *scenarios::make_scenario("poly_scale:20", seed);
    for (const Job& job : tile.jobs) {
      out.jobs.push_back(Job{job.allowed.shifted(offset)});
    }
    offset += tile.latest_deadline() + 1000;
  }
  return out;
}

TEST(ExecutorStress, ConcurrentDecomposedSolvesMatchTheSerialDp) {
  if (executor_threads() < 2) {
    GTEST_SKIP() << "the component fan-out is serial on a one-thread executor";
  }
  constexpr double kAlpha = 2.5;
  const Instance inst = three_parallel_components();
  const GapDpResult gap_ref = solve_gap_dp(inst, dp::DpOptions{});
  const PowerDpResult power_ref =
      solve_power_dp(inst, kAlpha, dp::DpOptions{});
  ASSERT_TRUE(gap_ref.feasible);
  ASSERT_TRUE(power_ref.feasible);

  EngineOptions opts;
  opts.cache = false;  // every request solves
  Engine eng(opts);
  SolveParams params;
  params.alpha = kAlpha;
  params.validate = true;
  const SolveRequest gap_req{inst, Objective::kGaps, params};
  const SolveRequest power_req{inst, Objective::kPower, params};

  constexpr std::size_t kCallers = 8;
  constexpr std::size_t kRounds = 3;
  std::vector<std::vector<SolveResult>> results(kCallers);
  std::vector<std::thread> callers;
  for (std::size_t c = 0; c < kCallers; ++c) {
    callers.emplace_back([&, c] {
      for (std::size_t r = 0; r < kRounds; ++r) {
        results[c].push_back(eng.solve("gap_dp", gap_req));
        results[c].push_back(eng.solve("power_dp", power_req));
      }
    });
  }
  for (std::thread& t : callers) t.join();

  const SolveResult& gap_first = results[0][0];
  const SolveResult& power_first = results[0][1];
  for (std::size_t c = 0; c < kCallers; ++c) {
    for (std::size_t i = 0; i < results[c].size(); ++i) {
      const SolveResult& r = results[c][i];
      const bool gap = i % 2 == 0;
      const std::string what = "caller " + std::to_string(c) + " solve " +
                               std::to_string(i);
      ASSERT_TRUE(r.ok) << what << ": " << r.error;
      ASSERT_TRUE(r.feasible) << what;
      EXPECT_EQ(r.audit_error, "") << what;
      EXPECT_GT(r.stats.components, 1u) << what;
      if (gap) {
        EXPECT_EQ(r.transitions, gap_ref.transitions) << what;
      } else {
        EXPECT_EQ(r.cost, power_ref.power) << what;
      }
      EXPECT_EQ(r.schedule, (gap ? gap_first : power_first).schedule) << what;
    }
  }
}

}  // namespace
}  // namespace gapsched::engine
