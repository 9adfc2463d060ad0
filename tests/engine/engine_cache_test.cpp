// The stateful Engine API: content-addressed solve cache semantics
// (hit-on-identical, miss-on-consumed-param-change, canonical-form
// equivalence), identical-component deduplication through the prep
// pipeline, streaming batch delivery, per-engine registries, LRU eviction,
// and the batch summary. The concurrency tests here also run under the CI
// ASan/UBSan lane.

#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "gapsched/core/hash.hpp"
#include "gapsched/core/transforms.hpp"
#include "gapsched/dp/gap_dp.hpp"
#include "gapsched/engine/engine.hpp"
#include "gapsched/gen/generators.hpp"
#include "gapsched/io/json.hpp"
#include "gapsched/prep/prep.hpp"
#include "../support/test_seed.hpp"

namespace gapsched::engine {
namespace {

Instance small_instance(std::uint64_t site) {
  Prng rng(testing::seed_for(site));
  return gen_feasible_one_interval(rng, 8, 16, 3, 1);
}

Instance shifted(const Instance& inst, Time delta) {
  Instance out;
  out.processors = inst.processors;
  for (const Job& j : inst.jobs) out.jobs.push_back(Job{j.allowed.shifted(delta)});
  return out;
}

Instance reversed(const Instance& inst) {
  Instance out;
  out.processors = inst.processors;
  out.jobs.assign(inst.jobs.rbegin(), inst.jobs.rend());
  return out;
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

// -------------------------------------------------------- cache semantics --

TEST(EngineCache, HitOnIdenticalRequest) {
  Engine eng;
  SolveRequest req{small_instance(30), Objective::kGaps, {}};

  const SolveResult first = eng.solve("gap_dp", req);
  ASSERT_TRUE(first.ok) << first.error;
  EXPECT_FALSE(first.stats.cache_hit);

  const SolveResult second = eng.solve("gap_dp", req);
  ASSERT_TRUE(second.ok) << second.error;
  EXPECT_TRUE(second.stats.cache_hit);
  EXPECT_EQ(second.feasible, first.feasible);
  EXPECT_EQ(second.cost, first.cost);
  EXPECT_EQ(second.transitions, first.transitions);
  EXPECT_EQ(second.schedule, first.schedule);

  const CacheStats stats = eng.cache_stats();
  EXPECT_GE(stats.hits, 1u);
  EXPECT_GE(stats.insertions, 1u);
}

TEST(EngineCache, MissOnConsumedParamChange) {
  Engine eng;
  const Instance inst = small_instance(31);

  // power_dp consumes alpha: changing it must key a fresh entry.
  SolveRequest power{inst, Objective::kPower, {}};
  power.params.alpha = 2.0;
  eng.solve("power_dp", power);
  EXPECT_TRUE(eng.solve("power_dp", power).stats.cache_hit);
  power.params.alpha = 2.5;
  EXPECT_FALSE(eng.solve("power_dp", power).stats.cache_hit);

  // restart_greedy consumes max_spans.
  SolveRequest tp{inst, Objective::kThroughput, {}};
  tp.params.max_spans = 1;
  eng.solve("restart_greedy", tp);
  EXPECT_TRUE(eng.solve("restart_greedy", tp).stats.cache_hit);
  tp.params.max_spans = 2;
  EXPECT_FALSE(eng.solve("restart_greedy", tp).stats.cache_hit);

  // powermin_approx consumes swap_size / block_size.
  SolveRequest apx{inst, Objective::kPower, {}};
  eng.solve("powermin_approx", apx);
  EXPECT_TRUE(eng.solve("powermin_approx", apx).stats.cache_hit);
  apx.params.swap_size = 1;
  EXPECT_FALSE(eng.solve("powermin_approx", apx).stats.cache_hit);
  apx.params.block_size = 3;
  EXPECT_FALSE(eng.solve("powermin_approx", apx).stats.cache_hit);
}

TEST(EngineCache, UnconsumedParamDoesNotBustTheCache) {
  Engine eng;
  SolveRequest req{small_instance(32), Objective::kGaps, {}};
  req.params.alpha = 2.0;
  eng.solve("gap_dp", req);
  // gap_dp reads no alpha (SolverInfo::params), so the key is unchanged —
  // and so are validate / time_limit_s, which are post-processing concerns.
  req.params.alpha = 9.0;
  req.params.time_limit_s = 1e6;
  EXPECT_TRUE(eng.solve("gap_dp", req).stats.cache_hit);
}

TEST(EngineCache, CanonicalEquivalenceHitsAndSurvivesTheOracle) {
  Engine eng;
  const Instance base = small_instance(33);
  SolveRequest req{base, Objective::kGaps, {}};
  const SolveResult first = eng.solve("gap_dp", req);
  ASSERT_TRUE(first.ok && first.feasible) << first.error;

  // Time-shifted and job-permuted copies canonicalize — and therefore hash
  // — identically (the core digest pins the same equivalence).
  EXPECT_EQ(digest(prep::canonicalize(base).instance),
            digest(prep::canonicalize(shifted(base, 97)).instance));
  EXPECT_EQ(digest(prep::canonicalize(base).instance),
            digest(prep::canonicalize(reversed(base)).instance));

  SolveRequest moved{shifted(base, 97), Objective::kGaps, {}};
  moved.params.validate = true;  // the oracle audits the mapped-back answer
  const SolveResult hit = eng.solve("gap_dp", moved);
  ASSERT_TRUE(hit.ok) << hit.error;
  EXPECT_TRUE(hit.stats.cache_hit);
  EXPECT_EQ(hit.cost, first.cost);
  EXPECT_TRUE(hit.audited);
  EXPECT_EQ(hit.audit_error, "");
  EXPECT_EQ(hit.schedule.validate(moved.instance), "");

  SolveRequest permuted{reversed(base), Objective::kGaps, {}};
  permuted.params.validate = true;
  const SolveResult hit2 = eng.solve("gap_dp", permuted);
  ASSERT_TRUE(hit2.ok) << hit2.error;
  EXPECT_TRUE(hit2.stats.cache_hit);
  EXPECT_EQ(hit2.cost, first.cost);
  EXPECT_EQ(hit2.audit_error, "");
  EXPECT_EQ(hit2.schedule.validate(permuted.instance), "");
}

// Every family canonicalizes, decomposed or not: a cached answer serves a
// time-shifted, job-permuted copy at the cold cost, and the mapped-back
// schedule survives the oracle.
TEST(EngineCache, WholeInstancePathCanonicalizes) {
  Engine eng;
  const Instance base = small_instance(34);
  for (const Solver* solver : eng.registry().all()) {
    SCOPED_TRACE(solver->info().name);
    SolveRequest req{base, solver->info().objective, {}};
    ASSERT_EQ(solver->check(req), "");
    const SolveResult first = eng.solve(*solver, req);
    ASSERT_TRUE(first.ok) << first.error;

    SolveRequest moved{reversed(shifted(base, 41)), req.objective, {}};
    moved.params.validate = true;
    const SolveResult hit = eng.solve(*solver, moved);
    ASSERT_TRUE(hit.ok) << hit.error;
    EXPECT_TRUE(hit.stats.cache_hit);
    EXPECT_EQ(hit.cost, first.cost);
    EXPECT_TRUE(hit.audited);
    EXPECT_EQ(hit.audit_error, "");
  }
}

// A cold miss must behave exactly like the stateless path, for every family
// and prep setting: whenever the decomposition is one uncompressed
// component, Dispatch solves the requester's original instance (heuristic
// families are job-order sensitive) and only the STORED entry is rewritten
// in canonical coordinates.
TEST(EngineCache, ColdMissMatchesTheStatelessPathBitForBit) {
  const Instance instances[] = {
      // Deliberately unsorted, origin off zero: canonicalization would both
      // permute and shift this instance.
      Instance::one_interval({{12, 14}, {5, 9}, {10, 13}, {5, 7}, {8, 15}}),
      Instance{},
      Instance::one_interval({{7, 9}}),
  };
  Engine cached;
  Engine stateless({.cache = false});
  for (const Instance& inst : instances) {
    for (const Solver* solver : cached.registry().all()) {
      for (const bool decompose : {true, false}) {
        for (const bool compress : {true, false}) {
          SCOPED_TRACE(solver->info().name + " n=" + std::to_string(inst.n()) +
                       " decompose=" + std::to_string(decompose) +
                       " compress=" + std::to_string(compress));
          SolveRequest req{inst, solver->info().objective, {}};
          req.params.decompose = decompose;
          req.params.compress = compress;
          ASSERT_EQ(solver->check(req), "");
          cached.clear_cache();
          const SolveResult cold = cached.solve(*solver, req);
          const SolveResult plain = stateless.solve(*solver, req);
          ASSERT_TRUE(cold.ok && plain.ok) << cold.error << plain.error;
          EXPECT_FALSE(cold.stats.cache_hit);
          EXPECT_EQ(cold.feasible, plain.feasible);
          EXPECT_EQ(cold.cost, plain.cost);
          EXPECT_EQ(cold.transitions, plain.transitions);
          EXPECT_EQ(cold.schedule, plain.schedule);
        }
      }
    }
  }
}

TEST(EngineCache, CacheOffEngineNeverHits) {
  Engine eng({.cache = false});
  SolveRequest req{small_instance(35), Objective::kGaps, {}};
  eng.solve("gap_dp", req);
  const SolveResult second = eng.solve("gap_dp", req);
  EXPECT_FALSE(second.stats.cache_hit);
  const CacheStats stats = eng.cache_stats();
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.entries, 0u);
}

// ------------------------------------------------------- component dedup --

TEST(EngineCache, IdenticalComponentDedupOn300Clusters) {
  Engine eng;
  const Instance inst = identical_clusters(300);
  ASSERT_EQ(inst.n(), 900u);

  // Ground truth: one cluster solved directly.
  const GapDpResult cluster = solve_gap_dp(identical_clusters(1));
  ASSERT_TRUE(cluster.feasible);

  SolveRequest req{inst, Objective::kGaps, {}};
  req.params.validate = true;
  const SolveResult r = eng.solve("gap_dp", req);
  ASSERT_TRUE(r.ok) << r.error;
  ASSERT_TRUE(r.feasible);
  EXPECT_EQ(r.stats.components, 300u);
  EXPECT_EQ(r.stats.components_deduped, 299u);
  EXPECT_FALSE(r.stats.cache_hit);  // the representative was a fresh solve
  EXPECT_EQ(r.transitions, 300 * cluster.transitions);
  EXPECT_TRUE(r.schedule.complete());
  EXPECT_EQ(r.audit_error, "");

  // Second request: the lone representative now hits the cache, so the
  // whole answer is served without a solver call.
  const SolveResult warm = eng.solve("gap_dp", req);
  ASSERT_TRUE(warm.ok) << warm.error;
  EXPECT_TRUE(warm.stats.cache_hit);
  EXPECT_EQ(warm.stats.component_cache_hits, 1u);
  EXPECT_EQ(warm.stats.components_deduped, 299u);
  EXPECT_EQ(warm.transitions, r.transitions);
  EXPECT_EQ(warm.audit_error, "");
  // states always sum the work embodied in the answer's unique parts —
  // the cached entry reports the DP states that originally produced it,
  // matching the cold solve's accounting.
  EXPECT_EQ(warm.stats.states, r.stats.states);
  EXPECT_GT(warm.stats.states, 0u);
}

// The length-aware power compression normalizes cache keys across dead-run
// lengths: a time-stretched copy of a power workload (every interior dead
// run dilated beyond the cap ceil(alpha) + 1) compresses to the same
// canonical components and is served entirely from the cache.
TEST(EngineCache, PowerCompressionNormalizesStretchedCopies) {
  Engine eng;
  // One sparse chain: runs of 5 between pinned jobs stay under the cut
  // threshold max(n, ceil(alpha)) = 10 even after doubling, so the dead
  // runs live INSIDE the single component before and after the stretch and
  // only compression can normalize them.
  std::vector<std::pair<Time, Time>> windows;
  for (int i = 0; i < 10; ++i) {
    const Time t = static_cast<Time>(i) * 6;
    windows.emplace_back(t, t);
  }
  const Instance inst = Instance::one_interval(windows);
  SolveRequest req{inst, Objective::kPower, {}};
  req.params.alpha = 2.5;  // cap = 4 < run length 5: every run truncates
  req.params.validate = true;
  const SolveResult cold = eng.solve("power_dp", req);
  ASSERT_TRUE(cold.ok && cold.feasible) << cold.error;
  EXPECT_FALSE(cold.stats.cache_hit);
  EXPECT_GT(cold.stats.dead_time_removed, 0);
  EXPECT_EQ(cold.audit_error, "");

  // Dilate every dead run 5 -> 10: a different instance on a longer
  // horizon, but the same canonical compressed form.
  SolveRequest stretched{stretch_dead_time(inst, 2, 4), Objective::kPower,
                         {}};
  stretched.params.alpha = 2.5;
  stretched.params.validate = true;
  ASSERT_NE(stretched.instance.latest_deadline(), inst.latest_deadline());
  const SolveResult warm = eng.solve("power_dp", stretched);
  ASSERT_TRUE(warm.ok && warm.feasible) << warm.error;
  EXPECT_TRUE(warm.stats.cache_hit);
  EXPECT_DOUBLE_EQ(warm.cost, cold.cost);
  EXPECT_EQ(warm.audit_error, "");
  EXPECT_EQ(warm.schedule.validate(stretched.instance), "");

  // Without compression the stretched copy keys apart and must re-solve.
  SolveRequest raw = stretched;
  raw.params.compress = false;
  const SolveResult fresh = eng.solve("power_dp", raw);
  ASSERT_TRUE(fresh.ok) << fresh.error;
  EXPECT_FALSE(fresh.stats.cache_hit);
  EXPECT_DOUBLE_EQ(fresh.cost, cold.cost);
}

// Dead-time compression makes gap-objective components that differ only in
// interior dead-run lengths share one canonical key: {0},{4} and {0},{5}
// both compress to {0},{2}.
TEST(EngineCache, CompressionDedupsComponentsWithDifferentDeadRuns) {
  Instance inst = Instance::one_interval({{0, 0}, {4, 4}, {100, 100},
                                          {105, 105}});
  Engine eng;
  SolveRequest req{inst, Objective::kGaps, {}};
  req.params.validate = true;
  const SolveResult r = eng.solve("gap_dp", req);
  ASSERT_TRUE(r.ok) << r.error;
  ASSERT_TRUE(r.feasible);
  EXPECT_EQ(r.stats.components, 2u);
  EXPECT_EQ(r.stats.components_deduped, 1u);
  // Each pinned pair needs two spans; the dedup must not distort costs.
  EXPECT_EQ(r.transitions, 4);
  EXPECT_EQ(r.audit_error, "");
  // The shared compressed schedule maps back through each component's own
  // dead-run lengths.
  EXPECT_EQ(r.schedule.at(0)->time, 0);
  EXPECT_EQ(r.schedule.at(1)->time, 4);
  EXPECT_EQ(r.schedule.at(2)->time, 100);
  EXPECT_EQ(r.schedule.at(3)->time, 105);
}

// --------------------------------------------------------------- streaming --

TEST(EngineStream, DeliversEveryResultOnceAndKeepsRequestOrder) {
  Engine eng;
  std::vector<BatchJob> jobs;
  for (int seed = 0; seed < 12; ++seed) {
    jobs.push_back({"gap_dp", {small_instance(600 + seed),
                               Objective::kGaps, {}}});
  }
  jobs.push_back({"no_such_solver", {small_instance(1), Objective::kGaps, {}}});

  std::set<std::size_t> delivered;
  std::size_t callbacks = 0;
  const std::vector<SolveResult> results = eng.solve_stream(
      jobs, [&](std::size_t index, const SolveResult& r) {
        // Callback invocations are serialized by the engine; no locking.
        ++callbacks;
        EXPECT_TRUE(delivered.insert(index).second) << "duplicate " << index;
        if (jobs[index].solver == "no_such_solver") {
          EXPECT_FALSE(r.ok);
        }
      });
  ASSERT_EQ(results.size(), jobs.size());
  EXPECT_EQ(callbacks, jobs.size());
  EXPECT_EQ(delivered.size(), jobs.size());

  // Request order in the returned vector, and each slot answers its own
  // request (exact costs are canonical-form independent).
  for (std::size_t i = 0; i + 1 < jobs.size(); ++i) {
    ASSERT_TRUE(results[i].ok) << i;
    const GapDpResult direct = solve_gap_dp(jobs[i].request.instance);
    EXPECT_EQ(results[i].feasible, direct.feasible) << i;
    if (direct.feasible) {
      EXPECT_EQ(results[i].transitions, direct.transitions) << i;
    }
  }
  EXPECT_FALSE(results.back().ok);
}

TEST(EngineStream, ConcurrentStreamsShareTheCacheSafely) {
  // Two threads stream overlapping batches through one engine: the solve
  // cache (and its component dedup) is hammered concurrently. Run under
  // the CI ASan lane, this is the thread-safety check for the cache.
  Engine eng;
  std::vector<BatchJob> jobs;
  for (int seed = 0; seed < 6; ++seed) {
    jobs.push_back({"gap_dp", {identical_clusters(20 + seed),
                               Objective::kGaps, {}}});
    jobs.push_back({"power_dp", {small_instance(700 + seed),
                                 Objective::kPower, {}}});
  }

  std::vector<SolveResult> a, b;
  std::atomic<int> delivered{0};
  const Engine::StreamCallback count = [&](std::size_t,
                                           const SolveResult&) {
    delivered.fetch_add(1);
  };
  std::thread ta([&] { a = eng.solve_stream(jobs, count); });
  std::thread tb([&] { b = eng.solve_stream(jobs, count); });
  ta.join();
  tb.join();

  EXPECT_EQ(delivered.load(), static_cast<int>(2 * jobs.size()));
  ASSERT_EQ(a.size(), jobs.size());
  ASSERT_EQ(b.size(), jobs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    ASSERT_TRUE(a[i].ok) << a[i].error;
    ASSERT_TRUE(b[i].ok) << b[i].error;
    EXPECT_EQ(a[i].feasible, b[i].feasible) << i;
    EXPECT_EQ(a[i].cost, b[i].cost) << i;
    EXPECT_EQ(a[i].schedule, b[i].schedule) << i;
  }
}

// ------------------------------------------------------------- registries --

TEST(EngineRegistry, IsOwnedPerEngine) {
  class FakeSolver final : public Solver {
   public:
    FakeSolver() {
      info_.name = "per_engine_fake";
      info_.summary = "test double";
      info_.paper_ref = "n/a";
      info_.complexity = "O(1)";
    }
    const SolverInfo& info() const override { return info_; }

   protected:
    SolveResult do_solve(const SolveRequest&) const override {
      SolveResult r;
      r.ok = true;
      r.feasible = true;
      return r;
    }

   private:
    SolverInfo info_;
  };

  Engine eng;
  EXPECT_EQ(eng.registry().size(), SolverRegistry::instance().size());
  ASSERT_TRUE(eng.registry().add(std::make_unique<FakeSolver>()));
  EXPECT_NE(eng.registry().find("per_engine_fake"), nullptr);
  // The process-wide registry (the deprecated shims' registry) is
  // untouched, and so is a sibling engine.
  EXPECT_EQ(SolverRegistry::instance().find("per_engine_fake"), nullptr);
  Engine sibling;
  EXPECT_EQ(sibling.registry().find("per_engine_fake"), nullptr);
}

// ----------------------------------------------------------- LRU eviction --

TEST(SolveCacheLru, EvictsLeastRecentlyUsed) {
  SolveCache cache(/*capacity=*/2);
  const SolverInfo& info = SolverRegistry::instance().find("gap_dp")->info();
  const auto key_for = [&](Time t) {
    return make_cache_key(info, Objective::kGaps, SolveParams{},
                          Instance::one_interval({{t, t}}));
  };
  const auto cached = [&](Time t) {
    return cache.lookup(key_for(t), Instance::one_interval({{t, t}}),
                        Objective::kGaps, SolveParams{}, true) != nullptr;
  };
  SolveResult r;
  r.ok = true;
  r.feasible = true;

  cache.insert(key_for(1), r);
  cache.insert(key_for(2), r);
  EXPECT_TRUE(cached(1));  // 1 becomes MRU
  cache.insert(key_for(3), r);  // evicts 2
  EXPECT_TRUE(cached(1));
  EXPECT_FALSE(cached(2));
  EXPECT_TRUE(cached(3));

  const CacheStats stats = cache.stats();
  EXPECT_EQ(stats.entries, 2u);
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_EQ(stats.capacity, 2u);
}

TEST(SolveCacheLru, NormalizesStoredResults) {
  SolveCache cache;
  const SolverInfo& info = SolverRegistry::instance().find("gap_dp")->info();
  const Instance inst = Instance::one_interval({{0, 0}});
  const CacheKey key =
      make_cache_key(info, Objective::kGaps, SolveParams{}, inst);
  SolveResult r;
  r.ok = true;
  r.feasible = true;
  r.timed_out = true;
  r.audited = true;
  r.audit_error = "stale";
  r.stats.wall_ms = 123.0;
  r.stats.cache_hit = true;
  cache.insert(key, r);
  const auto hit =
      cache.lookup(key, inst, Objective::kGaps, SolveParams{}, true);
  ASSERT_NE(hit, nullptr);
  EXPECT_FALSE(hit->timed_out);
  EXPECT_FALSE(hit->audited);
  EXPECT_EQ(hit->audit_error, "");
  EXPECT_EQ(hit->stats.wall_ms, 0.0);
  EXPECT_FALSE(hit->stats.cache_hit);
}

TEST(SolveCacheLru, KeyTextIsByteStableAcrossVersions) {
  // Store files are keyed by this text: any byte of drift turns every
  // stored answer into a miss. Pinned for both parameter layouts, with
  // multi-interval jobs, negative times and a time past 2^31.
  Instance inst;
  inst.processors = 2;
  inst.jobs.push_back(Job{TimeSet{{Interval{0, 3}, Interval{8, 9}}}});
  inst.jobs.push_back(Job{TimeSet{{Interval{-12, -5}}}});
  inst.jobs.push_back(
      Job{TimeSet{{Interval{100, 100}, Interval{4000000000, 4000000002}}}});
  SolveParams params;
  params.alpha = 2.5;
  const auto& registry = SolverRegistry::instance();
  EXPECT_EQ(make_cache_key(registry.find("power_dp")->info(),
                           Objective::kPower, params, inst)
                .text,
            "power_dp|power|p2|a=2.5|0,3;8,9;|-12,-5;"
            "|100,100;4000000000,4000000002;");
  inst.processors = 1;
  params.alpha = 0.1;
  params.swap_size = 3;
  params.block_size = 4;
  EXPECT_EQ(make_cache_key(registry.find("powermin_approx")->info(),
                           Objective::kPower, params, inst)
                .text,
            "powermin_approx|power|p1|a=0.10000000000000001|s=3,b=4"
            "|0,3;8,9;|-12,-5;|100,100;4000000000,4000000002;");
}

// ------------------------------------------------------------- summaries --

pipeline::PipelineStats fold(const std::vector<SolveResult>& results) {
  pipeline::PipelineStats stats;
  for (const SolveResult& r : results) stats.absorb(r);
  return stats;
}

TEST(BatchSummaryTest, CountsTimedOutRejectedAndRefutedSeparately) {
  Engine eng;
  std::vector<BatchJob> jobs;
  jobs.push_back({"gap_dp", {small_instance(40), Objective::kGaps, {}}});
  jobs.push_back({"no_such_solver", {small_instance(41),
                                     Objective::kGaps, {}}});
  BatchJob slow{"gap_dp", {small_instance(42), Objective::kGaps, {}}};
  slow.request.params.time_limit_s = 1e-12;  // everything exceeds this
  jobs.push_back(std::move(slow));

  const std::vector<SolveResult> results = eng.solve_batch(jobs);
  const pipeline::PipelineStats summary = fold(results);
  EXPECT_EQ(summary.requests, 3u);
  EXPECT_EQ(summary.rejected, 1u);
  EXPECT_EQ(summary.feasible, 2u);
  // The fix this pins: a timed-out result is counted, and it disqualifies
  // the batch from unqualified success even though its entry is `ok`.
  EXPECT_EQ(summary.timed_out, 1u);
  EXPECT_FALSE(summary.success());

  jobs.pop_back();
  jobs.erase(jobs.begin() + 1);
  const pipeline::PipelineStats clean = fold(eng.solve_batch(jobs));
  EXPECT_EQ(clean.rejected, 0u);
  EXPECT_EQ(clean.timed_out, 0u);
  EXPECT_TRUE(clean.success());
}

TEST(BatchSummaryTest, RejectedTimeoutCountsAsBothInABatchAndInAShard) {
  // A request whose deadline expired in a shard queue comes back rejected
  // with timed_out set; every roll-up counts each flag on its own.
  SolveResult expired = SolveResult::rejected("deadline exceeded");
  expired.timed_out = true;
  const pipeline::PipelineStats batch = fold({expired});
  io::ShardStatsWire shard;
  shard.absorb(expired);
  for (const pipeline::PipelineStats* s :
       {&batch, static_cast<const pipeline::PipelineStats*>(&shard)}) {
    EXPECT_EQ(s->requests, 1u);
    EXPECT_EQ(s->rejected, 1u);
    EXPECT_EQ(s->timed_out, 1u);
    EXPECT_EQ(s->feasible, 0u);
    EXPECT_FALSE(s->success());
  }
}

TEST(BatchSummaryTest, MergedHalvesEqualOneFoldOfEverything) {
  Engine eng({.threads = 1});  // in order, so the repeats are cache hits
  std::vector<BatchJob> jobs;
  for (int i = 0; i < 6; ++i) {
    BatchJob job{"gap_dp",
                 {small_instance(43 + static_cast<std::uint64_t>(i % 4)),
                  Objective::kGaps,
                  {}}};
    job.request.params.validate = i % 2 == 0;
    jobs.push_back(std::move(job));
  }
  jobs.push_back({"no_such_solver", {small_instance(47), Objective::kGaps,
                                     {}}});
  const std::vector<SolveResult> results = eng.solve_batch(jobs);
  const auto mid = results.begin() + 3;
  pipeline::PipelineStats merged = fold({results.begin(), mid});
  merged += fold({mid, results.end()});
  const pipeline::PipelineStats whole = fold(results);

  EXPECT_EQ(merged.requests, whole.requests);
  EXPECT_EQ(merged.rejected, whole.rejected);
  EXPECT_EQ(merged.feasible, whole.feasible);
  EXPECT_EQ(merged.timed_out, whole.timed_out);
  EXPECT_EQ(merged.audited, whole.audited);
  EXPECT_EQ(merged.refuted, whole.refuted);
  EXPECT_EQ(merged.cache_hits, whole.cache_hits);
  EXPECT_EQ(merged.component_cache_hits, whole.component_cache_hits);
  for (std::size_t i = 0; i < kPipelineStageCount; ++i) {
    EXPECT_EQ(merged.stages[i].runs, whole.stages[i].runs) << i;
    EXPECT_EQ(merged.stages[i].skips, whole.stages[i].skips) << i;
    EXPECT_NEAR(merged.stages[i].total_ms, whole.stages[i].total_ms, 1e-9)
        << i;
  }
  // The batch exercised every counter the merge has to carry.
  EXPECT_EQ(whole.requests, 7u);
  EXPECT_EQ(whole.rejected, 1u);
  EXPECT_EQ(whole.audited, 3u);
  EXPECT_GT(whole.cache_hits, 0u);
}

}  // namespace
}  // namespace gapsched::engine
