// serve/shard.hpp — canonical-key routing, the bounded queues behind the
// server's backpressure, and the shard pool's ordering/drain contracts.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <mutex>
#include <set>
#include <thread>
#include <vector>

#include "gapsched/engine/registry.hpp"
#include "gapsched/io/json.hpp"
#include "gapsched/serve/shard.hpp"

namespace gapsched::serve {
namespace {

engine::SolveRequest chain_request(Time shift, bool reversed) {
  engine::SolveRequest request;
  request.objective = engine::Objective::kGaps;
  std::vector<Job> jobs = {Job{TimeSet::window(shift + 0, shift + 4)},
                           Job{TimeSet::window(shift + 3, shift + 9)},
                           Job{TimeSet::window(shift + 20, shift + 26)}};
  if (reversed) std::reverse(jobs.begin(), jobs.end());
  request.instance.jobs = std::move(jobs);
  return request;
}

TEST(ServeShard, CanonicalEquivalentRequestsShareAKey) {
  const auto registry = engine::SolverRegistry::create_with_builtins();
  const engine::Solver* solver = registry->find("gap_dp");
  ASSERT_NE(solver, nullptr);
  // Time-shifted and job-permuted copies canonicalize identically, so they
  // route to the same shard — where the first solve fills the shared cache
  // and the copies dedup instead of racing.
  const std::uint64_t base = shard_key(*solver, chain_request(0, false));
  EXPECT_EQ(base, shard_key(*solver, chain_request(1000, false)));
  EXPECT_EQ(base, shard_key(*solver, chain_request(0, true)));
  EXPECT_EQ(base, shard_key(*solver, chain_request(77, true)));
  // Different content and different solver both re-key.
  engine::SolveRequest other = chain_request(0, false);
  other.instance.jobs.push_back(Job{TimeSet::window(40, 45)});
  EXPECT_NE(base, shard_key(*solver, other));
  const engine::Solver* power = registry->find("power_dp");
  ASSERT_NE(power, nullptr);
  EXPECT_NE(base, shard_key(*power, chain_request(0, false)));
}

TEST(ServeShard, ShardOfStaysInRangeAndSpreads) {
  std::set<std::size_t> seen;
  for (std::uint64_t key = 0; key < 1000; ++key) {
    const std::size_t shard = shard_of(key * 0x9e3779b97f4a7c15ull + 1, 8);
    ASSERT_LT(shard, 8u);
    seen.insert(shard);
  }
  EXPECT_EQ(seen.size(), 8u);  // all shards reachable
  EXPECT_EQ(shard_of(123456789, 1), 0u);
  EXPECT_EQ(shard_of(123456789, 0), 0u);  // degenerate guard
}

TEST(ServeShard, BoundedQueueIsFifoAndDrainsAfterClose) {
  BoundedQueue<int> queue(8);
  for (int i = 0; i < 5; ++i) EXPECT_TRUE(queue.push(i));
  queue.close();
  EXPECT_FALSE(queue.push(99));  // closed: no new work
  for (int i = 0; i < 5; ++i) {
    const auto item = queue.pop();
    ASSERT_TRUE(item.has_value());
    EXPECT_EQ(*item, i);  // accepted items still drain, in order
  }
  EXPECT_FALSE(queue.pop().has_value());  // closed and empty
}

TEST(ServeShard, BoundedQueueBlocksProducersAtCapacity) {
  BoundedQueue<int> queue(2);
  ASSERT_TRUE(queue.push(1));
  ASSERT_TRUE(queue.push(2));
  std::atomic<bool> third_pushed{false};
  std::thread producer([&] {
    queue.push(3);  // must block until a pop frees a slot
    third_pushed.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(third_pushed.load());  // still parked: that is backpressure
  EXPECT_EQ(queue.pop().value_or(-1), 1);
  producer.join();
  EXPECT_TRUE(third_pushed.load());
  EXPECT_EQ(queue.pop().value_or(-1), 2);
  EXPECT_EQ(queue.pop().value_or(-1), 3);
}

TEST(ServeShard, ShardPoolRunsOneShardSeriallyInSubmissionOrder) {
  ShardPool pool(4, 64);
  std::vector<int> order;
  std::mutex mu;
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(pool.submit(2, [&, i] {
      std::lock_guard<std::mutex> lk(mu);
      order.push_back(i);
    }));
  }
  pool.drain();
  ASSERT_EQ(order.size(), 50u);
  for (int i = 0; i < 50; ++i) EXPECT_EQ(order[i], i);
}

TEST(ServeShard, ShardPoolDrainCompletesAcceptedWorkThenRefuses) {
  ShardPool pool(2, 64);
  std::atomic<int> done{0};
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(pool.submit(static_cast<std::size_t>(i), [&] {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      ++done;
    }));
  }
  pool.drain();
  EXPECT_EQ(done.load(), 20);  // nothing accepted was dropped
  EXPECT_FALSE(pool.submit(0, [&] { ++done; }));  // draining: refused
  pool.drain();                                   // idempotent
  EXPECT_EQ(done.load(), 20);
}

TEST(ServeShard, TallyAbsorbsResultOutcomes) {
  // The tally is its own wire form: absorb() fills the stats-frame entry.
  io::ShardStatsWire tally;
  tally.shard = 3;
  engine::SolveResult ok;
  ok.ok = true;
  ok.feasible = true;
  ok.stats.cache_hit = true;
  ok.stats.component_cache_hits = 2;
  tally.absorb(ok);
  engine::SolveResult rejected = engine::SolveResult::rejected("nope");
  rejected.timed_out = true;
  tally.absorb(rejected);
  engine::SolveResult refuted;
  refuted.ok = true;
  refuted.audited = true;
  refuted.audit_error = "cost mismatch";
  tally.absorb(refuted);

  EXPECT_EQ(tally.requests, 3u);
  EXPECT_EQ(tally.rejected, 1u);
  EXPECT_EQ(tally.timed_out, 1u);
  EXPECT_EQ(tally.refuted, 1u);
  EXPECT_EQ(tally.cache_hits, 1u);
  EXPECT_EQ(tally.component_cache_hits, 2u);
  EXPECT_EQ(tally.feasible, 1u);
  EXPECT_EQ(tally.audited, 1u);

  EXPECT_EQ(tally.shard, 3);  // absorb() leaves the shard index alone
  for (const engine::pipeline::StageTally& t : tally.stages) {
    EXPECT_EQ(t.skips, 3u);  // hand-made results ran no stage
  }
}

}  // namespace
}  // namespace gapsched::serve
