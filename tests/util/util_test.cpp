#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <set>
#include <sstream>
#include <thread>
#include <vector>

#include "gapsched/parallel/thread_pool.hpp"
#include "gapsched/util/prng.hpp"
#include "gapsched/util/stopwatch.hpp"
#include "gapsched/util/table.hpp"

namespace gapsched {
namespace {

TEST(Prng, DeterministicForSameSeed) {
  Prng a(42), b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.uniform(0, 1000), b.uniform(0, 1000));
  }
}

TEST(Prng, RespectsBounds) {
  Prng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.uniform(-5, 5);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
    const double u = rng.uniform01();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Prng, IndexCoversRange) {
  Prng rng(3);
  std::set<std::size_t> seen;
  for (int i = 0; i < 200; ++i) seen.insert(rng.index(4));
  EXPECT_EQ(seen.size(), 4u);
}

TEST(Prng, ForkDecorrelates) {
  Prng parent(1);
  Prng c1 = parent.fork();
  Prng c2 = parent.fork();
  EXPECT_NE(c1.seed(), c2.seed());
}

TEST(Prng, ShufflePermutes) {
  Prng rng(9);
  std::vector<int> v{1, 2, 3, 4, 5, 6};
  auto orig = v;
  rng.shuffle(v);
  auto sorted = v;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(sorted, orig);
}

TEST(Stopwatch, MeasuresNonNegative) {
  Stopwatch sw;
  EXPECT_GE(sw.seconds(), 0.0);
  sw.reset();
  EXPECT_GE(sw.millis(), 0.0);
}

TEST(Table, PrintsAlignedRows) {
  Table t({"name", "value"});
  t.row().add("alpha").add(std::int64_t{12});
  t.row().add("b").add(3.14159, 2);
  std::ostringstream os;
  t.print(os);
  const std::string s = os.str();
  EXPECT_NE(s.find("alpha"), std::string::npos);
  EXPECT_NE(s.find("3.14"), std::string::npos);
  EXPECT_EQ(t.rows(), 2u);
}

TEST(Table, CsvOutput) {
  Table t({"a", "b"});
  t.row().add(1).add(2);
  std::ostringstream os;
  t.print_csv(os);
  EXPECT_EQ(os.str(), "a,b\n1,2\n");
}

TEST(ThreadPool, ParallelForCoversIndices) {
  std::vector<std::atomic<int>> hits(64);
  parallel_for(64, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ParallelForOverNothingNeverCallsTheBody) {
  std::atomic<int> calls{0};
  parallel_for(0, [&](std::size_t) { calls.fetch_add(1); });
  EXPECT_EQ(calls.load(), 0);
}

TEST(ThreadPool, EveryIndexRunsExactlyOnceOnExecutorWorkers) {
  constexpr std::size_t kN = 5000;
  std::vector<std::atomic<int>> hits(kN);
  std::atomic<int> on_caller{0};
  const std::thread::id caller = std::this_thread::get_id();
  parallel_for(kN, [&](std::size_t i) {
    hits[i].fetch_add(1);
    if (std::this_thread::get_id() == caller) on_caller.fetch_add(1);
  });
  for (std::size_t i = 0; i < kN; ++i) EXPECT_EQ(hits[i].load(), 1) << i;
  // A thread outside the executor only waits.
  EXPECT_EQ(on_caller.load(), 0);
}

TEST(ThreadPool, NestedLoopsFromConcurrentCallersComplete) {
  // Three levels of nesting from 8 callers at once: every inner call runs
  // on an executor worker that also waits on its own group, which a
  // pool-wide wait would turn into a self-deadlock.
  constexpr std::size_t kCallers = 8;
  constexpr std::size_t kFan = 4;
  std::vector<std::atomic<int>> hits(kCallers * kFan * kFan * kFan);
  std::vector<std::thread> callers;
  for (std::size_t c = 0; c < kCallers; ++c) {
    callers.emplace_back([&hits, c] {
      parallel_for(kFan, [&hits, c](std::size_t a) {
        parallel_for(kFan, [&hits, c, a](std::size_t b) {
          parallel_for(kFan, [&hits, c, a, b](std::size_t d) {
            hits[((c * kFan + a) * kFan + b) * kFan + d].fetch_add(1);
          });
        });
      });
    });
  }
  for (std::thread& t : callers) t.join();
  for (std::size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i].load(), 1) << i;
  }
}

TEST(ThreadPool, CallerDoesNotWaitForAnotherCallersWork) {
  if (executor_threads() < 2) {
    GTEST_SKIP() << "needs a second executor worker";
  }
  std::promise<void> release;
  std::shared_future<void> released = release.get_future().share();
  std::promise<void> started;
  std::thread blocked([&] {
    parallel_for(1, [&](std::size_t) {
      started.set_value();
      released.wait();
    });
  });
  started.get_future().wait();
  // One worker is now parked on the latch; an unrelated loop must still
  // finish on the others.
  std::future<void> other = std::async(std::launch::async, [] {
    std::atomic<int> calls{0};
    parallel_for(4, [&](std::size_t) { calls.fetch_add(1); });
  });
  const std::future_status status = other.wait_for(std::chrono::seconds(5));
  release.set_value();
  blocked.join();
  other.wait();
  EXPECT_EQ(status, std::future_status::ready);
}

}  // namespace
}  // namespace gapsched
