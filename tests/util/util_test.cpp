#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <future>
#include <set>
#include <sstream>
#include <thread>
#include <utility>
#include <vector>

#include "gapsched/parallel/thread_pool.hpp"
#include "gapsched/util/nearly_sorted.hpp"
#include "gapsched/util/prng.hpp"
#include "gapsched/util/stopwatch.hpp"
#include "gapsched/util/table.hpp"
#include "../support/test_seed.hpp"

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

// ------------------------------------------------- sort_nearly_sorted --

TEST(SortNearlySortedVsReference, MatchesStdSortOnEveryShape) {
  // Values only (equal elements are interchangeable), so the result must
  // equal std::sort's exactly: sorted, reversed (the fallback after n
  // moves), constant, shuffled with many duplicates, and nearly sorted with
  // local swaps at several densities, which stays on the insertion pass.
  const std::uint64_t prng_seed = testing::seed_for(12003);
  GAPSCHED_TRACE_SEED(prng_seed);
  Prng rng(prng_seed);
  using Item = std::pair<long, int>;
  const auto check = [](std::vector<Item> v, const char* shape) {
    std::vector<Item> want = v;
    std::sort(want.begin(), want.end());
    sort_nearly_sorted(v.begin(), v.end());
    EXPECT_EQ(v, want) << shape << " n " << v.size();
  };
  for (const std::size_t n : {0u, 1u, 2u, 3u, 17u, 256u, 2000u}) {
    std::vector<Item> sorted(n);
    for (std::size_t i = 0; i < n; ++i) {
      sorted[i] = {static_cast<long>(i / 3), static_cast<int>(i % 2)};
    }
    std::sort(sorted.begin(), sorted.end());
    check(sorted, "sorted");
    check(std::vector<Item>(sorted.rbegin(), sorted.rend()), "reversed");
    check(std::vector<Item>(n, Item{4, 1}), "constant");
    std::vector<Item> shuffled = sorted;
    for (std::size_t i = n; i > 1; --i) {
      std::swap(shuffled[i - 1], shuffled[rng.index(i)]);
    }
    check(shuffled, "shuffled");
    for (const std::size_t every : {2u, 7u, 50u}) {
      std::vector<Item> near = sorted;
      for (std::size_t i = 0; i + 3 < n; i += every) {
        std::swap(near[i], near[i + 1 + rng.index(3)]);
      }
      check(near, "nearly sorted");
    }
    // Displacement well past the budget forces the fallback part way in.
    std::vector<Item> tail_first = sorted;
    std::rotate(tail_first.begin(), tail_first.begin() + n / 2,
                tail_first.end());
    check(tail_first, "rotated");
  }
}

}  // namespace
}  // namespace gapsched
