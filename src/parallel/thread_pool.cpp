#include "gapsched/parallel/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <deque>
#include <latch>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace gapsched {

namespace {

/// One parallel_for call: its loop body, a claim counter over [0, n) and a
/// completion latch. Whoever claims an index runs it; the latch opens once
/// all n indices have run. fn is only touched for a claimed index below n,
/// so never after the caller has returned.
struct Group {
  Group(std::size_t n, const std::function<void(std::size_t)>& fn)
      : n(n), fn(fn), done(static_cast<std::ptrdiff_t>(n)) {}

  /// Claims and runs indices until none are left unclaimed.
  void run() {
    std::ptrdiff_t ran = 0;
    for (std::size_t i = next.fetch_add(1); i < n; i = next.fetch_add(1)) {
      fn(i);
      ++ran;
    }
    if (ran > 0) done.count_down(ran);
  }

  const std::size_t n;
  const std::function<void(std::size_t)>& fn;
  std::atomic<std::size_t> next{0};
  std::latch done;
};

/// True on the executor's own workers.
thread_local bool t_on_executor = false;

/// Fixed workers over one FIFO queue of tickets. A ticket is a share of a
/// group: the worker that pops it runs that group until no index is left
/// unclaimed, so a ticket popped after its group finished is a no-op (the
/// shared_ptr keeps the group alive until then).
class Executor {
 public:
  Executor() {
    workers_.reserve(executor_threads());
    for (std::size_t i = 0; i < executor_threads(); ++i) {
      workers_.emplace_back([this] { work(); });
    }
  }

  ~Executor() {
    {
      std::lock_guard<std::mutex> lk(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    for (std::thread& w : workers_) w.join();
  }

  Executor(const Executor&) = delete;
  Executor& operator=(const Executor&) = delete;

  void post(const std::shared_ptr<Group>& group, std::size_t tickets) {
    {
      std::lock_guard<std::mutex> lk(mu_);
      queue_.insert(queue_.end(), tickets, group);
    }
    for (std::size_t i = 0; i < tickets; ++i) cv_.notify_one();
  }

 private:
  void work() {
    t_on_executor = true;
    for (;;) {
      std::shared_ptr<Group> group;
      {
        std::unique_lock<std::mutex> lk(mu_);
        cv_.wait(lk, [this] { return stop_ || !queue_.empty(); });
        if (queue_.empty()) return;  // stopping, and fully drained
        group = std::move(queue_.front());
        queue_.pop_front();
      }
      group->run();
    }
  }

  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::shared_ptr<Group>> queue_;
  bool stop_ = false;
  std::vector<std::thread> workers_;  // last: workers use the members above
};

Executor& executor() {
  static Executor instance;
  return instance;
}

}  // namespace

std::size_t executor_threads() {
  static const std::size_t threads =
      std::max(1u, std::thread::hardware_concurrency());
  return threads;
}

void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn) {
  if (n == 0) return;
  // A worker that calls parallel_for runs its own group while it waits, so
  // nested loops always make progress; it asks for one helper fewer.
  const bool helps = t_on_executor;
  const auto group = std::make_shared<Group>(n, fn);
  executor().post(group, std::min(n, executor_threads()) - (helps ? 1 : 0));
  if (helps) group->run();
  group->done.wait();
}

}  // namespace gapsched
