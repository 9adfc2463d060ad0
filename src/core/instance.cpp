#include "gapsched/core/instance.hpp"

#include <algorithm>

namespace gapsched {

bool Instance::is_one_interval() const {
  return std::all_of(jobs.begin(), jobs.end(), [](const Job& j) {
    return j.allowed.is_single_interval();
  });
}

bool Instance::is_unit_points() const {
  return std::all_of(jobs.begin(), jobs.end(), [](const Job& j) {
    return j.allowed.is_unit_points();
  });
}

std::size_t Instance::max_intervals_per_job() const {
  std::size_t k = 0;
  for (const Job& j : jobs) k = std::max(k, j.allowed.interval_count());
  return k;
}

Time Instance::earliest_release() const {
  Time best = jobs.front().release();
  for (const Job& j : jobs) best = std::min(best, j.release());
  return best;
}

Time Instance::latest_deadline() const {
  Time best = jobs.front().deadline();
  for (const Job& j : jobs) best = std::max(best, j.deadline());
  return best;
}

std::vector<Interval> Instance::live_intervals() const {
  std::size_t total = 0;
  for (const Job& j : jobs) total += j.allowed.interval_count();
  std::vector<Interval> all;
  all.reserve(total);
  for (const Job& j : jobs) {
    const std::span<const Interval> ivs = j.allowed.intervals();
    all.insert(all.end(), ivs.begin(), ivs.end());
  }
  normalize_intervals(all);
  return all;
}

std::string Instance::validate() const {
  if (processors < 1) return "instance has fewer than one processor";
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    if (jobs[i].allowed.empty()) {
      return "job " + std::to_string(i) + " has an empty allowed set";
    }
    // The set is normalized, so its hull bounds every interval end.
    if (!in_time_range({jobs[i].release(), jobs[i].deadline()})) {
      return "job " + std::to_string(i) + ": " + std::string(kTimeRangeError);
    }
  }
  return {};
}

Instance Instance::one_interval(
    const std::vector<std::pair<Time, Time>>& windows, int processors) {
  Instance inst;
  inst.processors = processors;
  inst.jobs.reserve(windows.size());
  for (const auto& [a, d] : windows) {
    inst.jobs.push_back(Job{TimeSet::window(a, d)});
  }
  return inst;
}

}  // namespace gapsched
