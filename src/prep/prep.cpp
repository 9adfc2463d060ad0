#include "gapsched/prep/prep.hpp"

#include <algorithm>
#include <cassert>
#include <numeric>
#include <utility>

namespace gapsched::prep {

Canonical canonicalize(const Instance& inst) {
  Canonical out;
  out.instance.processors = inst.processors;
  out.order.resize(inst.n());
  std::iota(out.order.begin(), out.order.end(), std::size_t{0});
  if (inst.n() == 0) return out;

  std::sort(out.order.begin(), out.order.end(),
            [&](std::size_t a, std::size_t b) {
              const Time ra = inst.jobs[a].allowed.min();
              const Time rb = inst.jobs[b].allowed.min();
              if (ra != rb) return ra < rb;
              const Time da = inst.jobs[a].allowed.max();
              const Time db = inst.jobs[b].allowed.max();
              if (da != db) return da < db;
              return a < b;
            });
  out.shift = inst.earliest_release();
  out.instance.jobs.reserve(inst.n());
  for (std::size_t i : out.order) {
    out.instance.jobs.push_back(Job{inst.jobs[i].allowed.shifted(-out.shift)});
  }
  return out;
}

Decomposition decompose(const Instance& inst, Time threshold) {
  return decompose(canonicalize(inst), threshold);
}

Decomposition decompose(const Canonical& canon, Time threshold) {
  return decompose(Canonical(canon), threshold);
}

Decomposition decompose(Canonical&& canon, Time threshold) {
  Decomposition dec;
  if (canon.instance.n() == 0) return dec;
  threshold = std::max<Time>(threshold, 0);

  // Canonical order gives the release-sorted sweep; clusters grow while the
  // next job's span starts within `threshold` dead units of the running
  // cluster's right edge.
  std::vector<std::pair<std::size_t, std::size_t>> groups;  // [first, last)
  std::size_t first = 0;
  Time cluster_hi = canon.instance.jobs[0].allowed.max();
  for (std::size_t i = 1; i < canon.instance.jobs.size(); ++i) {
    const Job& job = canon.instance.jobs[i];
    const Time dead = job.allowed.min() - cluster_hi - 1;
    if (dead > threshold) {
      groups.emplace_back(first, i);
      dec.separations.push_back(dead);
      first = i;
      cluster_hi = job.allowed.max();
    } else {
      cluster_hi = std::max(cluster_hi, job.allowed.max());
    }
  }
  groups.emplace_back(first, canon.instance.jobs.size());

  dec.components.reserve(groups.size());
  for (const auto& [lo, hi] : groups) {
    Component comp;
    comp.instance.processors = canon.instance.processors;
    comp.instance.jobs.reserve(hi - lo);
    comp.jobs.reserve(hi - lo);
    // Each component is itself re-anchored at time 0; the canonical shift
    // composes with the cluster's local offset.
    Time local_min = canon.instance.jobs[lo].allowed.min();
    for (std::size_t i = lo; i < hi; ++i) {
      local_min = std::min(local_min, canon.instance.jobs[i].allowed.min());
    }
    comp.shift = canon.shift + local_min;
    for (std::size_t i = lo; i < hi; ++i) {
      Job& job = canon.instance.jobs[i];
      job.allowed.shift(-local_min);
      comp.instance.jobs.push_back(std::move(job));
      comp.jobs.push_back(canon.order[i]);
    }
    dec.components.push_back(std::move(comp));
  }
  return dec;
}

Schedule recombine(const Decomposition& dec,
                   const std::vector<Schedule>& parts, std::size_t n) {
  assert(parts.size() == dec.components.size());
  Schedule out(n);
  for (std::size_t c = 0; c < dec.components.size(); ++c) {
    const Component& comp = dec.components[c];
    assert(parts[c].size() == comp.jobs.size());
    for (std::size_t j = 0; j < comp.jobs.size(); ++j) {
      const auto& slot = parts[c].at(j);
      if (!slot.has_value()) continue;
      out.place(comp.jobs[j], slot->time + comp.shift, slot->processor);
    }
  }
  return out;
}

}  // namespace gapsched::prep
