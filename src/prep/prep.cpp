#include "gapsched/prep/prep.hpp"

#include <algorithm>
#include <cassert>
#include <tuple>
#include <utility>

#include "gapsched/util/nearly_sorted.hpp"

namespace gapsched::prep {

Canonical canonicalize(const Instance& inst) {
  Canonical out;
  out.instance.processors = inst.processors;
  if (inst.n() == 0) return out;

  // Each job's sort key read once into a flat array, so no comparison
  // reaches into a job's TimeSet. The id breaks ties: the order is total.
  // Jobs usually come roughly in time order, which the sort finishes in
  // about one pass.
  struct Key {
    Time release;
    Time deadline;
    std::size_t id;
    bool operator<(const Key& o) const {
      return std::tie(release, deadline, id) <
             std::tie(o.release, o.deadline, o.id);
    }
  };
  std::vector<Key> keys;
  keys.reserve(inst.n());
  for (std::size_t i = 0; i < inst.n(); ++i) {
    keys.push_back({inst.jobs[i].allowed.min(), inst.jobs[i].allowed.max(), i});
  }
  sort_nearly_sorted(keys.begin(), keys.end());
  out.shift = keys.front().release;
  out.order.reserve(inst.n());
  out.instance.jobs.reserve(inst.n());
  for (const Key& key : keys) {
    out.order.push_back(key.id);
    out.instance.jobs.push_back(
        Job{inst.jobs[key.id].allowed.shifted(-out.shift)});
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
      if (local_min != 0) job.allowed.shift(-local_min);
      comp.instance.jobs.push_back(std::move(job));
      comp.jobs.push_back(canon.order[i]);
    }
    dec.components.push_back(std::move(comp));
  }
  return dec;
}

void recombine_component(const Component& comp, const Schedule& part,
                         const CompressedInstance& map, Schedule& out) {
  assert(part.size() == comp.jobs.size());
  const bool compressed = !map.identity();
  std::size_t hint = 0;
  for (std::size_t j = 0; j < comp.jobs.size(); ++j) {
    const auto& slot = part.at(j);
    if (!slot.has_value()) continue;
    const Time local =
        compressed ? map.to_original(slot->time, &hint) : slot->time;
    out.place(comp.jobs[j], local + comp.shift, slot->processor);
  }
}

Schedule recombine(const Decomposition& dec,
                   const std::vector<Schedule>& parts, std::size_t n) {
  assert(parts.size() == dec.components.size());
  const CompressedInstance identity;
  Schedule out(n);
  for (std::size_t c = 0; c < dec.components.size(); ++c) {
    recombine_component(dec.components[c], parts[c], identity, out);
  }
  return out;
}

}  // namespace gapsched::prep
