#include "gapsched/scenarios/scenarios.hpp"

#include <algorithm>
#include <utility>

#include "gapsched/core/transforms.hpp"
#include "gapsched/gen/generators.hpp"
#include "gapsched/util/flags.hpp"
#include "gapsched/util/prng.hpp"

namespace gapsched::scenarios {

namespace {

/// Decorrelates the per-family streams: the same user seed must not draw
/// the "same" randomness in every family.
std::uint64_t mix(std::uint64_t seed, std::uint64_t salt) {
  return splitmix64(seed + 0x9e3779b97f4a7c15ull * salt);
}

// ------------------------------------------------- adversarial families --

/// Nested one-interval chain: window i is strictly inside window i - 1
/// ([b + i, b + 2n - 1 - i]); the innermost pair leaves two slots for the
/// last job. Stresses interval containment logic and forces global
/// placement decisions (a locally greedy choice in an outer window can
/// strand an inner job). Job order is shuffled so solvers cannot rely on
/// sortedness.
Instance make_nested_windows(std::uint64_t seed) {
  Prng rng(mix(seed, 7));
  constexpr std::size_t n = 8;
  const Time base = rng.uniform(0, 3);
  std::vector<std::pair<Time, Time>> windows;
  for (std::size_t i = 0; i < n; ++i) {
    const Time lo = base + static_cast<Time>(i);
    const Time hi = base + static_cast<Time>(2 * n - 1 - i);
    windows.emplace_back(lo, hi);
  }
  rng.shuffle(windows);
  return Instance::one_interval(windows);
}

/// Sparse spread: wide windows (11-15 slots) far apart, so every feasible
/// schedule pays one span per job — the max-gap and long-horizon power
/// stressor (every idle run is far longer than any reasonable alpha). The
/// wide windows make the whole-instance Prop 2.1 candidate axis pay
/// ~2(n+2) times per job while each single-job cluster needs only ~6
/// candidates, which is exactly the locality the prep decomposition
/// pipeline exploits (T9 records the on-vs-off speedup).
Instance make_sparse_spread(std::uint64_t seed) {
  Prng rng(mix(seed, 11));
  constexpr std::size_t n = 6;
  std::vector<std::pair<Time, Time>> windows;
  for (std::size_t i = 0; i < n; ++i) {
    const Time lo = static_cast<Time>(i) * 50 + rng.uniform(0, 3);
    windows.emplace_back(lo, lo + 10 + rng.uniform(0, 4));
  }
  return Instance::one_interval(windows);
}

/// Long horizon, few jobs, wide windows: the first two anchors sit close
/// enough that their idle run can dip below typical alpha values (the
/// bridging-decision side), while the remaining anchors leave idle runs
/// far above alpha over a ~400-unit timeline — the power solvers must make
/// non-trivial bridging decisions, and the monolithic DP pays the full
/// long-horizon candidate axis that the prep decomposition avoids.
Instance make_power_longhaul(std::uint64_t seed) {
  Prng rng(mix(seed, 13));
  constexpr Time kAnchors[] = {2, 14, 55, 115, 180, 250, 325, 405};
  std::vector<std::pair<Time, Time>> windows;
  for (Time anchor : kAnchors) {
    const Time t = anchor + rng.uniform(0, 4);
    const Time lo = std::max<Time>(0, t - rng.uniform(2, 7));
    windows.emplace_back(lo, t + rng.uniform(2, 7));
  }
  return Instance::one_interval(windows);
}

/// Hall-critical blocks: each block packs exactly b jobs into exactly b
/// slots (Hall's condition holds with equality), so every schedule is
/// forced and any perturbation tips infeasible. Exercises the tight side
/// of the feasibility machinery.
Instance make_hall_critical(std::uint64_t seed) {
  Prng rng(mix(seed, 17));
  constexpr std::size_t kBlocks = 3;
  constexpr Time kBlockLen = 3;
  std::vector<std::pair<Time, Time>> windows;
  Time start = rng.uniform(0, 2);
  for (std::size_t b = 0; b < kBlocks; ++b) {
    for (Time j = 0; j < kBlockLen; ++j) {
      windows.emplace_back(start, start + kBlockLen - 1);
    }
    start += kBlockLen + rng.uniform(2, 5);  // dead time between blocks
  }
  return Instance::one_interval(windows);
}

/// Multiprocessor staircase: pinned occupancy counts rise to p and fall
/// back ({1, 2, 3, 3, 2, 1} on p = 3), with a little seeded widening that
/// keeps the anchor schedule valid. Exercises the Lemma 1 staircase
/// accounting of the multiprocessor DPs.
Instance make_staircase_multiproc(std::uint64_t seed) {
  Prng rng(mix(seed, 19));
  constexpr int kCounts[] = {1, 2, 3, 3, 2, 1};
  Instance inst;
  inst.processors = 3;
  for (std::size_t t = 0; t < std::size(kCounts); ++t) {
    for (int c = 0; c < kCounts[t]; ++c) {
      const Time anchor = static_cast<Time>(t);
      const Time lo = std::max<Time>(0, anchor - rng.uniform(0, 1));
      inst.jobs.push_back(Job{TimeSet::window(lo, anchor + rng.uniform(0, 1))});
    }
  }
  return inst;
}

/// Infeasible by one: a Hall-critical block of b slots with b + 1 jobs
/// (one too many), plus feasible filler elsewhere. Solvers must report
/// infeasible without crashing or returning a partial answer.
Instance make_infeasible_by_one(std::uint64_t seed) {
  Prng rng(mix(seed, 23));
  constexpr Time kBlockLen = 4;
  const Time block = 8 + rng.uniform(0, 3);
  std::vector<std::pair<Time, Time>> windows;
  for (Time j = 0; j < kBlockLen + 1; ++j) {
    windows.emplace_back(block, block + kBlockLen - 1);
  }
  for (std::size_t i = 0; i < 4; ++i) {
    // Filler strictly left of the block (clamped: the last window could
    // otherwise touch the block's first slot on small block draws).
    const Time lo = static_cast<Time>(i) * 2 + rng.uniform(0, 1);
    windows.emplace_back(lo, std::min<Time>(lo + 1, block - 1));
  }
  rng.shuffle(windows);
  return Instance::one_interval(windows);
}

/// Everyone at one instant: n jobs pinned to a single time on one
/// processor. The canonical near-infeasible sentinel stressor (every
/// subproblem of the DPs is infeasible).
Instance make_overloaded_point(std::uint64_t seed) {
  Prng rng(mix(seed, 29));
  const Time t = rng.uniform(0, 20);
  std::vector<std::pair<Time, Time>> windows(6, {t, t});
  return Instance::one_interval(windows);
}

/// Multi-interval power jobs straddling cluster cuts: two far-apart
/// clusters of one-interval jobs, welded into a single component by jobs
/// whose allowed set has one interval in each cluster. The prep pipeline
/// cannot cut through a straddler's span, so the long interior dead run
/// survives decomposition and only the length-aware compression can remove
/// it — the adversarial shape for the power objective's capped compression
/// (exercised by the multi-interval-capable exact families). Feasible by
/// construction: each cluster has at least as many slots as jobs that must
/// land in it, and straddlers can go either way.
Instance make_straddled_clusters(std::uint64_t seed) {
  Prng rng(mix(seed, 31));
  Instance inst;
  const Time left = rng.uniform(0, 3);
  const Time right = left + 40 + rng.uniform(0, 8);  // dead run >> n and alpha
  // Three anchored one-interval jobs per cluster (distinct anchors, a bit
  // of slack), so each cluster is feasible on its own.
  for (const Time base : {left, right}) {
    for (Time j = 0; j < 3; ++j) {
      const Time anchor = base + 2 * j;
      inst.jobs.push_back(
          Job{TimeSet::window(anchor, anchor + 1 + rng.uniform(0, 1))});
    }
  }
  // Two straddlers, each allowed a free slot in either cluster (the slot
  // past the anchored jobs' windows), welding the clusters together.
  for (int s = 0; s < 2; ++s) {
    inst.jobs.push_back(Job{TimeSet{{Interval{left + 7, left + 8 + s},
                                     Interval{right + 7, right + 8 + s}}}});
  }
  return inst;
}

/// Mixed feasible/infeasible mega-batch shape: several far-apart clusters
/// (a decomposition-friendly "mega" instance), where roughly half the
/// seeds overload exactly one cluster past Hall capacity. Differential
/// sweeps over many seeds therefore mix feasible and infeasible draws of
/// the same family — no per-seed guarantee is advertised — and the
/// infeasible draws pin that one bad component makes the recombined
/// verdict infeasible without disturbing its siblings.
Instance make_mega_mixed(std::uint64_t seed) {
  Prng rng(mix(seed, 37));
  constexpr int kClusters = 4;
  constexpr Time kBlockLen = 3;
  const bool overload = rng.uniform(0, 1) == 1;
  const int target = static_cast<int>(rng.uniform(0, kClusters - 1));
  std::vector<std::pair<Time, Time>> windows;
  Time base = rng.uniform(0, 3);
  for (int c = 0; c < kClusters; ++c) {
    // kBlockLen jobs in a kBlockLen-slot block (Hall equality)...
    for (Time j = 0; j < kBlockLen; ++j) {
      windows.emplace_back(base, base + kBlockLen - 1);
    }
    // ...plus, in the target cluster, the floater: pinned inside the full
    // block (one past Hall capacity — infeasible) or given the free slot
    // right after it (still feasible). Total job count is seed-invariant.
    if (c == target) {
      if (overload) {
        windows.emplace_back(base, base + kBlockLen - 1);
      } else {
        windows.emplace_back(base + kBlockLen, base + kBlockLen);
      }
    }
    base += kBlockLen + 40 + rng.uniform(0, 4);  // dead run >> n
  }
  rng.shuffle(windows);
  return Instance::one_interval(windows);
}

/// Scaling chain for the polynomial bcd solvers: anchors march right in
/// mostly unit steps with occasional sleep-worthy holes (> typical alpha),
/// windows widen a little on both sides so releases collide into shared
/// classes and deadlines locally invert — the shapes that exercise the
/// bcd release-class splits. Feasible by construction (job j at its anchor;
/// anchors are strictly increasing). Used both by the small static
/// `poly_chain` family and the dynamic `poly_scale:<n>` names that address
/// sizes far beyond the exponential DPs' envelopes.
Instance make_poly_scale(std::size_t n, std::uint64_t seed) {
  Prng rng(mix(seed, 43));
  Instance inst;
  inst.processors = 1;
  Time t = rng.uniform(0, 3);
  for (std::size_t j = 0; j < n; ++j) {
    const Time lead = rng.uniform(0, 2);
    const Time tail = 1 + rng.uniform(0, 3);
    inst.jobs.push_back(
        Job{TimeSet::window(std::max<Time>(0, t - lead), t + tail)});
    t += rng.uniform(0, 9) == 0 ? 5 + rng.uniform(0, 4) : 1;
  }
  return inst;
}

/// Wide-window companion to make_poly_scale: anchors march in kWideStride
/// steps and every window spans at least two strides, so the union of
/// windows is one connected run of usable time with no dead run anywhere —
/// nothing for the prep compression to shrink or the decomposition to cut.
/// The covered mass is ~n * kWideStride distinct candidate times: by
/// n = 2000 that overflows the exponential window DPs' 2^20 packed-key
/// theta axis, while the bcd families' segment frontiers never see the
/// width at all. Feasible by construction (job j at its anchor; anchors
/// strictly increase by more than the jitter).
Instance make_poly_wide(std::size_t n, std::uint64_t seed) {
  constexpr Time kWideStride = 600;
  Prng rng(mix(seed, 47));
  Instance inst;
  inst.processors = 1;
  for (std::size_t j = 0; j < n; ++j) {
    const Time anchor =
        static_cast<Time>(j) * kWideStride + rng.uniform(0, kWideStride / 2);
    const Time lead = rng.uniform(0, kWideStride / 2);
    const Time tail = 2 * kWideStride + rng.uniform(0, kWideStride / 4);
    inst.jobs.push_back(Job{
        TimeSet::window(std::max<Time>(0, anchor - lead), anchor + tail)});
  }
  return inst;
}

/// Parses "<prefix><n>" (1 <= n <= kMaxPolyScaleJobs) for the dynamically
/// sized families. Returns true and fills n on a well-formed name.
bool parse_sized_family(std::string_view name, std::string_view prefix,
                        std::size_t* n) {
  if (name.substr(0, prefix.size()) != prefix) return false;
  const auto jobs = parse_number<std::size_t>(name.substr(prefix.size()));
  if (!jobs || *jobs < 1 || *jobs > kMaxPolyScaleJobs) return false;
  *n = *jobs;
  return true;
}

/// Parses one "stretched:<k>:" layer off the front of `name`. Returns true
/// and fills k/base on a well-formed layer.
bool parse_stretched(std::string_view name, Time* k, std::string_view* base) {
  constexpr std::string_view kPrefix = "stretched:";
  if (name.substr(0, kPrefix.size()) != kPrefix) return false;
  std::string_view rest = name.substr(kPrefix.size());
  const std::size_t colon = rest.find(':');
  if (colon == std::string_view::npos) return false;
  const auto factor = parse_number<Time>(rest.substr(0, colon));
  if (!factor || *factor < 1 || *factor > kMaxStretchFactor) return false;
  *k = *factor;
  *base = rest.substr(colon + 1);
  return true;
}

Scenario wrap(std::string name, std::string summary,
              std::function<Instance(std::uint64_t)> make) {
  Scenario s;
  s.name = std::move(name);
  s.summary = std::move(summary);
  s.make = std::move(make);
  return s;
}

}  // namespace

ScenarioCatalog::ScenarioCatalog() {
  auto add = [this](Scenario s) {
    // Fill the per-seed-invariant descriptors from a probe draw.
    const Instance probe = s.make(1);
    s.jobs = probe.n();
    s.processors = probe.processors;
    scenarios_.emplace(s.name, std::move(s));
  };

  // -- the gen/ families, under stable names ------------------------------
  Scenario s = wrap("uniform_loose",
                    "uniform windows, moderate slack; may be infeasible",
                    [](std::uint64_t seed) {
                      Prng rng(mix(seed, 1));
                      return gen_uniform_one_interval(rng, 9, 18, 6);
                    });
  add(std::move(s));

  s = wrap("feasible_spread",
           "anchored one-interval jobs, slack 3; feasible by construction",
           [](std::uint64_t seed) {
             Prng rng(mix(seed, 2));
             return gen_feasible_one_interval(rng, 9, 18, 3);
           });
  s.always_feasible = true;
  add(std::move(s));

  s = wrap("bursty_clusters",
           "3 bursts x 3 jobs, window 4; the sensor duty-cycle shape",
           [](std::uint64_t seed) {
             Prng rng(mix(seed, 3));
             return gen_bursty(rng, 3, 3, 12, 4);
           });
  s.always_feasible = true;
  add(std::move(s));

  s = wrap("multi_interval_decoys",
           "anchored 2-interval jobs (Section 5 shape)",
           [](std::uint64_t seed) {
             Prng rng(mix(seed, 4));
             return gen_multi_interval(rng, 8, 20, 2, 2);
           });
  s.always_feasible = true;
  s.one_interval = false;
  add(std::move(s));

  s = wrap("unit_points", "anchored 3-unit point jobs (Section 5 shape)",
           [](std::uint64_t seed) {
             Prng rng(mix(seed, 5));
             return gen_unit_points(rng, 8, 18, 3);
           });
  s.always_feasible = true;
  s.one_interval = false;
  add(std::move(s));

  s = wrap("online_adversarial",
           "paper's Omega(n) online lower-bound family (deterministic)",
           [](std::uint64_t) { return gen_online_adversarial(5); });
  s.always_feasible = true;
  add(std::move(s));

  // -- adversarial additions ---------------------------------------------
  s = wrap("nested_windows", "strictly nested windows, shuffled job order",
           make_nested_windows);
  s.always_feasible = true;
  add(std::move(s));

  s = wrap("sparse_spread",
           "wide windows far apart; one forced span per job",
           make_sparse_spread);
  s.always_feasible = true;
  add(std::move(s));

  s = wrap("power_longhaul",
           "few wide-window jobs, long horizon; gaps straddle alpha",
           make_power_longhaul);
  s.always_feasible = true;
  add(std::move(s));

  s = wrap("hall_critical",
           "zero-slack Hall-equality blocks; every schedule is forced",
           make_hall_critical);
  s.always_feasible = true;
  add(std::move(s));

  s = wrap("staircase_multiproc",
           "p=3 staircase occupancy {1,2,3,3,2,1} with unit widening",
           make_staircase_multiproc);
  s.always_feasible = true;
  add(std::move(s));

  s = wrap("infeasible_by_one",
           "Hall block with one job too many, plus feasible filler",
           make_infeasible_by_one);
  s.always_infeasible = true;
  add(std::move(s));

  s = wrap("overloaded_point", "all jobs pinned to one instant (p=1)",
           make_overloaded_point);
  s.always_infeasible = true;
  add(std::move(s));

  s = wrap("straddled_clusters",
           "multi-interval jobs straddle two far-apart clusters; only "
           "compression removes the welded dead run",
           make_straddled_clusters);
  s.always_feasible = true;
  s.one_interval = false;
  add(std::move(s));

  s = wrap("mega_mixed",
           "4 far-apart Hall blocks; ~half the seeds overload one block "
           "(mixed feasible/infeasible mega-batches)",
           make_mega_mixed);
  add(std::move(s));

  s = wrap("poly_chain",
           "small draw of the poly_scale chain (shared release classes, "
           "local deadline inversions); scales via poly_scale:<n>",
           [](std::uint64_t seed) { return make_poly_scale(12, seed); });
  s.always_feasible = true;
  add(std::move(s));
}

const ScenarioCatalog& ScenarioCatalog::instance() {
  static const ScenarioCatalog catalog;
  return catalog;
}

const Scenario* ScenarioCatalog::find(std::string_view name) const {
  const auto it = scenarios_.find(name);
  return it == scenarios_.end() ? nullptr : &it->second;
}

std::vector<const Scenario*> ScenarioCatalog::all() const {
  std::vector<const Scenario*> out;
  out.reserve(scenarios_.size());
  for (const auto& [name, s] : scenarios_) out.push_back(&s);
  return out;
}

std::vector<std::string> ScenarioCatalog::names() const {
  std::vector<std::string> out;
  out.reserve(scenarios_.size());
  for (const auto& [name, s] : scenarios_) out.push_back(name);
  return out;
}

std::optional<Instance> make_scenario(std::string_view name,
                                      std::uint64_t seed) {
  // The dynamic time-dilation wrapper: "stretched:<k>:<base>" draws the
  // base scenario and dilates every interior dead run of length at least
  // kStretchMinRun by k. Wrappers nest ("stretched:2:stretched:3:x" dilates
  // by 6), though one level is the common use. Layers are folded into one
  // combined factor, applied once — equivalent to applying them in
  // sequence (a run either clears the floor, and every layer multiplies
  // it, or stays below it untouched) — and the COMBINED factor is bounded
  // by kMaxStretchFactor, so stacked layers cannot multiply past the
  // per-layer cap into Time overflow, and a pathological
  // "stretched:2:stretched:2:..." name cannot recurse unboundedly.
  Time combined = 1;
  bool wrapped = false;
  std::string_view spec = name;
  for (Time k = 0; true;) {
    std::string_view base;
    if (!parse_stretched(spec, &k, &base)) break;
    if (combined > kMaxStretchFactor / k) return std::nullopt;
    combined *= k;
    wrapped = true;
    spec = base;
  }
  if (wrapped) {
    std::optional<Instance> inner = make_scenario(spec, seed);
    if (!inner.has_value()) return std::nullopt;
    return stretch_dead_time(*inner, combined, kStretchMinRun);
  }
  // The dynamic scaling families: "poly_scale:<n>" draws the poly_chain
  // shape and "poly_wide:<n>" its wide-window companion at any size up to
  // kMaxPolyScaleJobs. Deliberately NOT in the static catalog: catalog-wide
  // sweeps run every registered family, and at these sizes the exponential
  // exact solvers would hang (poly_scale) or reject (poly_wide) rather
  // than answer.
  if (std::size_t jobs = 0; parse_sized_family(name, "poly_scale:", &jobs)) {
    return make_poly_scale(jobs, seed);
  }
  if (std::size_t jobs = 0; parse_sized_family(name, "poly_wide:", &jobs)) {
    return make_poly_wide(jobs, seed);
  }
  const Scenario* s = ScenarioCatalog::instance().find(name);
  if (s == nullptr) return std::nullopt;
  return s->make(seed);
}

}  // namespace gapsched::scenarios
