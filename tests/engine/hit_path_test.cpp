// The steps a validated disk hit runs — canonicalize, the cache key, the
// result reader, and the oracle's schedule audit — each pinned against a
// reference kept here: the straightforward form each step had before it was
// rewritten to run in one pass over flat memory. Outputs must match exactly:
// the canonical order and shift, the key text and digest, every reader
// diagnostic, and every audit violation in order.

#include <gtest/gtest.h>

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "gapsched/core/hash.hpp"
#include "gapsched/core/transforms.hpp"
#include "gapsched/engine/cache.hpp"
#include "gapsched/engine/engine.hpp"
#include "gapsched/io/json.hpp"
#include "gapsched/oracle/oracle.hpp"
#include "gapsched/prep/prep.hpp"
#include "gapsched/scenarios/scenarios.hpp"
#include "../support/test_seed.hpp"

namespace gapsched {
namespace {

using engine::Objective;
using engine::SolveResult;

/// Catalog draws small enough that the quadratic references stay quick.
std::vector<std::pair<std::string, Instance>> catalog_draws() {
  std::vector<std::pair<std::string, Instance>> out;
  for (const scenarios::Scenario* sc :
       scenarios::ScenarioCatalog::instance().all()) {
    for (const std::uint64_t seed : {1u, 7u}) {
      out.emplace_back(sc->name + ":" + std::to_string(seed), sc->make(seed));
    }
  }
  return out;
}

// ------------------------------------------------------- canonicalize --

/// Sorts job ids with a comparator that reads each job's TimeSet.
prep::Canonical reference_canonicalize(const Instance& inst) {
  prep::Canonical out;
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
  for (std::size_t i : out.order) {
    out.instance.jobs.push_back(Job{inst.jobs[i].allowed.shifted(-out.shift)});
  }
  return out;
}

void expect_canonical_matches(const Instance& inst) {
  const prep::Canonical got = prep::canonicalize(inst);
  const prep::Canonical want = reference_canonicalize(inst);
  EXPECT_EQ(got.shift, want.shift);
  EXPECT_EQ(got.order, want.order);
  EXPECT_EQ(got.instance.processors, want.instance.processors);
  ASSERT_EQ(got.instance.n(), want.instance.n());
  for (std::size_t j = 0; j < got.instance.n(); ++j) {
    ASSERT_EQ(got.instance.jobs[j].allowed, want.instance.jobs[j].allowed)
        << "job " << j;
  }
}

TEST(CanonicalizeVsReference, CatalogUnderPermutationsShiftsAndTies) {
  const std::uint64_t prng_seed = testing::seed_for(12001);
  GAPSCHED_TRACE_SEED(prng_seed);
  Prng rng(prng_seed);
  for (const auto& [name, base] : catalog_draws()) {
    SCOPED_TRACE(name);
    expect_canonical_matches(base);
    for (int draw = 0; draw < 4; ++draw) {
      Instance inst = base;
      // Ties on (min, max): copies of drawn jobs, some with their interior
      // reshaped so only the id can order them.
      const std::size_t ties = inst.n() == 0 ? 0 : 1 + rng.index(4);
      for (std::size_t t = 0; t < ties; ++t) {
        const TimeSet& set = inst.jobs[rng.index(inst.n())].allowed;
        if (set.max() - set.min() >= 2 && rng.chance(0.5)) {
          inst.jobs.push_back(Job{TimeSet{{Interval{set.min(), set.min()},
                                           Interval{set.max(), set.max()}}}});
        } else {
          inst.jobs.push_back(Job{set});
        }
      }
      rng.shuffle(inst.jobs);
      const Time shift = rng.uniform(-1000000, 1000000);
      for (Job& job : inst.jobs) job.allowed.shift(shift);
      expect_canonical_matches(inst);
    }
  }
}

TEST(CanonicalizeVsReference, AlreadyCanonicalAndEmptyInputs) {
  expect_canonical_matches(Instance{});
  const Instance inst = *scenarios::make_scenario("poly_scale:300", 7);
  expect_canonical_matches(inst);
  expect_canonical_matches(prep::canonicalize(inst).instance);
  // All jobs equal: the order is the ids'.
  expect_canonical_matches(
      Instance::one_interval({{4, 9}, {4, 9}, {4, 9}, {4, 9}}));
}

// ------------------------------------------------------------ cache key --

/// Appends the key text piece by piece into a growing string.
std::string reference_key_text(const engine::SolverInfo& info,
                               Objective objective,
                               const engine::SolveParams& params,
                               const Instance& canonical) {
  std::string text;
  const auto append_int = [&](auto value) {
    char buf[24];
    text.append(buf, std::to_chars(buf, buf + sizeof buf, value).ptr);
  };
  const auto append_double = [&](double value) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.17g", value);
    text += buf;
  };
  text += info.name;
  text += '|';
  text += engine::to_string(objective);
  text += "|p";
  append_int(canonical.processors);
  if ((info.params & engine::kUsesAlpha) != 0) {
    text += "|a=";
    append_double(params.alpha);
  }
  if ((info.params & engine::kUsesMaxSpans) != 0) {
    text += "|k=";
    append_int(params.max_spans);
  }
  if ((info.params & engine::kUsesThreshold) != 0) {
    text += "|t=";
    append_double(params.powerdown_threshold);
  }
  if ((info.params & engine::kUsesPacking) != 0) {
    text += "|s=";
    append_int(params.swap_size);
    text += ",b=";
    append_int(params.block_size);
  }
  for (const Job& job : canonical.jobs) {
    text += '|';
    for (const Interval& iv : job.allowed.intervals()) {
      append_int(iv.lo);
      text += ',';
      append_int(iv.hi);
      text += ';';
    }
  }
  return text;
}

TEST(CacheKeyVsReference, TextAndDigestOverTheCatalogAndEverySolver) {
  engine::SolveParams params;
  params.alpha = 2.5;
  params.max_spans = 3;
  params.powerdown_threshold = 1.25;
  params.swap_size = 1;
  params.block_size = 3;
  const auto& registry = engine::SolverRegistry::instance();
  for (const auto& [name, inst] : catalog_draws()) {
    SCOPED_TRACE(name);
    // The forms the pipeline keys (compressed components) and raw draws
    // with negative and wide times.
    std::vector<Instance> forms;
    const prep::Decomposition dec =
        prep::decompose(inst, static_cast<Time>(inst.n()));
    for (const prep::Component& comp : dec.components) {
      forms.push_back(compress_dead_time_capped(comp.instance, 1).instance);
    }
    forms.push_back(inst);
    Instance far = inst;
    for (Job& job : far.jobs) job.allowed.shift(-4000000000000);
    forms.push_back(std::move(far));
    for (const Instance& form : forms) {
      for (const engine::Solver* solver : registry.all()) {
        const engine::SolverInfo& info = solver->info();
        const engine::CacheKey key =
            engine::make_cache_key(info, info.objective, params, form);
        const std::string want =
            reference_key_text(info, info.objective, params, form);
        ASSERT_EQ(key.text, want) << info.name;
        ASSERT_EQ(key.digest, fnv1a64(want)) << info.name;
      }
    }
  }
}

// -------------------------------------------------------- result reader --

/// A result document around one `schedule` member.
std::string result_with_schedule(const std::string& schedule) {
  return "{\"gapsched\": \"result\",\"ok\": true,\"error\": \"\","
         "\"feasible\": true,\"cost\": 1,\"transitions\": 1,\"schedule\": " +
         schedule + "}";
}

/// The schedule as the writer spells it.
std::string written_schedule(const SolveResult& result) {
  const std::string text = io::result_to_json(result);
  const std::size_t at = text.find("\"schedule\": ");
  return text.substr(at + 12, text.size() - at - 13);
}

TEST(ResultReaderVsReference, SlotSpellingsOrdersAndHostileCounts) {
  // Each verdict is the reader's before slots went straight into the
  // Schedule: the schedule it wrote back, or its diagnostic.
  struct Case {
    const char* schedule;
    const char* want;  // written schedule, or "error: <diagnostic>"
  };
  const Case cases[] = {
      {R"({"jobs": 3,"slots": [[0,4,0],[2,5,-1]]})",
       R"({"jobs": 3,"slots": [[0,4,0],[2,5,-1]]})"},
      // Object slots, in any member order, and mixed with triples.
      {R"({"jobs": 3,"slots": [{"job": 0,"time": 4,"processor": 0},{"time": 5,"job": 2}]})",
       R"({"jobs": 3,"slots": [[0,4,0],[2,5,-1]]})"},
      {R"({"jobs": 3,"slots": [{"job": 0,"time": 4,"processor": 0},[2,5,-1]]})",
       R"({"jobs": 3,"slots": [[0,4,0],[2,5,-1]]})"},
      {R"({"jobs": 2,"slots": [{"job": 1,"time": 3}]})",
       R"({"jobs": 2,"slots": [[1,3,-1]]})"},
      {R"({"jobs": 2,"slots": [{"time": 3}]})", "error: malformed schedule slot"},
      // Slots before jobs, blanks inside slots, unknown members.
      {R"({"slots": [[0,4,0],[2,5,-1]],"jobs": 3})",
       R"({"jobs": 3,"slots": [[0,4,0],[2,5,-1]]})"},
      {R"({"jobs": 3, "slots": [ [ 0 , 4 , 0 ] , [2,5,-1] ]})",
       R"({"jobs": 3,"slots": [[0,4,0],[2,5,-1]]})"},
      {R"({"jobs": 1,"extra": [1,2],"slots": [[0,1,0]]})",
       R"({"jobs": 1,"slots": [[0,1,0]]})"},
      // A slot job at or past `jobs`, in either member order.
      {R"({"jobs": 2,"slots": [[0,4,0],[2,5,-1]]})",
       "error: malformed schedule slot"},
      {R"({"slots": [[0,4,0],[2,5,-1]],"jobs": 2})",
       "error: malformed schedule slot"},
      {R"({"slots": [[3,1,0]],"jobs": 3})", "error: malformed schedule slot"},
      {R"({"slots": [[0,1,0]]})", "error: malformed schedule slot"},
      {R"({"slots": []})", R"({"jobs": 0,"slots": []})"},
      {R"({"jobs": 0,"slots": []})", R"({"jobs": 0,"slots": []})"},
      // Duplicate slots: the later one stands.
      {R"({"jobs": 2,"slots": [[0,4,0],[0,6,1]]})",
       R"({"jobs": 2,"slots": [[0,6,1]]})"},
      // Hostile counts, and which diagnostic wins next to them.
      {R"({"jobs": 1000000000000000,"slots": []})",
       "error: 'jobs' count 1000000000000000 is above the limit of 2097152"},
      {R"({"slots": [],"jobs": 1000000000000000})",
       "error: 'jobs' count 1000000000000000 is above the limit of 2097152"},
      {R"({"jobs": 2097153,"slots": [[0,4,0]]})",
       "error: 'jobs' count 2097153 is above the limit of 2097152"},
      {R"({"jobs": 1000000000000000,"slots": [[0,4]]})",
       "error: malformed schedule slot"},
      {R"({"jobs": -1,"slots": [[0,4,0]]})", "error: malformed 'jobs' field"},
      {R"({"jobs": 1e3,"slots": [[0,4,0]]})", "error: malformed 'jobs' field"},
      {R"({"slots": [[0,1]],"jobs": -1})", "error: malformed schedule slot"},
      {R"({"jobs": 1,"slots": [[5,4,0],{"job": 0,"time": "x"}]})",
       "error: malformed 'time' field"},
      // Slot shapes and number spellings.
      {R"({"jobs": 1,"slots": [[0,1]]})", "error: malformed schedule slot"},
      {R"({"jobs": 1,"slots": [[0,1,2,3]]})", "error: malformed schedule slot"},
      {R"({"jobs": 1,"slots": [[1.5,1,0]]})", "error: malformed schedule slot"},
      {R"({"jobs": 1,"slots": [[-1,1,0]]})", "error: malformed schedule slot"},
      {R"({"jobs": 1,"slots": [[0,1,2147483648]]})",
       "error: malformed schedule slot"},
      {R"({"jobs": 1,"slots": [[0,1e2,0]]})", "error: malformed schedule slot"},
      {R"({"jobs": 1,"slots": [["0",1,0]]})", "error: malformed schedule slot"},
      {R"({"jobs": 1,"slots": [[0,4000000000000,0]]})",
       R"({"jobs": 1,"slots": [[0,4000000000000,0]]})"},
      {R"({"jobs": 1,"slots": [[0,-40000000000000000,0]]})",
       R"({"jobs": 1,"slots": [[0,-40000000000000000,0]]})"},
      {R"({"jobs": 1,"slots": [[0,1,-2]]})", R"({"jobs": 1,"slots": [[0,1,-2]]})"},
      {R"({"jobs": 1,"slots": {}})", "error: malformed 'slots' field"},
      {R"([])", "error: malformed 'schedule' field"},
      // Syntax errors outrank everything.
      {R"({"jobs": 1,"jobs": 1,"slots": [[0,1,0]]})",
       "error: duplicate object key 'jobs' (at byte 118)"},
      {R"({"slots": [{"job": 1,"time": 3}],"jobs": 2,"slots": []})",
       "error: duplicate object key 'slots' (at byte 151)"},
      {R"({"jobs": 1,"slots": [[0,1,0]})",
       "error: expected ',' or ']' (at byte 129)"},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.schedule);
    const std::string text = result_with_schedule(c.schedule);
    std::string error;
    const std::optional<SolveResult> parsed = io::result_from_json(text, &error);
    const std::string got =
        parsed.has_value() ? written_schedule(*parsed) : "error: " + error;
    EXPECT_EQ(got, c.want);
  }
}

TEST(ResultReaderVsReference, SlotListsStopAtTheJobLimit) {
  // kMaxJobs slots still read (with no 'jobs' member every one is out of
  // range); one more is the list diagnostic.
  std::string slots = "{\"slots\": [[0,0,0]";
  slots.reserve(slots.size() + 8 * io::kMaxJobs + 16);
  for (std::size_t i = 1; i < io::kMaxJobs; ++i) slots += ",[0,0,0]";
  std::string error;
  EXPECT_FALSE(io::result_from_json(result_with_schedule(slots + "]}"), &error)
                   .has_value());
  EXPECT_EQ(error, "malformed schedule slot");
  EXPECT_FALSE(io::result_from_json(result_with_schedule(slots + ",[0,0,0]]}"),
                                    &error)
                   .has_value());
  EXPECT_EQ(error, "'slots' lists more than 2097152 entries");
}

TEST(ResultReaderVsReference, NumberTokensReadAsStrtodAndFromChars) {
  // The integer path converts while it scans; every token must read as
  // from_chars (integers) and strtod (the double) read it, or fail alike.
  const char* tokens[] = {"0",    "-0",   "7",   "-7",  "007", "-00",
                          "123456789012345", "-123456789012345",
                          "1234567890123456", "9007199254740993",
                          "-9223372036854775808", "9223372036854775807",
                          "9223372036854775808", "99999999999999999999999",
                          "1.5",  "-1e-3", "1e5", "+5",  "0.0"};
  for (const char* token : tokens) {
    SCOPED_TRACE(token);
    const std::string cost =
        std::string("{\"gapsched\": \"result\",\"cost\": ") + token + "}";
    const std::optional<SolveResult> parsed = io::result_from_json(cost);
    ASSERT_TRUE(parsed.has_value());
    const double want = std::strtod(token, nullptr);
    EXPECT_EQ(std::signbit(parsed->cost), std::signbit(want));
    EXPECT_EQ(parsed->cost, want);

    const std::string transitions =
        std::string("{\"gapsched\": \"result\",\"transitions\": ") + token +
        "}";
    std::int64_t integer = 0;
    const std::string_view view(token);
    const auto [end, ec] =
        std::from_chars(view.data(), view.data() + view.size(), integer);
    const bool integral = ec == std::errc{} && end == view.data() + view.size();
    const std::optional<SolveResult> counted =
        io::result_from_json(transitions);
    ASSERT_EQ(counted.has_value(), integral);
    if (integral) {
      EXPECT_EQ(counted->transitions, integer);
    }
  }
  for (const char* bad : {"-", "--1", "1e", "12a", "1-2"}) {
    SCOPED_TRACE(bad);
    EXPECT_FALSE(io::result_from_json(
                     std::string("{\"gapsched\": \"result\",\"cost\": ") +
                     bad + "}")
                     .has_value());
  }
}

TEST(ResultReaderVsReference, CatalogAnswersRoundTrip) {
  engine::Engine eng;
  for (const auto& [name, inst] : catalog_draws()) {
    SCOPED_TRACE(name);
    const SolveResult result =
        eng.solve("fhkn_greedy", {inst, Objective::kGaps, {}});
    const std::string text = io::result_to_json(result);
    std::string error;
    const std::optional<SolveResult> read = io::result_from_json(text, &error);
    ASSERT_TRUE(read.has_value()) << error;
    EXPECT_EQ(io::result_to_json(*read), text);
    EXPECT_EQ(read->schedule, result.schedule);
  }
}

// ---------------------------------------------------------------- audit --

/// Sorts the busy times and the explicit (time, processor) pairs apart.
oracle::ScheduleAudit reference_audit(const Instance& inst,
                                      const Schedule& schedule,
                                      bool require_complete) {
  oracle::ScheduleAudit a;
  if (schedule.size() != inst.n()) {
    a.violations.push_back("schedule covers " +
                           std::to_string(schedule.size()) +
                           " jobs, instance has " + std::to_string(inst.n()));
    return a;
  }
  std::vector<Time> times;
  std::vector<std::pair<Time, int>> proc_slots;
  for (std::size_t i = 0; i < inst.n(); ++i) {
    const auto& slot = schedule.at(i);
    if (!slot.has_value()) {
      if (require_complete) {
        a.violations.push_back("job " + std::to_string(i) + " unscheduled");
      }
      continue;
    }
    ++a.scheduled;
    times.push_back(slot->time);
    if (!inst.jobs[i].allowed.contains(slot->time)) {
      a.violations.push_back("job " + std::to_string(i) +
                             " runs at disallowed time " +
                             std::to_string(slot->time));
    }
    if (slot->processor != Placement::kUnassigned) {
      if (slot->processor < 0 || slot->processor >= inst.processors) {
        a.violations.push_back("job " + std::to_string(i) +
                               " on out-of-range processor " +
                               std::to_string(slot->processor));
      } else {
        proc_slots.emplace_back(slot->time, slot->processor);
      }
    }
  }
  a.complete = a.scheduled == inst.n();
  a.busy_time = static_cast<std::int64_t>(times.size());
  std::sort(times.begin(), times.end());
  for (std::size_t i = 0; i < times.size();) {
    std::size_t j = i;
    while (j < times.size() && times[j] == times[i]) ++j;
    a.occupancy.emplace_back(times[i], static_cast<int>(j - i));
    i = j;
  }
  for (const auto& [t, count] : a.occupancy) {
    if (count > inst.processors) {
      a.violations.push_back(std::to_string(count) + " jobs at time " +
                             std::to_string(t) + " on " +
                             std::to_string(inst.processors) +
                             " processor(s)");
    }
    a.max_occupancy = std::max(a.max_occupancy, count);
  }
  std::sort(proc_slots.begin(), proc_slots.end());
  for (std::size_t i = 1; i < proc_slots.size(); ++i) {
    if (proc_slots[i] == proc_slots[i - 1]) {
      a.violations.push_back("two jobs share time " +
                             std::to_string(proc_slots[i].first) +
                             " on processor " +
                             std::to_string(proc_slots[i].second));
    }
  }
  Time prev_t = 0;
  int prev_count = 0;
  for (const auto& [t, count] : a.occupancy) {
    const int carried = (prev_count > 0 && t == prev_t + 1) ? prev_count : 0;
    if (carried == 0) ++a.spans;
    a.transitions += std::max(0, count - carried);
    prev_t = t;
    prev_count = count;
  }
  a.valid = a.violations.empty();
  return a;
}

void expect_audit_matches(const Instance& inst, const Schedule& schedule) {
  for (const bool complete : {true, false}) {
    const oracle::ScheduleAudit got =
        oracle::audit_schedule(inst, schedule, complete);
    const oracle::ScheduleAudit want = reference_audit(inst, schedule, complete);
    ASSERT_EQ(got.violations, want.violations);
    EXPECT_EQ(got.valid, want.valid);
    EXPECT_EQ(got.scheduled, want.scheduled);
    EXPECT_EQ(got.complete, want.complete);
    EXPECT_EQ(got.occupancy, want.occupancy);
    EXPECT_EQ(got.busy_time, want.busy_time);
    EXPECT_EQ(got.max_occupancy, want.max_occupancy);
    EXPECT_EQ(got.transitions, want.transitions);
    EXPECT_EQ(got.spans, want.spans);
  }
}

/// A random placement of every job in its window, some on no processor.
Schedule random_schedule(const Instance& inst, Prng& rng) {
  Schedule s(inst.n());
  for (std::size_t j = 0; j < inst.n(); ++j) {
    const std::span<const Interval> ivs = inst.jobs[j].allowed.intervals();
    const Interval& iv = ivs[rng.index(ivs.size())];
    const int processor =
        rng.chance(0.2) ? Placement::kUnassigned
                        : static_cast<int>(rng.index(
                              static_cast<std::size_t>(inst.processors)));
    s.place(j, rng.uniform(iv.lo, std::min(iv.hi, iv.lo + 6)), processor);
  }
  return s;
}

TEST(AuditVsReference, MutationBatteryOverTheCatalog) {
  const std::uint64_t prng_seed = testing::seed_for(12002);
  GAPSCHED_TRACE_SEED(prng_seed);
  Prng rng(prng_seed);
  engine::Engine eng;
  for (const auto& [name, inst] : catalog_draws()) {
    SCOPED_TRACE(name);
    if (inst.n() == 0) continue;
    std::vector<Schedule> bases;
    const SolveResult solved =
        eng.solve("fhkn_greedy", {inst, Objective::kGaps, {}});
    if (solved.ok && solved.feasible) bases.push_back(solved.schedule);
    bases.push_back(random_schedule(inst, rng));
    for (const Schedule& base : bases) {
      expect_audit_matches(inst, base);
      for (int draw = 0; draw < 12; ++draw) {
        Schedule s = base;
        const std::size_t n = inst.n();
        for (int edit = 0; edit < 1 + static_cast<int>(rng.index(4)); ++edit) {
          const std::size_t j = rng.index(n);
          const std::size_t k = rng.index(n);
          const std::optional<Placement> other = s.at(k);
          switch (rng.index(6)) {
            case 0:  // collision: another job's exact slot
              if (other.has_value()) s.place(j, other->time, other->processor);
              break;
            case 1:  // over capacity: a pile of jobs at one time
              if (other.has_value()) {
                for (std::size_t x = 0; x < 1 + rng.index(4); ++x) {
                  s.place(rng.index(n), other->time, Placement::kUnassigned);
                }
              }
              break;
            case 2:  // out-of-range processor
              if (s.at(j).has_value()) {
                const int bad[] = {-2, inst.processors, inst.processors + 7};
                s.place(j, s.at(j)->time, bad[rng.index(3)]);
              }
              break;
            case 3:  // unassigned job
              s.unschedule(j);
              break;
            case 4:  // disallowed time
              if (s.at(j).has_value()) {
                s.place(j, inst.jobs[j].allowed.max() + 1 + rng.uniform(0, 3),
                        s.at(j)->processor);
              }
              break;
            default:  // processor dropped to profile form
              if (s.at(j).has_value()) {
                s.place(j, s.at(j)->time, Placement::kUnassigned);
              }
          }
        }
        expect_audit_matches(inst, s);
      }
    }
  }
}

TEST(AuditVsReference, HandBuiltViolationsKeepTheirOrder) {
  // Two processors; every kind of violation at once, in job order, then
  // capacity in time order, then collisions in (time, processor) order.
  const Instance inst =
      Instance::one_interval({{0, 4}, {0, 4}, {0, 4}, {0, 4}, {0, 4}, {0, 4}},
                             2);
  Schedule s(inst.n());
  s.place(0, 3, 1);
  s.place(1, 3, 1);   // collides with job 0
  s.place(2, 3, -1);  // third job at time 3
  s.place(3, 9, 5);   // disallowed and out of range
  s.place(4, 1, 0);
  expect_audit_matches(inst, s);
  const oracle::ScheduleAudit a = oracle::audit_schedule(inst, s, true);
  EXPECT_EQ(a.violations,
            (std::vector<std::string>{
                "job 3 runs at disallowed time 9",
                "job 3 on out-of-range processor 5", "job 5 unscheduled",
                "3 jobs at time 3 on 2 processor(s)",
                "two jobs share time 3 on processor 1"}));
  expect_audit_matches(inst, Schedule(inst.n() + 1));
}

}  // namespace
}  // namespace gapsched
