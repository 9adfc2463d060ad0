// io/json.hpp — the engine's JSON request/response codec: round trips,
// default handling, and malformed-document rejection.

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "gapsched/engine/engine.hpp"
#include "gapsched/io/json.hpp"

namespace gapsched::io {
namespace {

using engine::Objective;
using engine::SolveRequest;
using engine::SolveResult;

TEST(JsonCodec, RequestRoundTripsThroughTheWireFormat) {
  SolveRequest request;
  request.objective = Objective::kPower;
  request.params.alpha = 2.5;
  request.params.max_spans = 3;
  request.params.powerdown_threshold = 1.25;
  request.params.swap_size = 1;
  request.params.block_size = 4;
  request.params.time_limit_s = 0.5;
  request.params.validate = true;
  request.params.decompose = false;
  request.instance.processors = 2;
  request.instance.jobs.push_back(Job{TimeSet::window(0, 5)});
  request.instance.jobs.push_back(
      Job{TimeSet{{Interval{2, 3}, Interval{8, 9}}}});

  const std::string text = request_to_json("power_dp", request);
  std::string solver, error;
  const auto parsed = request_from_json(text, &solver, &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  EXPECT_EQ(solver, "power_dp");
  EXPECT_EQ(parsed->objective, Objective::kPower);
  EXPECT_DOUBLE_EQ(parsed->params.alpha, 2.5);
  EXPECT_EQ(parsed->params.max_spans, 3u);
  EXPECT_DOUBLE_EQ(parsed->params.powerdown_threshold, 1.25);
  EXPECT_EQ(parsed->params.swap_size, 1);
  EXPECT_EQ(parsed->params.block_size, 4);
  EXPECT_DOUBLE_EQ(parsed->params.time_limit_s, 0.5);
  EXPECT_TRUE(parsed->params.validate);
  EXPECT_FALSE(parsed->params.decompose);
  EXPECT_EQ(parsed->instance.processors, 2);
  ASSERT_EQ(parsed->instance.n(), 2u);
  EXPECT_EQ(parsed->instance.jobs[0].allowed, request.instance.jobs[0].allowed);
  EXPECT_EQ(parsed->instance.jobs[1].allowed, request.instance.jobs[1].allowed);
}

TEST(JsonCodec, OmittedParamsKeepDefaults) {
  std::string solver, error;
  const auto parsed = request_from_json(
      R"({"solver": "gap_dp", "instance": {"jobs": [[[0, 4]], [[2, 6]]]}})",
      &solver, &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  EXPECT_EQ(solver, "gap_dp");
  EXPECT_EQ(parsed->objective, Objective::kGaps);
  EXPECT_EQ(parsed->instance.processors, 1);
  EXPECT_DOUBLE_EQ(parsed->params.alpha, 2.0);
  EXPECT_TRUE(parsed->params.decompose);
}

TEST(JsonCodec, ResultRoundTripsIncludingTheSchedule) {
  // A real engine answer, not a hand-built document.
  engine::Engine eng;
  SolveRequest request;
  request.instance = Instance::one_interval({{0, 3}, {1, 4}, {10, 12}});
  request.params.validate = true;
  const SolveResult solved = eng.solve("gap_dp", request);
  ASSERT_TRUE(solved.ok) << solved.error;

  std::string error;
  const auto parsed = result_from_json(result_to_json(solved), &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  EXPECT_EQ(parsed->ok, solved.ok);
  EXPECT_EQ(parsed->feasible, solved.feasible);
  EXPECT_DOUBLE_EQ(parsed->cost, solved.cost);
  EXPECT_EQ(parsed->transitions, solved.transitions);
  EXPECT_EQ(parsed->audited, solved.audited);
  EXPECT_EQ(parsed->audit_error, solved.audit_error);
  EXPECT_EQ(parsed->stats.states, solved.stats.states);
  EXPECT_EQ(parsed->stats.components, solved.stats.components);
  EXPECT_EQ(parsed->schedule, solved.schedule);
}

TEST(JsonCodec, EverySolveStatsFieldRoundTrips) {
  // Hand-fill every field of the stats struct with a distinct value so a
  // writer or reader that drops one is caught here, not by a consumer.
  SolveResult r;
  r.ok = true;
  r.feasible = true;
  r.cost = 7.5;
  r.transitions = 3;
  r.stats.wall_ms = 12.25;
  r.stats.states = 101;
  r.stats.nodes = 102;
  r.stats.scheduled = 103;
  r.stats.components = 104;
  r.stats.cache_hit = true;
  r.stats.component_cache_hits = 105;
  r.stats.components_deduped = 106;
  r.stats.dead_time_removed = -107;
  r.stats.memo_arena_solves = 108;
  r.stats.memo_hash_solves = 109;
  r.stats.memo_find_calls = 111;
  r.stats.memo_probe_steps = 112;
  r.stats.memo_pruned = 113;
  for (std::size_t i = 0; i < engine::kPipelineStageCount; ++i) {
    r.stats.stages[i].ran = (i % 2) == 0;
    r.stats.stages[i].ms = 0.5 * static_cast<double>(i + 1);
  }

  std::string error;
  const auto parsed = result_from_json(result_to_json(r), &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  const engine::SolveStats& s = parsed->stats;
  EXPECT_DOUBLE_EQ(s.wall_ms, 12.25);
  EXPECT_EQ(s.states, 101u);
  EXPECT_EQ(s.nodes, 102u);
  EXPECT_EQ(s.scheduled, 103u);
  EXPECT_EQ(s.components, 104u);
  EXPECT_TRUE(s.cache_hit);
  EXPECT_EQ(s.component_cache_hits, 105u);
  EXPECT_EQ(s.components_deduped, 106u);
  EXPECT_EQ(s.dead_time_removed, -107);
  EXPECT_EQ(s.memo_arena_solves, 108u);
  EXPECT_EQ(s.memo_hash_solves, 109u);
  EXPECT_EQ(s.memo_find_calls, 111u);
  EXPECT_EQ(s.memo_probe_steps, 112u);
  EXPECT_EQ(s.memo_pruned, 113u);
  for (std::size_t i = 0; i < engine::kPipelineStageCount; ++i) {
    EXPECT_EQ(s.stages[i].ran, (i % 2) == 0) << "stage " << i;
    EXPECT_DOUBLE_EQ(s.stages[i].ms, 0.5 * static_cast<double>(i + 1))
        << "stage " << i;
  }
}

TEST(JsonCodec, MalformedStageEntriesAreRejected) {
  std::string error;
  // Unknown stage names and non-object entries are diagnostics, not
  // silently dropped keys.
  EXPECT_FALSE(result_from_json(
                   R"({"ok": true,
                       "stats": {"stages": {"warp": {"ran": true, "ms": 1}}}})",
                   &error)
                   .has_value());
  EXPECT_NE(error.find("warp"), std::string::npos) << error;
  EXPECT_FALSE(result_from_json(
                   R"({"ok": true, "stats": {"stages": {"dispatch": 3}}})",
                   &error)
                   .has_value());
  EXPECT_FALSE(
      result_from_json(R"({"ok": true, "stats": {"stages": []}})", &error)
          .has_value());
}

TEST(JsonCodec, RejectedAndInfeasibleResultsRoundTrip) {
  SolveResult rejected = SolveResult::rejected("out of envelope");
  std::string error;
  auto parsed = result_from_json(result_to_json(rejected), &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  EXPECT_FALSE(parsed->ok);
  EXPECT_EQ(parsed->error, "out of envelope");

  SolveResult infeasible;
  infeasible.ok = true;
  infeasible.feasible = false;
  parsed = result_from_json(result_to_json(infeasible), &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  EXPECT_TRUE(parsed->ok);
  EXPECT_FALSE(parsed->feasible);
  EXPECT_EQ(parsed->schedule.size(), 0u);
}

TEST(JsonCodec, MalformedDocumentsAreRejectedWithDiagnostics) {
  std::string solver, error;
  EXPECT_FALSE(request_from_json("", &solver, &error).has_value());
  EXPECT_FALSE(error.empty());

  EXPECT_FALSE(request_from_json("[1, 2]", &solver, &error).has_value());
  EXPECT_FALSE(
      request_from_json(R"({"instance": {"jobs": []}})", &solver, &error)
          .has_value());  // no solver
  EXPECT_FALSE(request_from_json(
                   R"({"solver": "gap_dp", "objective": "profit",
                       "instance": {"jobs": []}})",
                   &solver, &error)
                   .has_value());  // unknown objective
  EXPECT_FALSE(request_from_json(
                   R"({"solver": "gap_dp",
                       "instance": {"jobs": [[[0]]]}})",
                   &solver, &error)
                   .has_value());  // interval is not a pair
  EXPECT_FALSE(request_from_json(
                   R"({"solver": "gap_dp", "instance": {"jobs": []}} x)",
                   &solver, &error)
                   .has_value());  // trailing garbage

  // Out-of-range integers must be parse errors, not silent truncations
  // to plausible-looking values.
  EXPECT_FALSE(request_from_json(
                   R"({"solver": "gap_dp",
                       "instance": {"processors": 4294967297,
                                    "jobs": [[[0, 4]]]}})",
                   &solver, &error)
                   .has_value());
  EXPECT_FALSE(request_from_json(
                   R"({"solver": "powermin_approx",
                       "params": {"swap_size": 4294967298},
                       "instance": {"jobs": [[[0, 4]]]}})",
                   &solver, &error)
                   .has_value());

  EXPECT_FALSE(result_from_json("{", &error).has_value());
  EXPECT_FALSE(
      result_from_json(R"({"ok": true, "schedule": {"jobs": 1,
                           "slots": [{"job": 5, "time": 0,
                                      "processor": -1}]}})",
                       &error)
          .has_value());  // slot out of range

  // Wrong-typed sub-objects are diagnostics, not silently default stats or
  // an empty schedule; the diagnostic names the key.
  EXPECT_FALSE(result_from_json(R"({"ok": true, "stats": 5})", &error)
                   .has_value());
  EXPECT_NE(error.find("stats"), std::string::npos) << error;
  EXPECT_FALSE(result_from_json(R"({"ok": true, "schedule": "x"})", &error)
                   .has_value());
  EXPECT_NE(error.find("schedule"), std::string::npos) << error;
}

TEST(JsonCodec, DuplicateKeysAreRejected) {
  // A duplicated key is ambiguous (first-wins vs last-wins depends on the
  // reader), so the codec refuses the document with a diagnostic naming
  // the key — at the top level, inside params, and inside nested objects.
  std::string solver, error;
  EXPECT_FALSE(request_from_json(
                   R"({"solver": "gap_dp", "solver": "power_dp",
                       "instance": {"jobs": [[[0, 4]]]}})",
                   &solver, &error)
                   .has_value());
  EXPECT_NE(error.find("duplicate object key"), std::string::npos) << error;
  EXPECT_NE(error.find("solver"), std::string::npos) << error;

  EXPECT_FALSE(request_from_json(
                   R"({"solver": "power_dp",
                       "params": {"alpha": 1, "alpha": 9},
                       "instance": {"jobs": [[[0, 4]]]}})",
                   &solver, &error)
                   .has_value());
  EXPECT_NE(error.find("duplicate object key 'alpha'"), std::string::npos)
      << error;

  EXPECT_FALSE(
      result_from_json(R"({"ok": true, "cost": 1, "cost": 2})", &error)
          .has_value());
  EXPECT_NE(error.find("duplicate object key 'cost'"), std::string::npos)
      << error;

  // Identical keys in DIFFERENT objects are fine (two slots both have
  // "job" fields).
  const auto ok = result_from_json(
      R"({"ok": true, "schedule": {"jobs": 2, "slots": [
            {"job": 0, "time": 1, "processor": -1},
            {"job": 1, "time": 2, "processor": -1}]}})",
      &error);
  EXPECT_TRUE(ok.has_value()) << error;
}

TEST(JsonCodec, EveryTruncationOfAValidDocumentIsACleanError) {
  // Truncated wire input at every byte boundary: never a crash, never a
  // silent success, always a diagnostic.
  SolveRequest request;
  request.instance = Instance::one_interval({{0, 5}, {2, 3}});
  request.params.alpha = 2.5;
  const std::string full = request_to_json("power_dp", request);
  std::string solver, error;
  for (std::size_t len = 0; len < full.size(); ++len) {
    error.clear();
    const auto parsed =
        request_from_json(full.substr(0, len), &solver, &error);
    EXPECT_FALSE(parsed.has_value()) << "prefix length " << len;
    EXPECT_FALSE(error.empty()) << "prefix length " << len;
  }
  EXPECT_TRUE(request_from_json(full, &solver, &error).has_value()) << error;
}

TEST(JsonCodec, NumericOverflowIsACleanErrorNotATruncation) {
  std::string error;
  // An integer field fed a value past int64 must be a parse error (the
  // strtoll overflow path), not a wrapped or clamped plausible value.
  EXPECT_FALSE(
      result_from_json(
          R"({"ok": true, "transitions": 123456789012345678901234567890})",
          &error)
          .has_value());
  EXPECT_FALSE(error.empty());
  // Same for a stats counter.
  EXPECT_FALSE(result_from_json(
                   R"({"ok": true,
                       "stats": {"states": 99999999999999999999999999}})",
                   &error)
                   .has_value());
  // A double field with an overflowing exponent parses to infinity rather
  // than crashing; the request stays well-formed and downstream range
  // checks own the verdict.
  std::string solver;
  const auto inf_alpha = request_from_json(
      R"({"solver": "power_dp", "params": {"alpha": 1e99999},
          "instance": {"jobs": [[[0, 4]]]}})",
      &solver, &error);
  ASSERT_TRUE(inf_alpha.has_value()) << error;
  EXPECT_TRUE(std::isinf(inf_alpha->params.alpha));
}

// The number reader takes integral tokens through an integer fast path and
// everything else through strtod; these pin what each field kind reads, so
// neither path can drift from the other. A literal is read through the
// result codec's double field ("cost") and its int64 field ("transitions");
// nullopt where the document is rejected.
std::optional<double> read_double(const std::string& literal) {
  std::string error;
  const auto r =
      result_from_json(R"({"ok": true, "cost": )" + literal + "}", &error);
  if (!r.has_value()) return std::nullopt;
  return r->cost;
}

std::optional<std::int64_t> read_int(const std::string& literal) {
  std::string error;
  const auto r = result_from_json(
      R"({"ok": true, "transitions": )" + literal + "}", &error);
  if (!r.has_value()) return std::nullopt;
  return r->transitions;
}

TEST(JsonCodec, NegativeZeroKeepsItsSignAsADoubleAndIsZeroAsAnInt) {
  const auto neg = read_double("-0");
  ASSERT_TRUE(neg.has_value());
  EXPECT_EQ(*neg, 0.0);
  EXPECT_TRUE(std::signbit(*neg));
  const auto pos = read_double("0");
  ASSERT_TRUE(pos.has_value());
  EXPECT_FALSE(std::signbit(*pos));
  EXPECT_EQ(read_int("-0"), std::optional<std::int64_t>(0));
}

TEST(JsonCodec, IntegersAtTheDoubleAndInt64EdgesReadExactly) {
  // 2^53 + 1: exact as an int; as a double, strtod's nearest value.
  EXPECT_EQ(read_int("9007199254740993"),
            std::optional<std::int64_t>(9007199254740993));
  EXPECT_EQ(read_double("9007199254740993"),
            std::optional<double>(std::strtod("9007199254740993", nullptr)));
  EXPECT_EQ(read_double("-9007199254740993"),
            std::optional<double>(-9007199254740992.0));

  constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
  constexpr std::int64_t kMin = std::numeric_limits<std::int64_t>::min();
  EXPECT_EQ(read_int("9223372036854775807"), std::optional<std::int64_t>(kMax));
  EXPECT_EQ(read_int("-9223372036854775808"),
            std::optional<std::int64_t>(kMin));
  EXPECT_EQ(read_double("9223372036854775807"),
            std::optional<double>(9223372036854775808.0));

  // One past either end is not an integer (a rejected int field) but
  // still a number.
  EXPECT_EQ(read_int("9223372036854775808"), std::nullopt);
  EXPECT_EQ(read_int("-9223372036854775809"), std::nullopt);
  EXPECT_EQ(read_double("9223372036854775808"),
            std::optional<double>(9223372036854775808.0));
}

TEST(JsonCodec, NumberTokensAreAcceptedAndRejectedAsBefore) {
  // Accepted leniently as doubles, but not integers.
  EXPECT_EQ(read_double("+5"), std::optional<double>(5.0));
  EXPECT_EQ(read_int("+5"), std::nullopt);
  EXPECT_EQ(read_double("1e3"), std::optional<double>(1000.0));
  EXPECT_EQ(read_int("1e3"), std::nullopt);
  EXPECT_EQ(read_double(".5"), std::optional<double>(0.5));
  EXPECT_EQ(read_int("2.0"), std::nullopt);
  // Leading zeros read as the integer they spell.
  EXPECT_EQ(read_double("01"), std::optional<double>(1.0));
  EXPECT_EQ(read_int("01"), std::optional<std::int64_t>(1));
  EXPECT_EQ(read_int("-007"), std::optional<std::int64_t>(-7));
  // Malformed tokens are rejected by both field kinds.
  for (const char* bad : {"-", "--1", "1-", "1e", "1.2.3", "-+1"}) {
    EXPECT_EQ(read_double(bad), std::nullopt) << bad;
    EXPECT_EQ(read_int(bad), std::nullopt) << bad;
  }
}

TEST(JsonCodec, StringEscapesSurvive) {
  SolveResult r = SolveResult::rejected("line\none\t\"quoted\" \\ back");
  std::string error;
  const auto parsed = result_from_json(result_to_json(r), &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  EXPECT_EQ(parsed->error, "line\none\t\"quoted\" \\ back");
}

TEST(JsonCodec, AppendDoubleWritesTheShortestRoundTripForm) {
  const auto spell = [](double value) {
    std::string out;
    append_double(out, value);
    return out;
  };
  EXPECT_EQ(spell(0.0), "0");
  EXPECT_EQ(spell(-0.0), "-0");
  EXPECT_EQ(spell(0.1), "0.1");
  EXPECT_EQ(spell(1e-7), "1e-07");
  EXPECT_EQ(spell(1e21), "1e+21");
  EXPECT_EQ(spell(123456789.125), "123456789.125");
  EXPECT_EQ(spell(std::nan("")), "null");
}

// A result document exactly as the earlier pretty-printing writer emitted
// it (and as store files written by it still hold): every stats field, all
// seven stages, and schedule slots. It still carries the retired
// memo_parallel_solves counter, which readers skip.
constexpr const char* kPrettyResult = R"({
  "gapsched": "result",
  "ok": true,
  "error": "",
  "feasible": true,
  "cost": 7.5,
  "transitions": 3,
  "timed_out": true,
  "audited": true,
  "audit_error": "cost \"off\"\tby one",
  "stats": {
    "wall_ms": 12.25,
    "states": 101,
    "nodes": 102,
    "scheduled": 2,
    "components": 104,
    "cache_hit": true,
    "component_cache_hits": 105,
    "components_deduped": 106,
    "dead_time_removed": -107,
    "memo_arena_solves": 108,
    "memo_hash_solves": 109,
    "memo_parallel_solves": 110,
    "memo_find_calls": 111,
    "memo_probe_steps": 112,
    "memo_pruned": 113,
    "stages": {
      "canonicalize": { "ran": true, "ms": 0.5 },
      "decompose": { "ran": false, "ms": 1 },
      "compress": { "ran": true, "ms": 1.5 },
      "cache_lookup": { "ran": false, "ms": 2 },
      "dispatch": { "ran": true, "ms": 2.5 },
      "recombine": { "ran": false, "ms": 3 },
      "audit": { "ran": true, "ms": 3.5 }
    }
  },
  "schedule": {
    "jobs": 3,
    "slots": [
      { "job": 0, "time": 4, "processor": 1 },
      { "job": 2, "time": -9, "processor": -1 }
    ]
  }
})";

TEST(JsonCodec, PrettyPrintedResultsFromEarlierWritersStillLoad) {
  SolveResult r;
  r.ok = true;
  r.feasible = true;
  r.cost = 7.5;
  r.transitions = 3;
  r.timed_out = true;
  r.audited = true;
  r.audit_error = "cost \"off\"\tby one";
  r.stats.wall_ms = 12.25;
  r.stats.states = 101;
  r.stats.nodes = 102;
  r.stats.scheduled = 2;
  r.stats.components = 104;
  r.stats.cache_hit = true;
  r.stats.component_cache_hits = 105;
  r.stats.components_deduped = 106;
  r.stats.dead_time_removed = -107;
  r.stats.memo_arena_solves = 108;
  r.stats.memo_hash_solves = 109;
  r.stats.memo_find_calls = 111;
  r.stats.memo_probe_steps = 112;
  r.stats.memo_pruned = 113;
  for (std::size_t i = 0; i < engine::kPipelineStageCount; ++i) {
    r.stats.stages[i].ran = (i % 2) == 0;
    r.stats.stages[i].ms = 0.5 * static_cast<double>(i + 1);
  }
  r.schedule = Schedule(3);
  r.schedule.place(0, 4, 1);
  r.schedule.place(2, -9);

  const std::string one_line = result_to_json(r);
  EXPECT_EQ(one_line.find('\n'), std::string::npos);
  EXPECT_LT(one_line.size(), std::string(kPrettyResult).size());

  std::string error;
  const auto from_pretty = result_from_json(kPrettyResult, &error);
  ASSERT_TRUE(from_pretty.has_value()) << error;
  const auto from_one_line = result_from_json(one_line, &error);
  ASSERT_TRUE(from_one_line.has_value()) << error;
  // Equal values: the writer covers every field, so equal re-serialized
  // text means equal results; spot checks guard against a field both
  // sides drop.
  EXPECT_EQ(result_to_json(*from_pretty), result_to_json(*from_one_line));
  EXPECT_EQ(result_to_json(*from_pretty), one_line);
  EXPECT_EQ(from_pretty->audit_error, r.audit_error);
  EXPECT_TRUE(from_pretty->timed_out);
  EXPECT_EQ(from_pretty->stats.dead_time_removed, -107);
  EXPECT_EQ(from_pretty->stats.memo_pruned, 113u);
  EXPECT_DOUBLE_EQ(from_pretty->stats.stages[6].ms, 3.5);
  EXPECT_TRUE(from_pretty->stats.stages[6].ran);
  EXPECT_EQ(from_pretty->schedule, r.schedule);
  EXPECT_EQ(from_one_line->schedule, r.schedule);
}

// Frames are checked by ServeProtocol.FramesAreSingleLines.
TEST(JsonCodec, EveryDocumentIsOneLine) {
  engine::Engine eng;
  SolveRequest request;
  request.instance = Instance::one_interval({{0, 3}, {1, 4}, {10, 12}});
  const SolveResult solved = eng.solve("gap_dp", request);
  ASSERT_TRUE(solved.ok) << solved.error;
  engine::pipeline::PipelineStats solved_stats;
  solved_stats.absorb(solved);
  ServerStatsWire stats;
  stats.shards.resize(2);
  stats.shards[1].shard = 1;

  const std::string texts[] = {
      request_to_json("gap_dp", request),
      result_to_json(solved),
      result_to_json(SolveResult::rejected("two\nlines")),
      cache_stats_to_json(eng.cache_stats()),
      pipeline_stats_to_json(solved_stats),
      server_stats_to_json(stats),
  };
  for (const std::string& text : texts) {
    EXPECT_EQ(text.find('\n'), std::string::npos) << text;
  }
}

TEST(JsonCodec, CacheStatsRoundTrip) {
  engine::CacheStats stats;
  stats.hits = 101;
  stats.misses = 17;
  stats.insertions = 15;
  stats.evictions = 2;
  stats.entries = 13;
  stats.capacity = 64;
  stats.disk_hits = 9;
  stats.disk_rejects = 4;
  stats.spilled = 21;
  stats.disk_entries = 19;
  std::string error;
  const auto parsed = cache_stats_from_json(cache_stats_to_json(stats), &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  EXPECT_EQ(parsed->hits, 101u);
  EXPECT_EQ(parsed->misses, 17u);
  EXPECT_EQ(parsed->insertions, 15u);
  EXPECT_EQ(parsed->evictions, 2u);
  EXPECT_EQ(parsed->entries, 13u);
  EXPECT_EQ(parsed->capacity, 64u);
  EXPECT_EQ(parsed->disk_hits, 9u);
  EXPECT_EQ(parsed->disk_rejects, 4u);
  EXPECT_EQ(parsed->spilled, 21u);
  EXPECT_EQ(parsed->disk_entries, 19u);
}

TEST(JsonCodec, CacheStatsToleratesMissingFields) {
  // Forward compatibility: a stats document from an older writer (or a
  // trimmed stats frame) parses with the absent tallies at zero.
  std::string error;
  const auto parsed =
      cache_stats_from_json(R"({"gapsched": "cache_stats", "hits": 3})",
                            &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  EXPECT_EQ(parsed->hits, 3u);
  EXPECT_EQ(parsed->misses, 0u);
  EXPECT_EQ(parsed->capacity, 0u);
  // A mistyped tally is still an error, not a silent zero.
  EXPECT_FALSE(
      cache_stats_from_json(R"({"hits": "three"})", &error).has_value());
  EXPECT_FALSE(error.empty());
}

TEST(JsonCodec, PipelineStatsRoundTripPerStage) {
  engine::pipeline::PipelineStats stats;
  stats.requests = 42;
  stats.rejected = 3;
  stats.feasible = 30;
  stats.timed_out = 4;
  stats.audited = 20;
  stats.refuted = 1;
  stats.cache_hits = 11;
  stats.component_cache_hits = 17;
  for (std::size_t i = 0; i < engine::kPipelineStageCount; ++i) {
    stats.stages[i].runs = 10 * i + 1;
    stats.stages[i].skips = i;
    stats.stages[i].total_ms = 0.25 * static_cast<double>(i);
  }
  std::string error;
  const auto parsed =
      pipeline_stats_from_json(pipeline_stats_to_json(stats), &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  EXPECT_EQ(parsed->requests, 42u);
  EXPECT_EQ(parsed->rejected, 3u);
  EXPECT_EQ(parsed->feasible, 30u);
  EXPECT_EQ(parsed->timed_out, 4u);
  EXPECT_EQ(parsed->audited, 20u);
  EXPECT_EQ(parsed->refuted, 1u);
  EXPECT_EQ(parsed->cache_hits, 11u);
  EXPECT_EQ(parsed->component_cache_hits, 17u);
  for (std::size_t i = 0; i < engine::kPipelineStageCount; ++i) {
    EXPECT_EQ(parsed->stages[i].runs, stats.stages[i].runs) << i;
    EXPECT_EQ(parsed->stages[i].skips, stats.stages[i].skips) << i;
    EXPECT_DOUBLE_EQ(parsed->stages[i].total_ms, stats.stages[i].total_ms)
        << i;
  }
}

TEST(JsonCodec, PipelineStatsToleratesMissingStagesAndRejectsUnknownOnes) {
  std::string error;
  const auto bare = pipeline_stats_from_json(R"({"requests": 7})", &error);
  ASSERT_TRUE(bare.has_value()) << error;
  EXPECT_EQ(bare->requests, 7u);
  for (std::size_t i = 0; i < engine::kPipelineStageCount; ++i) {
    EXPECT_EQ(bare->stages[i].runs, 0u);
  }
  // A subset of stages is fine (missing ones stay zero)…
  const auto partial = pipeline_stats_from_json(
      R"({"requests": 7,
          "stages": {"dispatch": {"runs": 5, "skips": 2, "total_ms": 1.5}}})",
      &error);
  ASSERT_TRUE(partial.has_value()) << error;
  EXPECT_EQ(
      partial->stages[static_cast<std::size_t>(
                          engine::PipelineStage::kDispatch)]
          .runs,
      5u);
  // …but a stage name the enum does not know is a hard error: it means a
  // writer/reader version skew the tallies cannot absorb silently.
  EXPECT_FALSE(pipeline_stats_from_json(
                   R"({"stages": {"warp_drive": {"runs": 1}}})", &error)
                   .has_value());
  EXPECT_FALSE(error.empty());
}

TEST(JsonCodec, ServerStatsRoundTripWithShards) {
  ServerStatsWire wire;
  wire.cache.hits = 9;
  wire.cache.misses = 4;
  wire.pipeline.requests = 13;
  for (std::int64_t s = 0; s < 3; ++s) {
    ShardStatsWire shard;
    shard.shard = s;
    shard.requests = 10 + static_cast<std::uint64_t>(s);
    shard.rejected = 1;
    shard.timed_out = 2;
    shard.refuted = 0;
    shard.cache_hits = 5;
    shard.component_cache_hits = 7;
    shard.stages[2].runs = 3 + static_cast<std::uint64_t>(s);
    wire.shards.push_back(shard);
  }
  std::string error;
  const auto parsed = server_stats_from_json(server_stats_to_json(wire),
                                             &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  EXPECT_EQ(parsed->cache.hits, 9u);
  EXPECT_EQ(parsed->pipeline.requests, 13u);
  ASSERT_EQ(parsed->shards.size(), 3u);
  for (std::size_t s = 0; s < 3; ++s) {
    EXPECT_EQ(parsed->shards[s].shard, static_cast<std::int64_t>(s));
    EXPECT_EQ(parsed->shards[s].requests, 10 + s);
    EXPECT_EQ(parsed->shards[s].timed_out, 2u);
    EXPECT_EQ(parsed->shards[s].component_cache_hits, 7u);
    EXPECT_EQ(parsed->shards[s].stages[2].runs, 3 + s);
  }
}

// A stats frame exactly as the writer before the one roll-up emitted it:
// each shard entry carried six counters and a nested "pipeline" object.
// Stats frames are never persisted, but a client and a server of
// neighbouring versions must still read each other's.
constexpr const char* kNestedShardStatsFrame =
    R"({"frame":"stats","gapsched": "server_stats","cache": {"hits": 3,)"
    R"("misses": 3,"insertions": 3,"evictions": 0,"entries": 3,)"
    R"("capacity": 65536,"disk_hits": 0,"disk_rejects": 0,"spilled": 0,)"
    R"("disk_entries": 0},"pipeline": {"requests": 2,"stages": {)"
    R"("canonicalize": {"runs": 2,"skips": 0,"total_ms": 0.052508},)"
    R"("decompose": {"runs": 2,"skips": 0,"total_ms": 0.024510999999999998},)"
    R"("compress": {"runs": 2,"skips": 0,"total_ms": 0.013302999999999999},)"
    R"("cache_lookup": {"runs": 2,"skips": 0,)"
    R"("total_ms": 0.033306999999999996},)"
    R"("dispatch": {"runs": 1,"skips": 1,"total_ms": 0.040107000000000004},)"
    R"("recombine": {"runs": 2,"skips": 0,"total_ms": 0.007503},)"
    R"("audit": {"runs": 2,"skips": 0,"total_ms": 0.013198}}},)"
    R"("shards": [{"shard": 0,"requests": 0,"rejected": 0,"timed_out": 0,)"
    R"("refuted": 0,"cache_hits": 0,"component_cache_hits": 0,)"
    R"("pipeline": {"requests": 0,"stages": {)"
    R"("canonicalize": {"runs": 0,"skips": 0,"total_ms": 0},)"
    R"("decompose": {"runs": 0,"skips": 0,"total_ms": 0},)"
    R"("compress": {"runs": 0,"skips": 0,"total_ms": 0},)"
    R"("cache_lookup": {"runs": 0,"skips": 0,"total_ms": 0},)"
    R"("dispatch": {"runs": 0,"skips": 0,"total_ms": 0},)"
    R"("recombine": {"runs": 0,"skips": 0,"total_ms": 0},)"
    R"("audit": {"runs": 0,"skips": 0,"total_ms": 0}}}},)"
    R"({"shard": 1,"requests": 2,"rejected": 0,"timed_out": 0,"refuted": 0,)"
    R"("cache_hits": 1,"component_cache_hits": 3,)"
    R"("pipeline": {"requests": 2,"stages": {)"
    R"("canonicalize": {"runs": 2,"skips": 0,"total_ms": 0.052508},)"
    R"("decompose": {"runs": 2,"skips": 0,"total_ms": 0.024510999999999998},)"
    R"("compress": {"runs": 2,"skips": 0,"total_ms": 0.013302999999999999},)"
    R"("cache_lookup": {"runs": 2,"skips": 0,)"
    R"("total_ms": 0.033306999999999996},)"
    R"("dispatch": {"runs": 1,"skips": 1,"total_ms": 0.040107000000000004},)"
    R"("recombine": {"runs": 2,"skips": 0,"total_ms": 0.007503},)"
    R"("audit": {"runs": 2,"skips": 0,"total_ms": 0.013198}}}}]})";

TEST(JsonCodec, ServerStatsReadsAFrameWithNestedShardPipelines) {
  std::string error;
  const auto parsed = server_stats_from_json(kNestedShardStatsFrame, &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  EXPECT_EQ(parsed->cache.hits, 3u);
  EXPECT_EQ(parsed->cache.misses, 3u);
  EXPECT_EQ(parsed->cache.entries, 3u);
  EXPECT_EQ(parsed->cache.capacity, 65536u);
  EXPECT_EQ(parsed->pipeline.requests, 2u);
  const auto dispatch =
      static_cast<std::size_t>(engine::PipelineStage::kDispatch);
  EXPECT_EQ(parsed->pipeline.stages[dispatch].skips, 1u);
  ASSERT_EQ(parsed->shards.size(), 2u);
  EXPECT_EQ(parsed->shards[0].shard, 0);
  EXPECT_EQ(parsed->shards[0].requests, 0u);
  EXPECT_EQ(parsed->shards[1].shard, 1);
  EXPECT_EQ(parsed->shards[1].requests, 2u);
  EXPECT_EQ(parsed->shards[1].cache_hits, 1u);
  EXPECT_EQ(parsed->shards[1].component_cache_hits, 3u);
  // The nested object is skipped like any unknown member: the entry's own
  // stage rows stay empty rather than misread.
  EXPECT_EQ(parsed->shards[1].stages[dispatch].runs, 0u);
}

TEST(JsonCodec, FrameHeadParsesHeaderFieldsAndIgnoresTheBody) {
  std::string error;
  const auto head = frame_head_from_json(
      R"({"frame": "request", "id": 12, "deadline_ms": 250.5,
          "solver": "gap_dp", "instance": {"jobs": [[[0, 4]]]}})",
      &error);
  ASSERT_TRUE(head.has_value()) << error;
  EXPECT_EQ(head->frame, "request");
  EXPECT_EQ(head->id, 12);
  EXPECT_DOUBLE_EQ(head->deadline_ms, 250.5);
  // Defaults when absent: id -1, no deadline, empty message.
  const auto bare = frame_head_from_json(R"({"frame": "drain"})", &error);
  ASSERT_TRUE(bare.has_value()) << error;
  EXPECT_EQ(bare->id, -1);
  EXPECT_DOUBLE_EQ(bare->deadline_ms, 0.0);
  EXPECT_TRUE(bare->message.empty());
  // No "frame" discriminator → not a frame.
  EXPECT_FALSE(frame_head_from_json(R"({"id": 3})", &error).has_value());
  EXPECT_FALSE(error.empty());
  // A negative deadline is malformed, not a free pass.
  EXPECT_FALSE(frame_head_from_json(
                   R"({"frame": "request", "deadline_ms": -5})", &error)
                   .has_value());
  // So is one past kMaxDeadlineMs: the server could not turn it into a
  // clock duration.
  const auto longest = frame_head_from_json(
      R"({"frame": "request", "deadline_ms": 1e9})", &error);
  ASSERT_TRUE(longest.has_value()) << error;
  EXPECT_DOUBLE_EQ(longest->deadline_ms, kMaxDeadlineMs);
  for (const char* hostile : {R"({"frame": "request", "deadline_ms": 1e13})",
                              R"({"frame": "request", "deadline_ms": 1e300})"}) {
    error.clear();
    EXPECT_FALSE(frame_head_from_json(hostile, &error).has_value()) << hostile;
    EXPECT_NE(error.find("malformed 'deadline_ms' field"), std::string::npos)
        << error;
  }
}

// The same result as kPrettyResult, exactly as the one-line writer before
// slot triples emitted it: slots are {"job","time","processor"} objects.
constexpr const char* kObjectSlotResult =
    R"({"gapsched": "result","ok": true,"error": "","feasible": true)"
    R"(,"cost": 7.5,"transitions": 3,"timed_out": true,"audited": true)"
    R"(,"audit_error": "cost \"off\"\tby one","stats": {"wall_ms": 12.25)"
    R"(,"states": 101,"nodes": 102,"scheduled": 2,"components": 104)"
    R"(,"cache_hit": true,"component_cache_hits": 105)"
    R"(,"components_deduped": 106,"dead_time_removed": -107)"
    R"(,"memo_arena_solves": 108,"memo_hash_solves": 109)"
    R"(,"memo_parallel_solves": 110,"memo_find_calls": 111)"
    R"(,"memo_probe_steps": 112,"memo_pruned": 113)"
    R"(,"stages": {"canonicalize": {"ran": true,"ms": 0.5})"
    R"(,"decompose": {"ran": false,"ms": 1},"compress": {"ran": true)"
    R"(,"ms": 1.5},"cache_lookup": {"ran": false,"ms": 2})"
    R"(,"dispatch": {"ran": true,"ms": 2.5},"recombine": {"ran": false)"
    R"(,"ms": 3},"audit": {"ran": true,"ms": 3.5}}},"schedule": {"jobs": 3)"
    R"(,"slots": [{"job": 0,"time": 4,"processor": 1},{"job": 2,"time": -9)"
    R"(,"processor": -1}]}})";

TEST(JsonCodec, ResultsWithObjectSlotsStillLoadAndNowWriteTriples) {
  std::string error;
  const auto pretty = result_from_json(kPrettyResult, &error);
  ASSERT_TRUE(pretty.has_value()) << error;
  const auto one_line = result_from_json(kObjectSlotResult, &error);
  ASSERT_TRUE(one_line.has_value()) << error;

  const std::string written = result_to_json(*one_line);
  const std::string triples =
      R"("schedule": {"jobs": 3,"slots": [[0,4,1],[2,-9,-1]]})";
  EXPECT_NE(written.find(triples), std::string::npos) << written;
  EXPECT_LT(written.size(), std::string(kObjectSlotResult).size());
  const auto reread = result_from_json(written, &error);
  ASSERT_TRUE(reread.has_value()) << error;
  // The writer covers every field, so equal text means equal values.
  EXPECT_EQ(result_to_json(*pretty), written);
  EXPECT_EQ(result_to_json(*reread), written);
  EXPECT_EQ(reread->schedule, one_line->schedule);
  EXPECT_EQ(reread->schedule, pretty->schedule);
  EXPECT_EQ(reread->schedule.at(2)->time, -9);
  EXPECT_EQ(reread->schedule.at(0)->processor, 1);
  EXPECT_FALSE(reread->schedule.is_scheduled(1));
}

TEST(JsonCodec, SlotFormsMixAndMalformedTriplesAreRejected) {
  std::string error;
  const auto mixed = result_from_json(
      R"({"ok": true, "schedule": {"jobs": 3, "slots": [
            [0, 4, 1], {"processor": -1, "time": -9, "job": 2}]}})",
      &error);
  ASSERT_TRUE(mixed.has_value()) << error;
  EXPECT_EQ(mixed->schedule.at(0), (Placement{4, 1}));
  EXPECT_EQ(mixed->schedule.at(2), (Placement{-9, Placement::kUnassigned}));

  for (const char* slot : {"[0, 4]", "[0, 4, 1, 2]", R"([0, "4", 1])",
                           "[-1, 4, 1]", "[3, 0, -1]", "[0, 1.5, -1]",
                           "[0, 4, 4294967296]", "7", "[]"}) {
    const std::string doc =
        std::string(R"({"ok": true, "schedule": {"jobs": 3, "slots": [)") +
        slot + "]}}";
    EXPECT_FALSE(result_from_json(doc, &error).has_value()) << slot;
    EXPECT_NE(error.find("malformed schedule slot"), std::string::npos)
        << slot << ": " << error;
  }
}

TEST(JsonCodec, DeclaredJobCountsAboveKMaxJobsAreRejectedAtOnce) {
  // A declared count sizes the schedule before any slot is read; past
  // kMaxJobs it is a diagnostic, not std::bad_alloc or a long stall. Best
  // of three runs, so a preempted run does not fail the bound.
  for (const char* doc : {R"({"schedule": {"jobs": 1000000000000000}})",
                          R"({"schedule": {"jobs": 30000000}})"}) {
    std::string error;
    auto best = std::chrono::steady_clock::duration::max();
    for (int run = 0; run < 3; ++run) {
      const auto start = std::chrono::steady_clock::now();
      EXPECT_FALSE(result_from_json(doc, &error).has_value()) << doc;
      best = std::min(best, std::chrono::steady_clock::now() - start);
    }
    EXPECT_NE(error.find("'jobs' count"), std::string::npos) << error;
    EXPECT_LT(best, std::chrono::milliseconds(1)) << doc;
  }
  std::string error;
  const auto at_limit = result_from_json(
      R"({"schedule": {"jobs": )" + std::to_string(kMaxJobs) + "}}", &error);
  ASSERT_TRUE(at_limit.has_value()) << error;
  EXPECT_EQ(at_limit->schedule.size(), kMaxJobs);
}

TEST(JsonCodec, JobTimesOutsideKMaxTimeAreRejected) {
  // Past 2^61 the solvers' sums of time differences and margins could
  // overflow int64, so the reader refuses such a job with a diagnostic.
  const auto request = [](const std::string& jobs, std::string* error) {
    std::string solver;
    return request_from_json(
        R"({"solver": "gap_dp", "instance": {"jobs": )" + jobs + "}}",
        &solver, error);
  };
  const std::string max = std::to_string(kMaxTime);
  const std::string past = std::to_string(kMaxTime + 1);
  for (const std::string& jobs : std::vector<std::string>{
           "[[[0, 3]], [[9223372036854775800, 9223372036854775806]]]",
           "[[[-9223372036854775807, 0]]]", "[[[0, " + past + "]]]",
           "[[[0, 1], [5, 6], [-" + past + ", 9]]]"}) {
    std::string error;
    EXPECT_FALSE(request(jobs, &error).has_value()) << jobs;
    EXPECT_EQ(error, kTimeRangeError) << jobs;
  }
  std::string error;
  const auto edge =
      request("[[[-" + max + ", -" + max + "]], [[0, 2], [4, " + max + "]]]",
              &error);
  ASSERT_TRUE(edge.has_value()) << error;
  EXPECT_EQ(edge->instance.jobs[0].allowed,
            TimeSet::window(-kMaxTime, -kMaxTime));
  EXPECT_EQ(edge->instance.jobs[1].allowed, TimeSet({{0, 2}, {4, kMaxTime}}));
}

// ---------------------------------------------------- reader edge cases --

TEST(JsonCodec, MembersMayComeInAnyOrder) {
  std::string solver, error;
  const auto request = request_from_json(
      R"({"instance": {"jobs": [[[2, 6]]], "processors": 2},
          "params": {"compress": false, "alpha": 3}, "objective": "power",
          "solver": "power_dp", "gapsched": "request"})",
      &solver, &error);
  ASSERT_TRUE(request.has_value()) << error;
  EXPECT_EQ(solver, "power_dp");
  EXPECT_EQ(request->objective, Objective::kPower);
  EXPECT_DOUBLE_EQ(request->params.alpha, 3.0);
  EXPECT_FALSE(request->params.compress);
  EXPECT_EQ(request->instance.processors, 2);
  ASSERT_EQ(request->instance.n(), 1u);

  // Slots listed before the job count they are checked against.
  const auto result = result_from_json(
      R"({"schedule": {"slots": [[1, 8, -1]], "jobs": 2}, "ok": true})",
      &error);
  ASSERT_TRUE(result.has_value()) << error;
  EXPECT_EQ(result->schedule.size(), 2u);
  EXPECT_EQ(result->schedule.at(1), (Placement{8, Placement::kUnassigned}));
  EXPECT_FALSE(result_from_json(
                   R"({"schedule": {"slots": [[2, 8, -1]], "jobs": 2}})",
                   &error)
                   .has_value());
  EXPECT_NE(error.find("malformed schedule slot"), std::string::npos) << error;
  EXPECT_FALSE(
      result_from_json(R"({"schedule": {"slots": [[0, 8, -1]]}})", &error)
          .has_value());  // no job count: every slot is out of range
}

TEST(JsonCodec, KeysAreComparedAfterDecoding) {
  std::string error;
  EXPECT_FALSE(
      result_from_json(R"({"ok": true, "cost": 1, "\u0063ost": 2})", &error)
          .has_value());
  EXPECT_NE(error.find("duplicate object key 'cost'"), std::string::npos)
      << error;
  EXPECT_FALSE(result_from_json(R"({"junk": 1, "ok": true, "j\u0075nk": 2})",
                                &error)
                   .has_value());
  EXPECT_NE(error.find("duplicate object key 'junk'"), std::string::npos)
      << error;
  // An escaped key reads as the member it spells.
  const auto r = result_from_json(R"({"c\u006fst": 4.5})", &error);
  ASSERT_TRUE(r.has_value()) << error;
  EXPECT_DOUBLE_EQ(r->cost, 4.5);
}

TEST(JsonCodec, IgnoredMembersAreStillFullyValidated) {
  std::string error;
  // A duplicate key inside an unknown member is rejected like any other.
  EXPECT_FALSE(result_from_json(
                   R"({"ok": true, "junk": {"x": [1, {"a": 1, "a": 2}]}})",
                   &error)
                   .has_value());
  EXPECT_NE(error.find("duplicate object key 'a'"), std::string::npos)
      << error;
  // So is bad syntax.
  EXPECT_FALSE(
      result_from_json(R"({"ok": true, "junk": [1, tru]})", &error)
          .has_value());
  EXPECT_NE(error.find("bad literal"), std::string::npos) << error;
  // Objects nested in an unknown member up to 64 levels in total read
  // fine (the root plus 63); one level more is too deep.
  const auto nested = [](int levels) {
    std::string doc = R"({"ok": true, "junk": )";
    for (int i = 0; i < levels; ++i) doc += R"({"x": )";
    doc += "{}";
    for (int i = 0; i < levels; ++i) doc += '}';
    return doc + '}';
  };
  EXPECT_TRUE(result_from_json(nested(kMaxParseDepth - 2), &error).has_value())
      << error;
  EXPECT_FALSE(
      result_from_json(nested(kMaxParseDepth - 1), &error).has_value());
  EXPECT_NE(error.find("nested too deeply"), std::string::npos) << error;
}

TEST(JsonCodec, SyntaxErrorsWinOverEarlierTypeErrors) {
  std::string error;
  // A wrong-typed field, then a truncation: the truncation is reported.
  EXPECT_FALSE(result_from_json(R"({"ok": 5, "cost": 1)", &error).has_value());
  EXPECT_EQ(error.find("'ok'"), std::string::npos) << error;
  EXPECT_NE(error.find("(at byte"), std::string::npos) << error;
  // Without the truncation, the type error is.
  EXPECT_FALSE(result_from_json(R"({"ok": 5, "cost": 1})", &error).has_value());
  EXPECT_NE(error.find("malformed 'ok' field"), std::string::npos) << error;
  // The first type error wins over later ones.
  EXPECT_FALSE(
      result_from_json(R"({"cost": "x", "ok": 5})", &error).has_value());
  EXPECT_NE(error.find("malformed 'cost' field"), std::string::npos) << error;
}

TEST(JsonCodec, FrameHeadOfAFullRequestFrame) {
  SolveRequest request;
  request.objective = Objective::kPower;
  request.params.alpha = 2.5;
  request.instance = Instance::one_interval({{0, 5}, {2, 3}, {9, 14}});
  std::string body = request_to_json("power_dp", request);
  const std::string frame =
      R"({"frame": "request","id": 77,"deadline_ms": 12.5,)" + body.substr(1);
  std::string error;
  const auto head = frame_head_from_json(frame, &error);
  ASSERT_TRUE(head.has_value()) << error;
  EXPECT_EQ(head->frame, "request");
  EXPECT_EQ(head->id, 77);
  EXPECT_DOUBLE_EQ(head->deadline_ms, 12.5);
  EXPECT_TRUE(head->message.empty());
  // The body is validated on the way past: a broken instance breaks the
  // head too.
  EXPECT_FALSE(
      frame_head_from_json(frame.substr(0, frame.size() - 2), &error)
          .has_value());
}

}  // namespace
}  // namespace gapsched::io
