#pragma once
// JSON request/response codec for the solver engine: the one wire
// representation shared by `solver_cli --json`, the server frames, the
// solve cache's store records, and the benches, so every consumer reads
// and writes the same documents.
//
// Every writer emits one line: members are '"key": value' joined by ','
// with no other whitespace (so `grep '"disk_hits": [1-9]'` works on any
// document). Request document:
//   {"gapsched": "request","solver": "power_dp","objective": "power",
//    "params": {"alpha": 2.5,"max_spans": 1,"powerdown_threshold": -1,
//               "swap_size": 2,"block_size": 2,"time_limit_s": 0,
//               "validate": false,"decompose": true,"compress": true},
//    "instance": {"processors": 1,"jobs": [[[0,5]],[[2,3],[8,9]]]}}
// (shown wrapped; each job is its list of inclusive [lo, hi] allowed
// intervals; omitted params keep their defaults).
//
// Response document:
//   {"gapsched": "result","ok": true,"error": "","feasible": true,
//    "cost": 2,"transitions": 2,"timed_out": false,"audited": false,
//    "audit_error": "",
//    "stats": {"wall_ms": ...,"states": ...,"nodes": ...,"scheduled": ...,
//              "components": ...,"cache_hit": false,
//              "component_cache_hits": 0,"components_deduped": 0,
//              "dead_time_removed": 0,"memo_arena_solves": 0,
//              "memo_hash_solves": 0,"memo_find_calls": 0,
//              "memo_probe_steps": 0,"memo_pruned": 0,
//              "stages": {"canonicalize": {"ran": false,"ms": 0}, ...
//                         one entry per pipeline stage, in order:
//                         canonicalize, decompose, compress,
//                         cache_lookup, dispatch, recombine, audit}},
//    "schedule": {"jobs": 5,"slots": [[0,10,-1]]}}
// (slots are [job,time,processor] for the scheduled jobs only; processor
// -1 means profile form; the stats object always reports all seven stages
// with their ran/skip verdict and per-request wall time — see
// engine::PipelineStage).
//
// The readers take any standard JSON document with these members in any
// order, so records from earlier writers (pretty-printed, or with
// {"job","time","processor"} slots) still load. One pull reader fills the
// structs straight from the text: unknown members are skipped but still
// validated, duplicate keys are rejected in every object, and a syntax
// error anywhere wins over a type error; malformed input returns nullopt
// with *error set. Non-finite doubles degrade to null on write.

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "gapsched/engine/cache.hpp"
#include "gapsched/engine/pipeline.hpp"
#include "gapsched/engine/types.hpp"

namespace gapsched::io {

/// Deepest accepted nesting of any document on the wire. The reader
/// recurses once per nested array or object of untrusted socket bytes
/// (serve/protocol.hpp), so depth is a resource limit: a document nested
/// deeper, ignored members included, is rejected as "nested too deeply"
/// before the stack is at risk. Engine documents nest 6 levels.
inline constexpr int kMaxParseDepth = 64;

/// Most jobs a document or text file (io/serialize.hpp) may declare or
/// list, since a count sizes an allocation before any job is read: 2^21,
/// the bcd DP's n < 2^21 bound, above what an 8 MiB frame can carry.
inline constexpr std::size_t kMaxJobs = std::size_t{1} << 21;

/// Largest accepted frame `deadline_ms`: 1e9 ms, about 11.6 days. The
/// server turns the deadline into a steady_clock duration, and a double
/// past that clock's int64 range converts with undefined behaviour.
inline constexpr double kMaxDeadlineMs = 1e9;

/// Appends `s` to `out` as a quoted JSON string literal, escaping quotes,
/// backslashes and every control character.
void append_escaped(std::string& out, std::string_view s);

/// Appends `value` in the shortest %g form that reads back to the same
/// double; NaN and infinities (which JSON cannot spell) become null.
void append_double(std::string& out, double value);

/// Serializes a named engine request.
std::string request_to_json(std::string_view solver,
                            const engine::SolveRequest& request);

/// Parses a request document; fills *solver with the "solver" field.
std::optional<engine::SolveRequest> request_from_json(
    std::string_view text, std::string* solver, std::string* error = nullptr);

/// Serializes an engine result.
std::string result_to_json(const engine::SolveResult& result);

/// Parses a result document.
std::optional<engine::SolveResult> result_from_json(
    std::string_view text, std::string* error = nullptr);

// ----------------------------------------------------- stats documents --
// One codec for the cache's tallies and the roll-up of finished results
// (engine::pipeline::PipelineStats): the server's `stats` frame,
// `solver_cli --cache-stats`, and the benches all read and write these
// documents instead of ad-hoc printing. Readers are tolerant to
// missing fields (they keep their defaults, like the result codec's
// `stages` object) but reject wrong types and unknown stage names.

/// Serializes SolveCache tallies:
///   {"gapsched": "cache_stats","hits": 0,"misses": 0,"insertions": 0,
///    "evictions": 0,"entries": 0,"capacity": 0,"disk_hits": 0,
///    "disk_rejects": 0,"spilled": 0,"disk_entries": 0}
std::string cache_stats_to_json(const engine::CacheStats& stats);
std::optional<engine::CacheStats> cache_stats_from_json(
    std::string_view text, std::string* error = nullptr);

/// Serializes the roll-up of a caller's finished results:
///   {"gapsched": "pipeline_stats","requests": 0,"rejected": 0,
///    "feasible": 0,"timed_out": 0,"audited": 0,"refuted": 0,
///    "cache_hits": 0,"component_cache_hits": 0,
///    "stages": {"canonicalize": {"runs": 0,"skips": 0,"total_ms": 0},
///               ... one entry per PipelineStage ...}}
std::string pipeline_stats_to_json(
    const engine::pipeline::PipelineStats& stats);
std::optional<engine::pipeline::PipelineStats> pipeline_stats_from_json(
    std::string_view text, std::string* error = nullptr);

/// One worker shard's roll-up: the server's per-shard tally, and its
/// entry in the `stats` frame ("shard" plus the pipeline_stats keys).
struct ShardStatsWire : engine::pipeline::PipelineStats {
  std::int64_t shard = 0;
};

/// The server `stats` frame body: the shared cache's tallies, one entry
/// per worker shard, and `pipeline`, the shards' roll-ups summed.
struct ServerStatsWire {
  engine::CacheStats cache;
  engine::pipeline::PipelineStats pipeline;
  std::vector<ShardStatsWire> shards;
};

std::string server_stats_to_json(const ServerStatsWire& stats);
std::optional<ServerStatsWire> server_stats_from_json(
    std::string_view text, std::string* error = nullptr);

// ------------------------------------------------------- frame headers --
// serve/protocol.hpp frames are ordinary documents of this codec with a
// routing header spliced in ("frame", "id", "deadline_ms", "message").
// The header is parsed here so the server and every client agree on one
// reader; the frame body (request/result/stats fields at the same top
// level) goes through the matching *_from_json above, which ignores the
// header fields like any other extras.

struct FrameHead {
  /// Frame type: "hello", "request", "result", "stats", "drain", "error".
  std::string frame;
  /// Request/response correlation id; -1 when the frame carries none.
  std::int64_t id = -1;
  /// Per-request deadline in milliseconds from receipt; 0 disables it.
  double deadline_ms = 0.0;
  /// Human-readable diagnostic of an "error" frame.
  std::string message;
};

/// Parses the routing header of one frame. Fails on documents without a
/// string "frame" field, deadlines outside [0, kMaxDeadlineMs], or
/// non-integer ids.
std::optional<FrameHead> frame_head_from_json(std::string_view text,
                                              std::string* error = nullptr);

}  // namespace gapsched::io
