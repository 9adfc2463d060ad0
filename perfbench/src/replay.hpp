#pragma once
// The replay pass of a traced run: re-issues a workload's requests in
// process, in order, through the same public calls the server makes for
// each frame, timing every call as a span:
//
//   frame_head_from_json -> request_from_json -> shard_key
//   -> prep::canonicalize -> prep::decompose -> compress_dead_time_capped
//   -> Engine::solve -> oracle::check_result -> prep::recombine
//   -> result_frame -> result_from_json   [-> DiskStore::append]
//
// The engine handed in carries the cache and store state of the workload
// being replayed, so hits stay hits and misses stay misses.

#include <cstddef>
#include <string>
#include <utility>
#include <vector>

#include "common.hpp"
#include "trace.hpp"

namespace gapsched::engine {
class Engine;
}
namespace gapsched::store {
class DiskStore;
}

namespace perfbench {

/// One frame to replay (text without the trailing newline) and its base.
struct ReplayFrame {
  std::size_t base = 0;
  std::string text;
};

struct ReplayResult {
  std::size_t replayed = 0;
  std::size_t failed = 0;  // answers that did not match their reference
  std::string first_error;
  double result_bytes = 0.0;  // summed size of the replayed result frames
  /// (base, ms) per replayed frame: its server-side wire cost, i.e. frame
  /// head + request parse + shard key + result frame.
  std::vector<std::pair<std::size_t, double>> wire_ms;
};

/// Replays `frames` through `engine`. With `append_store`, every answer is
/// also appended to that store, timing DiskStore::append with its fsync.
/// Spans are named after the call they time and rooted in one
/// "replay.request" span per frame.
ReplayResult replay(gapsched::engine::Engine& engine,
                    const std::vector<ReplayFrame>& frames,
                    const std::vector<Base>& bases, SpanRecorder& spans,
                    gapsched::store::DiskStore* append_store);

struct StoreReads {
  std::size_t probed = 0;  // cache records the requests key to
  std::size_t found = 0;   // of those, records the store held
};

/// Times DiskStore::open of `path` `times` times ("store.open" spans) and
/// DiskStore::load of every cache record the feasible requests of `bases`
/// key to ("store.load" spans, found records only; infeasible answers are
/// never stored). The caller fails the run when
/// found < probed: a miss means the keys drifted from the engine's, and the
/// load time would then describe an empty set.
StoreReads replay_store_reads(const std::string& path,
                              const std::vector<Base>& bases,
                              std::size_t times, SpanRecorder& spans);

/// Mean duration (us) of the spans named `name`; 0 when there are none.
double mean_span_us(const SpanRecorder& spans, const std::string& name);

/// Adds the mean duration of every replayed call to `out`: io.*_us,
/// serve.shard_key_us, prep.*_us, core.compress_us, oracle.check_us,
/// engine.solve_us, store.load_us, store.open_ms and store.append_ms.
void emit_replay_metrics(const SpanRecorder& spans, Metrics& out);

}  // namespace perfbench
