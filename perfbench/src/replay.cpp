#include "replay.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "gapsched/core/transforms.hpp"
#include "gapsched/engine/cache.hpp"
#include "gapsched/engine/engine.hpp"
#include "gapsched/io/json.hpp"
#include "gapsched/oracle/oracle.hpp"
#include "gapsched/prep/prep.hpp"
#include "gapsched/serve/protocol.hpp"
#include "gapsched/serve/shard.hpp"
#include "gapsched/store/store.hpp"

namespace perfbench {

namespace engine = gapsched::engine;
namespace io = gapsched::io;
namespace prep = gapsched::prep;
namespace serve = gapsched::serve;
using gapsched::Time;

namespace {

// The engine's documented prep parameters (engine/types.hpp, prep.hpp):
// components split at separation > n (power: > max(n, ceil(alpha))), and
// are compressed to one dead unit for gap solves, ceil(alpha) + 1 for
// power solves.
Time cut_threshold(const SolveRequest& request) {
  auto threshold = static_cast<Time>(request.instance.n());
  if (request.objective == engine::Objective::kPower) {
    threshold = std::max(threshold,
                         static_cast<Time>(std::ceil(request.params.alpha)));
  }
  return threshold;
}

Time compression_cap(const SolveRequest& request) {
  if (!request.params.compress) return 0;
  return request.objective == engine::Objective::kPower
             ? static_cast<Time>(std::ceil(request.params.alpha)) + 1
             : 1;
}

/// The answer's placements in each component's local coordinates — the
/// shape prep::recombine consumes.
std::vector<gapsched::Schedule> project(const prep::Decomposition& dec,
                                        const gapsched::Schedule& whole) {
  std::vector<gapsched::Schedule> parts;
  parts.reserve(dec.components.size());
  for (const prep::Component& comp : dec.components) {
    gapsched::Schedule part(comp.jobs.size());
    for (std::size_t i = 0; i < comp.jobs.size(); ++i) {
      const std::size_t job = comp.jobs[i];
      if (job < whole.size() && whole.is_scheduled(job)) {
        part.place(i, whole.at(job)->time - comp.shift);
      }
    }
    parts.push_back(std::move(part));
  }
  return parts;
}

/// Times one call as a span under `parent` and returns its duration (ms).
template <typename F>
double timed(SpanRecorder& spans, const char* name, std::int64_t request,
             std::int64_t parent, F&& call) {
  const auto t0 = Clock::now();
  call();
  const auto t1 = Clock::now();
  spans.add(name, request, parent, t0, t1);
  return ms_between(t0, t1);
}

}  // namespace

ReplayResult replay(engine::Engine& eng, const std::vector<ReplayFrame>& frames,
                    const std::vector<Base>& bases, SpanRecorder& spans,
                    gapsched::store::DiskStore* append_store) {
  ReplayResult out;
  for (const ReplayFrame& frame : frames) {
    const Base& base = bases[frame.base];
    const auto root_start = Clock::now();
    const std::int64_t root = spans.add("replay.request", -1, -1, root_start,
                                        root_start);
    std::optional<io::FrameHead> head;
    std::optional<SolveRequest> request;
    std::string solver_name;
    double wire = 0.0;
    wire += timed(spans, "io.frame_head", -1, root,
                  [&] { head = io::frame_head_from_json(frame.text); });
    wire += timed(spans, "io.request_parse", -1, root, [&] {
      request = io::request_from_json(frame.text, &solver_name);
    });
    const engine::Solver* solver = eng.registry().find(solver_name);
    if (!head.has_value() || !request.has_value() || solver == nullptr) {
      ++out.failed;
      if (out.first_error.empty()) out.first_error = "replay: bad frame";
      continue;
    }
    wire += timed(spans, "serve.shard_key", head->id, root, [&] {
      static_cast<void>(serve::shard_key(*solver, *request));
    });
    prep::Canonical canonical;
    prep::Decomposition dec;
    timed(spans, "prep.canonicalize", head->id, root,
          [&] { canonical = prep::canonicalize(request->instance); });
    timed(spans, "prep.decompose", head->id, root, [&] {
      dec = prep::decompose(request->instance, cut_threshold(*request));
    });
    const Time cap = compression_cap(*request);
    if (cap > 0) {
      timed(spans, "core.compress", head->id, root, [&] {
        for (const prep::Component& comp : dec.components) {
          static_cast<void>(gapsched::compress_dead_time_capped(comp.instance,
                                                                cap));
        }
      });
    }
    SolveResult result;
    timed(spans, "engine.solve", head->id, root,
          [&] { result = eng.solve(*solver, *request); });
    std::string verdict;
    timed(spans, "oracle.check", head->id, root, [&] {
      verdict = gapsched::oracle::check_result(*request, result,
                                               solver->info().exact);
    });
    const std::vector<gapsched::Schedule> parts = project(dec, result.schedule);
    timed(spans, "prep.recombine", head->id, root, [&] {
      static_cast<void>(prep::recombine(dec, parts, request->instance.n()));
    });
    std::string result_text;
    wire += timed(spans, "io.result_frame", head->id, root, [&] {
      result_text = serve::result_frame(head->id, result);
    });
    out.result_bytes += static_cast<double>(result_text.size());
    std::optional<SolveResult> parsed;
    timed(spans, "io.result_parse", head->id, root,
          [&] { parsed = io::result_from_json(result_text); });
    if (append_store != nullptr) {
      const engine::CacheKey key =
          engine::make_cache_key(solver->info(), request->objective,
                                 request->params, canonical.instance);
      const std::string payload = io::result_to_json(result);
      timed(spans, "store.append", head->id, root, [&] {
        append_store->append(key.digest, key.text, payload,
                             result.stats.wall_ms);
      });
    }
    spans.finish(root, head->id, Clock::now());
    out.wire_ms.emplace_back(frame.base, wire);
    ++out.replayed;
    std::string why = verdict.empty() && parsed.has_value()
                          ? check_answer(base, *parsed)
                          : "replayed answer refuted: " + verdict;
    if (!why.empty()) {
      ++out.failed;
      if (out.first_error.empty()) out.first_error = "replay: " + why;
    }
  }
  return out;
}

StoreReads replay_store_reads(const std::string& path,
                              const std::vector<Base>& bases,
                              std::size_t times, SpanRecorder& spans) {
  StoreReads out;
  std::unique_ptr<gapsched::store::DiskStore> store;
  for (std::size_t i = 0; i < times; ++i) {
    store.reset();
    std::string error;
    const auto t0 = Clock::now();
    store = gapsched::store::DiskStore::open(path, {}, &error);
    spans.add("store.open", -1, -1, t0, Clock::now());
    if (store == nullptr) break;
  }
  static const auto registry = engine::SolverRegistry::create_with_builtins();
  for (const Base& base : bases) {
    // The store only ever holds feasible answers.
    if (!base.ref_feasible) continue;
    const engine::Solver* solver = registry->find(base.solver);
    const SolveRequest& request = base.request;
    const prep::Decomposition dec =
        prep::decompose(request.instance, cut_threshold(request));
    const Time cap = compression_cap(request);
    for (const prep::Component& comp : dec.components) {
      const gapsched::Instance keyed =
          cap > 0 ? gapsched::compress_dead_time_capped(comp.instance, cap)
                        .instance
                  : comp.instance;
      ++out.probed;
      if (store == nullptr) continue;
      const engine::CacheKey key = engine::make_cache_key(
          solver->info(), request.objective, request.params, keyed);
      const auto t0 = Clock::now();
      const auto payload = store->load(key.digest, key.text);
      const auto t1 = Clock::now();
      if (payload.has_value()) {
        spans.add("store.load", -1, -1, t0, t1);
        ++out.found;
      }
    }
  }
  std::printf("  store.load found %zu of %zu probed records\n", out.found,
              out.probed);
  return out;
}

double mean_span_us(const SpanRecorder& spans, const std::string& name) {
  double sum = 0.0;
  std::size_t count = 0;
  for (const Span& span : spans.spans()) {
    if (span.name == name) {
      sum += span.end_us - span.start_us;
      ++count;
    }
  }
  return count > 0 ? sum / static_cast<double>(count) : 0.0;
}

void emit_replay_metrics(const SpanRecorder& spans, Metrics& out) {
  for (const char* span :
       {"io.frame_head", "io.request_parse", "io.result_frame",
        "io.result_parse", "serve.shard_key", "prep.canonicalize",
        "prep.decompose", "core.compress", "prep.recombine", "oracle.check",
        "engine.solve", "store.load"}) {
    out[std::string(span) + "_us"] = {mean_span_us(spans, span), "us"};
  }
  for (const char* span : {"store.open", "store.append"}) {
    out[std::string(span) + "_ms"] = {mean_span_us(spans, span) / 1000.0,
                                      "ms"};
  }
}

}  // namespace perfbench
