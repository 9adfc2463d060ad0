// restart_warm: the solver_cli and batch shape, with no wire. An untimed
// phase solves a fixed set of unique requests once and spills every answer
// to a store file. The timed phase then repeatedly opens a fresh Engine
// (threads = 1) on that file and replays the set: every answer is a disk
// load, an oracle re-audit and the prep stages, never a solver call.
//
// Single caller: throughput_rps, latency_p50_ms, latency_p99_ms, each in
// host-speed-adjusted time (below). Two concurrent callers on one fresh
// Engine: latency_p99_ms.high, unadjusted. setup_s is the median Engine
// construction time on the populated store.
//
// Host-speed adjustment: on a shared host the speed at which this one
// thread runs drifts by up to ±30 % over seconds and minutes, more than any
// bound could hold. So after every one-caller solve the caller times one
// pass of reference_work(), the benchmark's own fixed work, and each
// cycle's solve times are scaled by kReferenceWorkMs over the cycle's mean
// reference time: they read as if the host ran the reference work at its
// usual speed. A program change moves the solve times and not the
// reference work, so it moves the adjusted metrics by the same share.

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <thread>

#include "gapsched/engine/engine.hpp"
#include "gapsched/serve/protocol.hpp"
#include "gapsched/store/store.hpp"
#include "layers.hpp"
#include "replay.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace engine = gapsched::engine;

namespace {

/// Share of a pass spent with one caller; two callers get the rest.
constexpr double kSingleShare = 0.6;
/// reference_work() right after a solve, on the 4-vCPU x86 VM the
/// benchmark was tuned on at its usual speed: the host speed the adjusted
/// metrics are expressed at.
constexpr double kReferenceWorkMs = 0.5;

const std::vector<Family>& restart_families() {
  static const std::vector<Family> families = {
      {"poly_scale:1200", "bcd_poly_gap", 2.0, 0.0},
      {"poly_scale:2000", "bcd_poly_gap", 2.0, 0.0},
      {"poly_wide:10", "gap_dp", 2.0, 0.0},
      {"power_longhaul", "power_dp", 2.5, 0.0}};
  return families;
}
/// The tiny gap_dp and power_dp hits are fewer than half of the set, so the
/// median solve lies in the middle of the poly_scale:1200 hits rather than
/// among the tiny hits' tail, which cache warmth spreads widely.
constexpr std::size_t kPerFamily[] = {72, 48, 24, 24};

struct Solve {
  std::size_t base = 0;
  Clock::time_point start{};
  Clock::time_point end{};
  double reference_ms = 0.0;  // one caller: the reference work right after
  engine::SolveStats stats{};
};

/// One replay cycle's measurements.
struct Cycle {
  std::size_t callers = 1;
  std::vector<double> ms;  // per-solve latency
  /// One caller: kReferenceWorkMs over the cycle's mean reference work
  /// time, the factor that adjusts its solve times; 1 with two callers.
  double speed = 1.0;
  /// One caller: time between a solve's end and the next one's start,
  /// less the reference work, spent checking the answer (the load
  /// generator's own cost).
  std::vector<double> gap_ms;
};

struct Pass {
  std::vector<double> setup_s;
  std::vector<Cycle> cycles;
  std::size_t disk_hits = 0;
  std::size_t misses = 0;
  std::vector<Solve> traced;  // one-caller solves of a traced pass
};

/// One replay cycle: a fresh Engine on the store, then every base solved
/// once by `callers` threads (base i goes to caller i % callers).
void cycle(const std::string& store, const std::vector<Base>& bases,
           std::size_t callers, bool traced, Pass& pass, RunReport& report) {
  engine::EngineOptions opt;
  opt.threads = 1;
  opt.store_path = store;
  const auto t0 = Clock::now();
  engine::Engine eng(opt);
  pass.setup_s.push_back(ms_between(t0, Clock::now()) / 1000.0);
  if (!eng.store_error().empty()) {
    report.fail("store did not open: " + eng.store_error());
    return;
  }
  std::vector<Solve> solves(bases.size());
  std::vector<std::string> verdicts(bases.size());
  const auto caller = [&](std::size_t c) {
    for (std::size_t i = c; i < bases.size(); i += callers) {
      Solve& s = solves[i];
      s.base = i;
      s.start = Clock::now();
      const SolveResult result = eng.solve(bases[i].solver, bases[i].request);
      s.end = Clock::now();
      verdicts[i] = check_answer(bases[i], result);
      if (traced) s.stats = result.stats;
      if (callers == 1) {
        // Timed like the solve, on the wall clock: whatever slows the
        // caller's solves, a busy CPU included, slows this as much.
        const auto at = Clock::now();
        reference_work();
        s.reference_ms = ms_between(at, Clock::now());
      }
    }
  };
  if (callers == 1) {
    caller(0);
  } else {
    std::vector<std::thread> threads;
    for (std::size_t c = 0; c < callers; ++c) threads.emplace_back(caller, c);
    for (std::thread& t : threads) t.join();
  }
  report.attempted += bases.size();
  for (const std::string& v : verdicts) {
    if (!v.empty()) report.fail(v);
  }
  const engine::CacheStats stats = eng.cache_stats();
  pass.disk_hits += stats.disk_hits;
  pass.misses += stats.misses;
  Cycle c;
  c.callers = callers;
  for (const Solve& s : solves) c.ms.push_back(ms_between(s.start, s.end));
  if (callers == 1) {
    double reference_ms = 0.0;
    for (const Solve& s : solves) reference_ms += s.reference_ms;
    c.speed = kReferenceWorkMs * static_cast<double>(solves.size()) /
              reference_ms;
  }
  for (std::size_t i = 1; callers == 1 && i < solves.size(); ++i) {
    c.gap_ms.push_back(ms_between(solves[i - 1].end, solves[i].start) -
                       solves[i - 1].reference_ms);
  }
  pass.cycles.push_back(std::move(c));
  if (callers == 1 && traced) {
    pass.traced.insert(pass.traced.end(), solves.begin(), solves.end());
  }
}

Pass run_pass(const std::string& store, const std::vector<Base>& bases,
              double seconds, bool traced, RunReport& report) {
  Pass pass;
  for (const std::size_t callers : {1, 2}) {
    const double budget = callers == 1 ? seconds * kSingleShare
                                       : seconds * (1.0 - kSingleShare);
    const auto start = Clock::now();
    do {
      cycle(store, bases, callers, traced, pass, report);
    } while (ms_between(start, Clock::now()) < 1000.0 * budget &&
             report.failed == 0);
  }
  return pass;
}

/// The q-quantile of per-solve latency over every cycle with `callers`
/// callers; `adjusted` scales each cycle's latencies by its speed.
double pooled_latency(const Pass& pass, std::size_t callers, double q,
                      bool adjusted) {
  std::vector<double> samples;
  for (const Cycle& c : pass.cycles) {
    if (c.callers != callers) continue;
    for (const double ms : c.ms) {
      samples.push_back(adjusted ? ms * c.speed : ms);
    }
  }
  return quantile(std::move(samples), q);
}

Metrics end_to_end(const Pass& pass) {
  double single_solves = 0.0;
  double single_ms = 0.0;    // one-caller solve time
  double adjusted_ms = 0.0;  // the same, host-speed-adjusted
  std::size_t solves = 0;
  for (const Cycle& c : pass.cycles) {
    solves += c.ms.size();
    if (c.callers != 1) continue;
    single_solves += static_cast<double>(c.ms.size());
    for (const double ms : c.ms) {
      single_ms += ms;
      adjusted_ms += ms * c.speed;
    }
  }
  Metrics m;
  m["throughput_rps"] = {
      adjusted_ms > 0.0 ? 1000.0 * single_solves / adjusted_ms : 0.0, "1/s"};
  m["latency_p50_ms"] = {pooled_latency(pass, 1, 0.50, true), "ms"};
  m["latency_p99_ms"] = {pooled_latency(pass, 1, 0.99, true), "ms"};
  m["latency_p99_ms.high"] = {pooled_latency(pass, 2, 0.99, false), "ms"};
  m["setup_s"] = {quantile(pass.setup_s, 0.5), "s"};
  std::printf("  unadjusted: throughput %.2f solves/s, latency p50 %.4f ms; "
              "host speed %.3f of the reference\n",
              single_ms > 0.0 ? 1000.0 * single_solves / single_ms : 0.0,
              pooled_latency(pass, 1, 0.50, false),
              single_ms > 0.0 ? adjusted_ms / single_ms : 0.0);
  std::printf("  samples: %zu solves in %zu cycles, %.0f of them with one "
              "caller (every metric pools its cycles); %zu engine set-ups\n",
              solves, pass.cycles.size(), single_solves, pass.setup_s.size());
  return m;
}

}  // namespace

RunReport run_restart_warm(const RunOptions& options) {
  RunReport report;
  const std::vector<Family>& families = restart_families();
  std::vector<Base> bases;
  for (std::size_t f = 0; f < families.size(); ++f) {
    for (std::size_t i = 0; i < kPerFamily[f]; ++i) {
      bases.push_back(
          draw_base(families, f, mix_seed(options.seed, 40 + f, i)));
    }
  }
  const std::size_t threads =
      std::min<std::size_t>(4, std::thread::hardware_concurrency());
  const std::string ref_error = compute_references(bases, threads);
  if (!ref_error.empty()) {
    report.fail(ref_error);
    return report;
  }
  if (options.corrupt_reference) corrupt_reference(bases.front());

  // Untimed: populate the store with every answer.
  const std::string store = options.work_dir + "/perfbench-restart_warm-" +
                            std::to_string(::getpid()) + ".store";
  std::remove(store.c_str());
  engine::CacheStats populated;
  {
    engine::EngineOptions opt;
    opt.threads = threads;
    opt.store_path = store;
    opt.store_spill_min_ms = 0.0;
    engine::Engine eng(opt);
    std::vector<engine::BatchJob> jobs;
    for (const Base& b : bases) jobs.push_back({b.solver, b.request});
    const std::vector<SolveResult> results = eng.solve_batch(jobs);
    for (std::size_t i = 0; i < results.size(); ++i) {
      ++report.attempted;
      if (const std::string v = check_answer(bases[i], results[i]); !v.empty()) {
        report.fail(v);
      }
    }
    eng.flush_store();
    populated = eng.cache_stats();
  }
  std::printf("restart_warm: %zu unique requests, %zu records spilled, seed "
              "%llu\n",
              bases.size(), populated.spilled,
              static_cast<unsigned long long>(options.seed));

  const std::size_t passes = options.trace ? 2 : 1;
  std::vector<Pass> results;
  for (std::size_t p = 0; p < passes && report.failed == 0; ++p) {
    results.push_back(run_pass(store, bases,
                               options.seconds / static_cast<double>(passes),
                               options.trace && p == passes - 1, report));
  }
  if (results.size() < passes) {
    std::remove(store.c_str());
    return report;
  }

  std::printf("end-to-end (%s pass):\n", options.trace ? "untraced" : "timed");
  Metrics e2e = end_to_end(results.front());
  if (!options.trace) {
    report.metrics = std::move(e2e);
    report.metrics["peak_rss_mb"] = {peak_rss_mb(), "MiB"};
    ratio("store.disk_hit_ratio",
          static_cast<double>(results.front().disk_hits),
          static_cast<double>(results.front().misses));
    std::remove(store.c_str());
    return report;
  }

  // ---- traced run ----
  const Pass& traced = results.back();
  Metrics& m = report.metrics;
  std::printf("end-to-end (traced pass):\n");
  for (const auto& [name, metric] : end_to_end(traced)) {
    if (name == "setup_s") continue;
    m["trace.overhead." + name] = {metric.value - e2e.at(name).value,
                                   metric.unit};
  }

  // Spans: one "solve" root per one-caller solve, the engine-reported
  // stages laid end to end inside it.
  SpanRecorder spans(traced.traced.front().start);
  std::vector<std::pair<double, std::int64_t>> roots;
  AnswerTally tally;
  std::size_t overruns = 0;
  for (const Solve& s : traced.traced) {
    const std::int64_t root = spans.add("solve", static_cast<std::int64_t>(s.base),
                                        -1, s.start, s.end);
    double at = spans.offset_us(s.start);
    for (std::size_t st = 0; st < stage_names().size(); ++st) {
      if (!s.stats.stages[st].ran) continue;
      const double dur = 1000.0 * s.stats.stages[st].ms;
      spans.add("engine.stage." + stage_names()[st],
                static_cast<std::int64_t>(s.base), root, at, at + dur);
      at += dur;
    }
    if (at > spans.offset_us(s.end)) ++overruns;
    roots.emplace_back(ms_between(s.start, s.end), root);
    tally.add(s.stats, bases[s.base].solver);
  }
  const std::vector<double> self = spans.self_times_us();
  // A solve root's self time is the call's time outside the pipeline
  // stages: the in-process counterpart of the server's queue wait.
  std::vector<double> outside_ms;
  for (const auto& [latency, root] : roots) {
    outside_ms.push_back(self[static_cast<std::size_t>(root)] / 1000.0);
  }
  std::vector<double> gap_ms;
  for (const Cycle& c : traced.cycles) {
    gap_ms.insert(gap_ms.end(), c.gap_ms.begin(), c.gap_ms.end());
  }
  std::nth_element(roots.begin(), roots.begin() + roots.size() / 2, roots.end());
  const auto [sample_latency, sample_root] = roots[roots.size() / 2];
  double sample_self = 0.0;
  for (std::size_t i = 0; i < spans.spans().size(); ++i) {
    const Span& s = spans.spans()[i];
    if (static_cast<std::int64_t>(i) == sample_root || s.parent == sample_root) {
      sample_self += self[i] / 1000.0;
    }
  }

  // Replay: a fresh Engine on the store, every request through the wire
  // codec and prep calls, then DiskStore::open and load on the same file.
  std::vector<ReplayFrame> frames;
  for (std::size_t i = 0; i < bases.size(); ++i) {
    frames.push_back({i, gapsched::serve::request_frame(
                             static_cast<std::int64_t>(i), bases[i].solver,
                             bases[i].request)});
  }
  ReplayResult replayed;
  {
    engine::EngineOptions opt;
    opt.threads = 1;
    opt.store_path = store;
    engine::Engine eng(opt);
    const std::string append_path = store + ".append";
    std::remove(append_path.c_str());
    std::string error;
    auto append_store =
        gapsched::store::DiskStore::open(append_path, {}, &error);
    if (append_store == nullptr) report.fail("append store: " + error);
    replayed = replay(eng, frames, bases, spans, append_store.get());
    append_store.reset();
    std::remove(append_path.c_str());
    report.attempted += replayed.replayed;
    report.failed += replayed.failed;
    if (report.first_error.empty()) report.first_error = replayed.first_error;
  }
  const StoreReads reads = replay_store_reads(store, bases, 5, spans);
  if (reads.found < reads.probed) {
    report.fail("store.load found " + std::to_string(reads.found) + " of " +
                std::to_string(reads.probed) + " records");
  }

  std::printf("per-layer:\n");
  emit_replay_metrics(spans, m);
  tally.emit(m);
  double request_bytes = 0.0;
  for (const ReplayFrame& f : frames) {
    request_bytes += static_cast<double>(f.text.size());
  }
  m["io.request_bytes"] = {request_bytes / static_cast<double>(frames.size()),
                           "bytes"};
  m["io.result_bytes"] = {
      replayed.result_bytes /
          static_cast<double>(std::max<std::size_t>(1, replayed.replayed)),
      "bytes"};
  m["serve.wait_ms.p50"] = {quantile(outside_ms, 0.50), "ms"};
  m["serve.wait_ms.p99"] = {quantile(outside_ms, 0.99), "ms"};
  m["serve.shard_max_share"] = {0.0, "1"};
  m["store.disk_hit_ratio"] = {
      ratio("store.disk_hit_ratio", static_cast<double>(traced.disk_hits),
            static_cast<double>(traced.misses)),
      "1"};
  m["store.spilled"] = {static_cast<double>(populated.spilled), "count"};
  double file_bytes = 0.0;
  if (std::FILE* f = std::fopen(store.c_str(), "rb")) {
    std::fseek(f, 0, SEEK_END);
    file_bytes = static_cast<double>(std::ftell(f));
    std::fclose(f);
  }
  m["store.file_bytes"] = {file_bytes, "bytes"};
  m["bench.gen_lag_p99_ms"] = {quantile(gap_ms, 0.99), "ms"};
  m["trace.sample_latency_ms"] = {sample_latency, "ms"};
  m["trace.sample_self_sum_ms"] = {sample_self, "ms"};
  m["trace.overrun_frac"] = {
      ratio("trace.overrun_frac", static_cast<double>(overruns),
            static_cast<double>(roots.size())),
      "1"};
  std::printf(
      "  sampled solve (median latency): latency %.4f ms, span self times "
      "sum %.4f ms (equal by construction), tracing overhead on p50 %.4f "
      "ms\n",
      sample_latency, sample_self, m["trace.overhead.latency_p50_ms"].value);

  const std::string span_log = options.work_dir + "/trace-" + options.workload +
                               "-" + std::to_string(options.seed) + ".ndjson";
  if (spans.write_ndjson(span_log)) {
    std::printf("  %zu spans written to %s\n", spans.spans().size(),
                span_log.c_str());
  }
  std::remove(store.c_str());
  return report;
}

}  // namespace perfbench
