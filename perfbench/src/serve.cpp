// serve_hits and serve_cold: an in-process gapsched::serve::Server with
// two shards, driven over loopback by two client connections.
//
// A run sets the server up several times (setup_s is the median), then
// makes one pass of kRounds rounds of two open-loop phases, one at the
// nominal rate (latency_p50_ms, latency_p99_ms) and one at the high rate
// (latency_p99_ms.high), followed by kRounds closed-loop saturation phases
// (throughput_rps). Saturation comes last so that its after-effects (the
// store's write-behind backlog on serve_cold) never fall into an open-loop
// phase. Each metric pools every request of its phase over all rounds, in
// host-speed-adjusted time: a HostSpeedProbe samples the host's speed
// through the passes and each phase's times are scaled by the speed it saw.
// A traced run makes an untraced and a traced pass of half the length each,
// replays part of the traced pass in process, and reports per-layer
// metrics plus the traced-minus-untraced difference of the end-to-end ones.

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <map>
#include <memory>
#include <thread>

#include "gapsched/engine/engine.hpp"
#include "gapsched/serve/server.hpp"
#include "gapsched/store/store.hpp"
#include "layers.hpp"
#include "load.hpp"
#include "replay.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace engine = gapsched::engine;
namespace serve = gapsched::serve;

namespace {

constexpr std::size_t kShards = 2;
constexpr std::size_t kConnections = 2;
/// Closed-loop outstanding requests per connection.
constexpr std::size_t kWindow = 8;
constexpr std::size_t kSetupRepeats = 7;
/// Shares of a pass spent in the saturation and nominal phases; the high
/// phase gets the rest.
constexpr double kSaturationShare = 0.35;
constexpr double kNominalShare = 0.4;
/// A pass whose pacing sender ran later than this at its p99 sent its
/// arrivals in bunches rather than on their schedule: it measured the
/// generator, not the server, and the run is invalid.
constexpr double kMaxGenLagP99Ms = 50.0;
/// The host-speed probe's reading on the 4-vCPU x86 VM the benchmark was
/// tuned on, at its usual speed and under serve_cold's load (a sample every
/// kProbePeriodMs on a thread that sleeps in between, so it starts with
/// cold caches and reads slower than the same work right after a solve).
constexpr double kProbeReferenceMs = 0.7;
constexpr double kProbePeriodMs = 10.0;

struct Shape {
  std::vector<Family> families;
  /// Fixed offered rates of the two open-loop phases (requests/s).
  double nominal_rps = 0.0;
  double high_rps = 0.0;
  /// Upper bound on closed-loop throughput, used to size the request list
  /// of the saturation phase.
  double saturation_cap_rps = 0.0;
  /// serve_hits: distinct base instances per family and copies per base.
  std::vector<std::size_t> bases_per_family;
  std::size_t copies_per_base = 0;
  /// serve_cold: unique draws sent by the warm-up fill.
  std::size_t cold_warmup = 0;
  /// Requests the traced run replays in process.
  std::size_t replayed = 0;
};

/// Rounds of each phase per pass.
constexpr std::size_t kRounds = 3;

Shape hits_shape() {
  Shape s;
  s.families = {{"mega_mixed", "gap_dp", 2.0, 0.55},
                {"stretched:16:power_longhaul", "power_dp", 2.5, 0.30},
                {"poly_scale:300", "bcd_poly_gap", 2.0, 0.12},
                {"poly_scale:2000", "bcd_poly_gap", 2.0, 0.03}};
  s.nominal_rps = 800.0;
  s.high_rps = 1200.0;
  s.saturation_cap_rps = 20000.0;
  s.bases_per_family = {32, 16, 8, 4};
  s.copies_per_base = 4;
  s.replayed = 300;
  return s;
}

Shape cold_shape() {
  Shape s;
  s.families = {{"poly_wide:4", "gap_dp", 2.0, 1.0 / 3},
                {"poly_wide:4", "power_dp", 2.5, 1.0 / 3},
                {"poly_scale:300", "bcd_poly_gap", 2.0, 1.0 / 3}};
  s.nominal_rps = 120.0;
  s.high_rps = 200.0;
  s.saturation_cap_rps = 1100.0;
  s.cold_warmup = 32;
  s.replayed = 12;
  return s;
}

std::size_t pick_family(const Shape& shape, std::mt19937_64& rng) {
  const double u = std::uniform_real_distribution<double>(0.0, 1.0)(rng);
  double acc = 0.0;
  for (std::size_t f = 0; f < shape.families.size(); ++f) {
    acc += shape.families[f].share;
    if (u < acc) return f;
  }
  return shape.families.size() - 1;
}

struct PassPlan {
  double saturation_s = 0.0;
  double nominal_s = 0.0;
  double high_s = 0.0;
  std::vector<std::size_t> saturation;
  std::vector<std::size_t> nominal;
  std::vector<double> nominal_at;
  std::vector<std::size_t> high;
  std::vector<double> high_at;
};

struct Inputs {
  std::vector<Base> bases;
  std::vector<FrameTemplate> templates;
  std::vector<std::size_t> warm;  // templates sent by the warm-up fill
  std::vector<PassPlan> rounds;   // kRounds per pass, in run order
};

/// Draws every input of the run from the seed. serve_hits: a few base
/// instances per family, each sent as several time-shifted, job-permuted
/// copies. serve_cold: one unique draw per request.
Inputs make_inputs(const Shape& shape, bool cold, const RunOptions& options,
                   std::size_t passes) {
  Inputs in;
  std::mt19937_64 rng(mix_seed(options.seed, 1, 0));
  const double round_s =
      options.seconds / static_cast<double>(passes * kRounds);
  for (std::size_t r = 0; r < passes * kRounds; ++r) {
    PassPlan plan;
    plan.saturation_s = round_s * kSaturationShare;
    plan.nominal_s = round_s * kNominalShare;
    plan.high_s = round_s - plan.saturation_s - plan.nominal_s;
    plan.nominal_at = poisson_schedule(shape.nominal_rps, plan.nominal_s,
                                       mix_seed(options.seed, 2, r));
    plan.high_at = poisson_schedule(shape.high_rps, plan.high_s,
                                    mix_seed(options.seed, 3, r));
    in.rounds.push_back(std::move(plan));
  }

  if (!cold) {
    std::vector<std::vector<std::size_t>> by_family(shape.families.size());
    for (std::size_t f = 0; f < shape.families.size(); ++f) {
      for (std::size_t i = 0; i < shape.bases_per_family[f]; ++i) {
        by_family[f].push_back(in.bases.size());
        in.bases.push_back(
            draw_base(shape.families, f, mix_seed(options.seed, 10 + f, i)));
      }
    }
    for (std::size_t b = 0; b < in.bases.size(); ++b) {
      in.warm.push_back(in.templates.size());
      for (std::size_t c = 0; c < shape.copies_per_base; ++c) {
        in.templates.push_back(make_template(
            b, in.bases[b].solver,
            shifted_permuted_copy(in.bases[b].request, rng)));
      }
    }
    const auto draw = [&] {
      const auto& family = by_family[pick_family(shape, rng)];
      const std::size_t base = family[rng() % family.size()];
      return in.warm[base] + rng() % shape.copies_per_base;
    };
    for (PassPlan& plan : in.rounds) {
      const auto cap = static_cast<std::size_t>(shape.saturation_cap_rps *
                                                plan.saturation_s);
      for (std::size_t i = 0; i < cap; ++i) plan.saturation.push_back(draw());
      for (std::size_t i = 0; i < plan.nominal_at.size(); ++i) {
        plan.nominal.push_back(draw());
      }
      for (std::size_t i = 0; i < plan.high_at.size(); ++i) {
        plan.high.push_back(draw());
      }
    }
    return in;
  }

  // serve_cold: every template is its own base, drawn once.
  const auto unique = [&](std::size_t family, std::uint64_t stream) {
    const std::size_t b = in.bases.size();
    in.bases.push_back(draw_base(shape.families, family,
                                 mix_seed(options.seed, stream, b)));
    in.templates.push_back(
        make_template(b, in.bases[b].solver, in.bases[b].request));
    return b;
  };
  for (std::size_t i = 0; i < shape.cold_warmup; ++i) {
    in.warm.push_back(unique(shape.families.size() - 1, 30));
  }
  for (PassPlan& plan : in.rounds) {
    for (std::size_t i = 0; i < plan.nominal_at.size(); ++i) {
      plan.nominal.push_back(unique(pick_family(shape, rng), 20));
    }
    for (std::size_t i = 0; i < plan.high_at.size(); ++i) {
      plan.high.push_back(unique(pick_family(shape, rng), 20));
    }
    const auto cap = static_cast<std::size_t>(shape.saturation_cap_rps *
                                              plan.saturation_s);
    for (std::size_t i = 0; i < cap; ++i) {
      plan.saturation.push_back(unique(pick_family(shape, rng), 20));
    }
  }
  return in;
}

/// One pass: kRounds rounds of nominal and high phases, then kRounds
/// saturation phases.
struct Pass {
  std::vector<PhaseResult> saturation;
  std::vector<PhaseResult> nominal;
  std::vector<PhaseResult> high;
};

Pass run_pass(LoadClient& client, const PassPlan* rounds, bool traced,
              const HostSpeedProbe& probe) {
  Pass pass;
  const auto measure = [&probe](PhaseResult phase) {
    phase.speed = probe.speed(phase.start, phase.end());
    return phase;
  };
  for (std::size_t r = 0; r < kRounds; ++r) {
    const PassPlan& plan = rounds[r];
    pass.nominal.push_back(measure(client.open_loop(
        plan.nominal, plan.nominal_at, plan.nominal_s, traced)));
    pass.high.push_back(measure(
        client.open_loop(plan.high, plan.high_at, plan.high_s, traced)));
  }
  for (std::size_t r = 0; r < kRounds; ++r) {
    const PassPlan& plan = rounds[r];
    pass.saturation.push_back(measure(client.closed_loop(
        plan.saturation, kWindow, plan.saturation_s, traced)));
  }
  return pass;
}

std::size_t issued(const std::vector<PhaseResult>& phases) {
  std::size_t n = 0;
  for (const PhaseResult& phase : phases) n += phase.slots.size();
  return n;
}

void count(const PhaseResult& phase, RunReport& report) {
  report.attempted += phase.slots.size();
  for (const Slot& slot : phase.slots) {
    if (!slot.correct) {
      report.fail(slot.answered ? slot.error : "request never answered");
    }
  }
  if (!phase.error.empty()) {
    ++report.failed;
    if (report.first_error.empty()) report.first_error = phase.error;
  }
}

Metrics end_to_end(const Pass& pass, const Shape& shape) {
  Metrics m;
  m["throughput_rps"] = {pooled_rate(pass.saturation, true), "1/s"};
  m["latency_p50_ms"] = {pooled_latency(pass.nominal, 0.50, true), "ms"};
  m["latency_p99_ms"] = {pooled_latency(pass.nominal, 0.99, true), "ms"};
  m["latency_p99_ms.high"] = {pooled_latency(pass.high, 0.99, true), "ms"};
  const auto mean_speed = [](const std::vector<PhaseResult>& phases) {
    double sum = 0.0;
    for (const PhaseResult& phase : phases) sum += phase.speed;
    return phases.empty() ? 1.0 : sum / static_cast<double>(phases.size());
  };
  std::printf("  unadjusted: throughput %.2f req/s, latency p50 %.4f ms; host "
              "speed %.3f (saturation), %.3f (nominal) of the reference\n",
              pooled_rate(pass.saturation, false),
              pooled_latency(pass.nominal, 0.50, false),
              mean_speed(pass.saturation), mean_speed(pass.nominal));
  std::printf(
      "  samples pooled over %zu rounds: saturation %zu answers; nominal %zu "
      "at %.0f/s; high %zu at %.0f/s\n",
      kRounds, issued(pass.saturation), issued(pass.nominal),
      shape.nominal_rps, issued(pass.high), shape.high_rps);
  return m;
}

std::string store_path(const RunOptions& options, const std::string& tag) {
  return options.work_dir + "/perfbench-" + options.workload + "-" +
         std::to_string(::getpid()) + "-" + tag + ".store";
}

/// Spans of one traced pass's open-loop requests. Per request: a root
/// "request" span (due -> answer) over "client.pacing" (due -> sent) and
/// "client.in_flight" (sent -> answer); inside the latter, the replayed
/// server wire cost and the server-reported stages, laid end to end. The
/// in-flight span's self time is queue wait plus transport. The parse of
/// the answer is a separate root span.
///
/// The self times of a request's spans sum to its latency by construction.
/// What can fail is the fit: a request whose replayed wire cost plus
/// server-reported stage sum exceeds its measured in-flight span is an
/// overrun (its children are clipped to the parent), and a nonzero overrun
/// share means the server's accounting and the client's clock disagree.
struct PassSpans {
  std::vector<double> wait_ms;  // nominal phase, per answered request
  std::size_t recorded = 0;     // answered open-loop requests
  std::size_t overruns = 0;
  double sample_latency_ms = 0.0;
  double sample_self_sum_ms = 0.0;
};

PassSpans record_pass_spans(const Pass& pass, const Inputs& in,
                            const std::map<std::size_t, double>& wire_by_family,
                            double wire_fallback_ms, SpanRecorder& spans) {
  PassSpans out;
  std::vector<std::int64_t> in_flight_spans;
  std::vector<std::pair<double, std::int64_t>> nominal_roots;  // (lat, root)
  const auto record = [&](const Slot& slot, bool nominal) {
    const Base& base = in.bases[in.templates[slot.item].base];
    const std::int64_t root =
        spans.add("request", slot.id, -1, slot.due, slot.recv);
    spans.add("client.pacing", slot.id, root, slot.due, slot.sent);
    const std::int64_t flight =
        spans.add("client.in_flight", slot.id, root, slot.sent, slot.recv);
    const auto wire_it = wire_by_family.find(base.family);
    const double wire_ms =
        wire_it != wire_by_family.end() ? wire_it->second : wire_fallback_ms;
    double at = spans.offset_us(slot.sent);
    spans.add("server.wire", slot.id, flight, at, at + 1000.0 * wire_ms);
    at += 1000.0 * wire_ms;
    for (std::size_t s = 0; s < stage_names().size(); ++s) {
      if (!slot.stats.stages[s].ran) continue;
      const double dur = 1000.0 * slot.stats.stages[s].ms;
      spans.add("engine.stage." + stage_names()[s], slot.id, flight, at,
                at + dur);
      at += dur;
    }
    ++out.recorded;
    if (at > spans.offset_us(slot.recv)) ++out.overruns;
    spans.add("client.parse", slot.id, -1, slot.recv, slot.parsed);
    if (nominal) {
      in_flight_spans.push_back(flight);
      nominal_roots.emplace_back(ms_between(slot.due, slot.recv), root);
    }
  };
  for (const std::vector<PhaseResult>* phases : {&pass.nominal, &pass.high}) {
    for (const PhaseResult& phase : *phases) {
      for (const Slot& slot : phase.slots) {
        if (slot.answered) record(slot, phases == &pass.nominal);
      }
    }
  }
  const std::vector<double> self = spans.self_times_us();
  for (std::int64_t f : in_flight_spans) {
    out.wait_ms.push_back(self[static_cast<std::size_t>(f)] / 1000.0);
  }
  if (!nominal_roots.empty()) {
    std::nth_element(nominal_roots.begin(),
                     nominal_roots.begin() + nominal_roots.size() / 2,
                     nominal_roots.end());
    const auto [latency, root] = nominal_roots[nominal_roots.size() / 2];
    out.sample_latency_ms = latency;
    // The root's subtree: the root and every span whose chain leads to it.
    const auto& all = spans.spans();
    for (std::size_t i = static_cast<std::size_t>(root); i < all.size(); ++i) {
      std::int64_t up = static_cast<std::int64_t>(i);
      while (up >= 0 && up != root) up = all[static_cast<std::size_t>(up)].parent;
      if (up == root) out.sample_self_sum_ms += self[i] / 1000.0;
      if (i > static_cast<std::size_t>(root) && all[i].parent < 0 &&
          all[i].name == "request") {
        break;
      }
    }
  }
  return out;
}

/// How late the pacing sender ran: p99 over both open-loop phases.
double gen_lag_p99(const Pass& pass) {
  std::vector<double> lag;
  for (const std::vector<PhaseResult>* phases : {&pass.nominal, &pass.high}) {
    for (const PhaseResult& phase : *phases) {
      lag.insert(lag.end(), phase.gen_lag_ms.begin(), phase.gen_lag_ms.end());
    }
  }
  return quantile(std::move(lag), 0.99);
}

/// Marks the run invalid when a pass's generator lag is over the limit.
void check_gen_lag(const Pass& pass, RunReport& report) {
  const double lag = gen_lag_p99(pass);
  if (lag > kMaxGenLagP99Ms && report.invalid.empty()) {
    report.invalid = "bench.gen_lag_p99_ms " + std::to_string(lag) +
                     " over its limit " + std::to_string(kMaxGenLagP99Ms);
  }
}

}  // namespace

RunReport run_serve(const RunOptions& options, bool cold) {
  RunReport report;
  const Shape shape = cold ? cold_shape() : hits_shape();
  const std::size_t passes = options.trace ? 2 : 1;
  Inputs in = make_inputs(shape, cold, options, passes);
  const std::string ref_error =
      compute_references(in.bases, std::min<std::size_t>(
                                       4, std::thread::hardware_concurrency()));
  if (!ref_error.empty()) {
    report.fail(ref_error);
    return report;
  }
  if (options.corrupt_reference) corrupt_reference(in.bases.front());
  std::printf("%s: %zu distinct instances, %zu frame templates, seed %llu\n",
              options.workload.c_str(), in.bases.size(), in.templates.size(),
              static_cast<unsigned long long>(options.seed));

  // Set-up, several times: Server construction and start (with a fresh
  // store for serve_cold), client connections, and the untimed warm-up fill.
  std::vector<double> setup_s;
  std::unique_ptr<serve::Server> server;
  std::unique_ptr<LoadClient> client;
  std::vector<std::string> stores;
  for (std::size_t r = 0; r < kSetupRepeats; ++r) {
    if (server != nullptr) {
      client->close();
      server->drain();
      server.reset();
    }
    serve::ServerOptions sopt;
    sopt.shards = kShards;
    if (cold) {
      stores.push_back(store_path(options, std::to_string(r)));
      std::remove(stores.back().c_str());
      sopt.store_path = stores.back();
      sopt.store_spill_min_ms = 0.0;  // spill every solve
    }
    const auto t0 = Clock::now();
    server = std::make_unique<serve::Server>(sopt);
    std::string error;
    client = std::make_unique<LoadClient>(in.templates, in.bases);
    if (!server->start(&error) ||
        !client->connect(server->port(), kConnections, &error)) {
      report.fail("server set-up: " + error);
      return report;
    }
    const PhaseResult warm = client->closed_loop(in.warm, kWindow, 60.0, false);
    setup_s.push_back(ms_between(t0, Clock::now()) / 1000.0);
    count(warm, report);
  }

  std::vector<Pass> results;
  // Reference-work samples on a thread of its own for as long as the timed
  // passes last; every phase is adjusted by the host speed they saw.
  auto probe =
      std::make_unique<HostSpeedProbe>(kProbePeriodMs, kProbeReferenceMs);
  for (std::size_t p = 0; p < passes; ++p) {
    const bool traced = options.trace && p == passes - 1;
    results.push_back(
        run_pass(*client, &in.rounds[p * kRounds], traced, *probe));
    check_gen_lag(results.back(), report);
    for (const auto* phases : {&results.back().saturation,
                               &results.back().nominal, &results.back().high}) {
      for (const PhaseResult& phase : *phases) count(phase, report);
    }
  }
  probe.reset();
  std::string error;
  const auto stats = LoadClient::fetch_stats(server->port(), &error);
  if (!stats.has_value()) report.fail("stats frame: " + error);
  client->close();
  server->drain();
  server.reset();

  std::printf("end-to-end (%s pass):\n", options.trace ? "untraced" : "timed");
  Metrics e2e = end_to_end(results.front(), shape);
  e2e["setup_s"] = {quantile(setup_s, 0.5), "s"};
  std::printf("  setup_s over %zu set-ups: min %.6f median %.6f max %.6f\n",
              setup_s.size(), *std::min_element(setup_s.begin(), setup_s.end()),
              e2e["setup_s"].value,
              *std::max_element(setup_s.begin(), setup_s.end()));
  std::printf("  bench.gen_lag_p99_ms %.4f (generator health)\n",
              gen_lag_p99(results.front()));

  if (!options.trace) {
    report.metrics = std::move(e2e);
    report.metrics["peak_rss_mb"] = {peak_rss_mb(), "MiB"};
    for (const std::string& path : stores) std::remove(path.c_str());
    return report;
  }

  // ---- traced run: replay, spans, per-layer metrics ----
  const Pass& traced = results.back();
  Metrics& m = report.metrics;
  std::printf("end-to-end (traced pass):\n");
  const Metrics e2e_traced = end_to_end(traced, shape);
  for (const auto& [name, metric] : e2e_traced) {
    m["trace.overhead." + name] = {metric.value - e2e.at(name).value,
                                   metric.unit};
  }

  SpanRecorder spans(traced.nominal.front().start);
  std::vector<ReplayFrame> frames;
  for (const Slot& slot : traced.nominal.front().slots) {
    if (frames.size() >= shape.replayed) break;
    std::string text = in.templates[slot.item].with_id(slot.id);
    text.pop_back();  // the newline is framing, not frame
    frames.push_back({in.templates[slot.item].base, std::move(text)});
  }
  // Store reads replay the records of the replayed requests: on serve_cold
  // the server's own store after it drained, on serve_hits (whose server
  // has no store) the store the replay engine's warm-up fill spilled to.
  std::vector<Base> replayed_bases;
  for (const ReplayFrame& f : frames) replayed_bases.push_back(in.bases[f.base]);
  ReplayResult replayed;
  StoreReads reads;
  {
    engine::EngineOptions eopt;
    eopt.threads = 1;
    const std::string engine_store = store_path(options, "replay");
    const std::string append_path = store_path(options, "append");
    std::remove(engine_store.c_str());
    std::remove(append_path.c_str());
    eopt.store_path = engine_store;
    eopt.store_spill_min_ms = 0.0;
    auto append_store =
        gapsched::store::DiskStore::open(append_path, {}, &error);
    if (append_store == nullptr) report.fail("append store: " + error);
    engine::Engine eng(eopt);
    if (!cold) {
      // Same cache state as the server after its warm-up fill.
      for (std::size_t w : in.warm) {
        static_cast<void>(eng.solve(in.bases[in.templates[w].base].solver,
                                    in.bases[in.templates[w].base].request));
      }
    }
    replayed = replay(eng, frames, in.bases, spans, append_store.get());
    eng.flush_store();
    append_store.reset();
    reads = replay_store_reads(cold ? stores.back() : engine_store,
                               replayed_bases, 5, spans);
    std::remove(engine_store.c_str());
    std::remove(append_path.c_str());
  }
  if (reads.found < reads.probed) {
    report.fail("store.load found " + std::to_string(reads.found) + " of " +
                std::to_string(reads.probed) + " records");
  }
  report.attempted += replayed.replayed;
  report.failed += replayed.failed;
  if (report.first_error.empty()) report.first_error = replayed.first_error;

  std::map<std::size_t, std::pair<double, std::size_t>> wire_acc;
  double wire_sum = 0.0;
  for (const auto& [base, ms] : replayed.wire_ms) {
    auto& acc = wire_acc[in.bases[base].family];
    acc.first += ms;
    ++acc.second;
    wire_sum += ms;
  }
  std::map<std::size_t, double> wire_by_family;
  for (const auto& [family, acc] : wire_acc) {
    wire_by_family[family] = acc.first / static_cast<double>(acc.second);
  }
  const double wire_fallback =
      replayed.wire_ms.empty()
          ? 0.0
          : wire_sum / static_cast<double>(replayed.wire_ms.size());
  const PassSpans pass_spans =
      record_pass_spans(traced, in, wire_by_family, wire_fallback, spans);

  std::printf("per-layer:\n");
  emit_replay_metrics(spans, m);
  AnswerTally tally;
  double request_bytes = 0.0;
  double result_bytes = 0.0;
  for (const std::vector<PhaseResult>* phases :
       {&traced.saturation, &traced.nominal, &traced.high}) {
    for (const PhaseResult& phase : *phases) {
      for (const Slot& slot : phase.slots) {
        if (!slot.answered) continue;
        const FrameTemplate& t = in.templates[slot.item];
        tally.add(slot.stats, in.bases[t.base].solver);
        request_bytes += static_cast<double>(t.head.size() + t.tail.size());
        result_bytes += static_cast<double>(slot.result_bytes);
      }
    }
  }
  tally.emit(m);
  const double answers = static_cast<double>(std::max<std::size_t>(1, tally.answers()));
  m["io.request_bytes"] = {request_bytes / answers, "bytes"};
  m["io.result_bytes"] = {result_bytes / answers, "bytes"};

  m["serve.wait_ms.p50"] = {quantile(pass_spans.wait_ms, 0.50), "ms"};
  m["serve.wait_ms.p99"] = {quantile(pass_spans.wait_ms, 0.99), "ms"};
  double busiest = 0.0;
  double total = 0.0;
  if (stats.has_value()) {
    for (const auto& shard : stats->shards) {
      busiest = std::max(busiest, static_cast<double>(shard.requests));
      total += static_cast<double>(shard.requests);
    }
  }
  m["serve.shard_max_share"] = {ratio("serve.shard_max_share", busiest, total),
                                "1"};
  const auto cache = stats.has_value() ? stats->cache : engine::CacheStats{};
  m["store.disk_hit_ratio"] = {
      ratio("store.disk_hit_ratio", static_cast<double>(cache.disk_hits),
            static_cast<double>(cache.misses)),
      "1"};
  m["store.spilled"] = {static_cast<double>(cache.spilled), "count"};
  double file_bytes = 0.0;
  if (cold) {
    if (std::FILE* f = std::fopen(stores.back().c_str(), "rb")) {
      std::fseek(f, 0, SEEK_END);
      file_bytes = static_cast<double>(std::ftell(f));
      std::fclose(f);
    }
  }
  m["store.file_bytes"] = {file_bytes, "bytes"};

  m["bench.gen_lag_p99_ms"] = {gen_lag_p99(traced), "ms"};
  m["trace.sample_latency_ms"] = {pass_spans.sample_latency_ms, "ms"};
  m["trace.sample_self_sum_ms"] = {pass_spans.sample_self_sum_ms, "ms"};
  m["trace.overrun_frac"] = {
      ratio("trace.overrun_frac", static_cast<double>(pass_spans.overruns),
            static_cast<double>(pass_spans.recorded)),
      "1"};
  std::printf(
      "  sampled request (median nominal latency): latency %.4f ms, span "
      "self times sum %.4f ms (equal by construction), tracing overhead on "
      "p50 %.4f ms\n",
      pass_spans.sample_latency_ms, pass_spans.sample_self_sum_ms,
      m["trace.overhead.latency_p50_ms"].value);

  const std::string span_log = options.work_dir + "/trace-" + options.workload +
                               "-" + std::to_string(options.seed) + ".ndjson";
  if (spans.write_ndjson(span_log)) {
    std::printf("  %zu spans written to %s\n", spans.spans().size(),
                span_log.c_str());
  }
  for (const std::string& path : stores) std::remove(path.c_str());
  return report;
}

}  // namespace perfbench
