// Command-line front end of the solver engine: every algorithm family is
// reached through a persistent gapsched::engine::Engine (registry + solve
// cache + pipeline stats), never by hand-wired calls.
//
//   $ ./solver_cli --list                        # enumerate the registry
//   $ ./solver_cli gap_dp instance.txt           # Theorem 1 exact
//   $ ./solver_cli power_dp --alpha 2.5 instance.txt
//   $ ./solver_cli powermin_approx --alpha 2.5 instance.txt
//   $ ./solver_cli fhkn_greedy instance.txt
//   $ ./solver_cli restart_greedy --spans 3 instance.txt
//   $ ./solver_cli gap_dp --json scenario:sparse_spread:7   # io/json codec
//
// Legacy spellings (gaps / power / power-approx / greedy / throughput) are
// kept as aliases of the registry names.
//
// Default output: the objective value, a Gantt chart, metrics, and the
// schedule in the io/serialize.hpp text format. With --json, the result is
// emitted as the io/json.hpp response document instead (machine-readable;
// stdout carries only the JSON). --cache-stats prints the engine's solve-
// cache hit/miss tallies to stderr at exit.
//
// With --connect host:port the request is not solved in-process: it is
// framed through serve/protocol.hpp, sent to a running gapsched_serve, and
// the streamed result frame is rendered exactly like a local solve. In that
// mode --cache-stats prints the SERVER's stats frame (same codec).
//
// Exit codes: 0 solved; 1 infeasible; 2 bad usage / rejected request;
// 3 oracle refuted the answer (--validate); 4 the solve exceeded
// --time-limit (the answer is printed but must be treated as advisory);
// 5 client transport failure under --connect (connection refused, server
// closed early, or a malformed frame — the request's outcome is unknown).

#include <fstream>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "gapsched/engine/engine.hpp"
#include "gapsched/io/json.hpp"
#include "gapsched/io/render.hpp"
#include "gapsched/io/serialize.hpp"
#include "gapsched/scenarios/scenarios.hpp"
#include "gapsched/serve/protocol.hpp"
#include "gapsched/util/table.hpp"

using namespace gapsched;

namespace {

int usage() {
  std::cerr << "usage: solver_cli --list | --scenarios\n"
            << "       solver_cli <solver> [options] <instance>\n"
            << "instance: a file in the io/serialize.hpp format, or\n"
            << "          scenario:<name>[:<seed>] from the scenario catalog\n"
            << "options:\n"
            << "  --alpha <a>      wake-up cost (power solvers; default 2)\n"
            << "  --spans <k>      span budget (throughput solvers)\n"
            << "  --threshold <t>  idle threshold (online_powerdown)\n"
            << "  --swap <s>       set-packing swap size (powermin_approx)\n"
            << "  --block <k>      Lemma 5 block size (powermin_approx)\n"
            << "  --validate       re-check the answer with the independent\n"
            << "                   schedule oracle (any solver; exit 3 on a\n"
            << "                   refuted answer)\n"
            << "  --no-decompose   skip the prep pipeline that splits far-\n"
            << "                   apart job clusters into independent\n"
            << "                   components (exact gap/power solvers;\n"
            << "                   decomposition is on by default)\n"
            << "  --no-compress    keep interior dead runs at full length\n"
            << "                   instead of the pipeline's length-aware\n"
            << "                   compression (1 unit for gap solves,\n"
            << "                   ceil(alpha)+1 for power solves)\n"
            << "  --time-limit <s> advisory wall-clock budget in seconds;\n"
            << "                   exit 4 when the solve ran longer\n"
            << "  --json           emit the result as the io/json.hpp JSON\n"
            << "                   response document (machine-readable)\n"
            << "  --cache-stats    print the engine's solve-cache tallies\n"
            << "                   and the per-stage pipeline counters as\n"
            << "                   io/json.hpp stats documents on stderr\n"
            << "                   (the same codec as the server's stats\n"
            << "                   frame); under --connect, prints the\n"
            << "                   server's stats frame instead\n"
            << "  --store <path>   persistent on-disk solve store (created\n"
            << "                   if missing), shared with other CLI runs\n"
            << "                   and gapsched_serve --store; every loaded\n"
            << "                   entry is re-audited by the oracle before\n"
            << "                   it may serve\n"
            << "  --spill-min-ms <x> only persist solves that took >= x ms\n"
            << "                   (default 0.1)\n"
            << "  --store-max-bytes <n> store size budget; compaction keeps\n"
            << "                   the most expensive entries\n"
            << "  --warm <specs>   no single instance: pre-solve a comma-\n"
            << "                   separated list of instance specs (files\n"
            << "                   or scenario:<name>[:<seed>]; the word\n"
            << "                   'catalog' expands to every static\n"
            << "                   catalog scenario) into the --store,\n"
            << "                   validating each answer; exit 3 if any\n"
            << "                   is refuted\n"
            << "  --connect <h:p>  do not solve locally: send the request\n"
            << "                   to a running gapsched_serve at host:port\n"
            << "                   over the NDJSON frame protocol and\n"
            << "                   render its streamed result frame\n"
            << "exit codes:\n"
            << "  0  solved\n"
            << "  1  infeasible (or the instance could not be loaded)\n"
            << "  2  bad usage, unknown solver, or the engine rejected the\n"
            << "     request (outside the solver's envelope)\n"
            << "  3  the independent oracle REFUTED the answer under\n"
            << "     --validate (a solver bug, not a bad request)\n"
            << "  4  the solve exceeded --time-limit; the printed answer\n"
            << "     is advisory\n"
            << "  5  --connect transport failure: connection refused, the\n"
            << "     server closed before answering, or a malformed frame\n"
            << "     arrived (the request's outcome is unknown)\n"
            << "run 'solver_cli --list' for the registered solvers and\n"
            << "'solver_cli --scenarios' for the named workload families\n";
  return 2;
}

int list_solvers(const engine::Engine& eng) {
  Table table({"solver", "objective", "exact", "paper", "complexity",
               "summary"});
  for (const engine::Solver* solver : eng.registry().all()) {
    const engine::SolverInfo& info = solver->info();
    table.row()
        .add(info.name)
        .add(std::string(engine::to_string(info.objective)))
        .add(info.exact ? "yes" : "no")
        .add(info.paper_ref)
        .add(info.complexity)
        .add(info.summary);
  }
  table.print(std::cout);
  return 0;
}

int list_scenarios() {
  Table table({"scenario", "jobs", "p", "shape", "guarantee", "summary"});
  for (const scenarios::Scenario* s :
       scenarios::ScenarioCatalog::instance().all()) {
    table.row()
        .add(s->name)
        .add(s->jobs)
        .add(s->processors)
        .add(s->one_interval ? "one-interval" : "multi-interval")
        .add(s->always_feasible
                 ? "feasible"
                 : (s->always_infeasible ? "infeasible" : "either"))
        .add(s->summary);
  }
  table.print(std::cout);
  std::cout << "\nwrapper: scenario:stretched:<k>:<name>[:<seed>] dilates "
               "every interior dead run of length >= "
            << scenarios::kStretchMinRun << " by k\n";
  return 0;
}

/// Maps the pre-engine CLI verbs onto registry names.
std::string canonical_name(const std::string& mode) {
  if (mode == "gaps") return "gap_dp";
  if (mode == "power") return "power_dp";
  if (mode == "power-approx") return "powermin_approx";
  if (mode == "greedy") return "fhkn_greedy";
  if (mode == "throughput") return "restart_greedy";
  return mode;
}

std::optional<Instance> load(const std::string& path) {
  // scenario:<name>[:<seed>] draws from the catalog instead of a file.
  // Wrapper names contain colons of their own (stretched:<k>:<base>), so
  // the seed is the LAST segment, and only when it is all digits.
  if (path.rfind("scenario:", 0) == 0) {
    std::string spec = path.substr(9);
    std::uint64_t seed = 1;
    if (const auto colon = spec.rfind(':'); colon != std::string::npos) {
      const std::string tail = spec.substr(colon + 1);
      const bool numeric =
          !tail.empty() && tail.find_first_not_of("0123456789") ==
                               std::string::npos;
      if (numeric) {
        try {
          seed = std::stoull(tail);
        } catch (const std::exception&) {
          std::cerr << "bad scenario seed in '" << path << "'\n";
          return std::nullopt;
        }
        spec.resize(colon);
      }
    }
    auto inst = scenarios::make_scenario(spec, seed);
    if (!inst) {
      std::cerr << "unknown scenario '" << spec
                << "' (see solver_cli --scenarios)\n";
    }
    return inst;
  }
  std::ifstream is(path);
  if (!is) {
    std::cerr << "cannot open " << path << "\n";
    return std::nullopt;
  }
  std::string error;
  auto inst = read_instance(is, &error);
  if (!inst) std::cerr << "parse error: " << error << "\n";
  return inst;
}

void print_cache_stats(const engine::Engine& eng,
                       const engine::pipeline::PipelineStats& solved) {
  // The same stats codec the server's `stats` frame uses: a cache_stats
  // document and a pipeline_stats document (the roll-up of this run's
  // results), both from io/json.hpp.
  std::cerr << io::cache_stats_to_json(eng.cache_stats()) << "\n"
            << io::pipeline_stats_to_json(solved) << "\n";
}

/// Solves over the wire against a running gapsched_serve. Returns 0 with
/// *result filled from the server's result frame, 2 when the server
/// answered with an error frame (rejection), or 5 on transport failure —
/// connection refused, early close, or a malformed frame.
int remote_solve(const std::string& spec, const std::string& solver,
                 const engine::SolveRequest& request, bool want_stats,
                 engine::SolveResult* result) {
  std::string host;
  int port = 0;
  if (!serve::parse_host_port(spec, &host, &port)) {
    std::cerr << "--connect expects host:port, got '" << spec << "'\n";
    return 2;
  }
  std::string error;
  auto channel = serve::ClientChannel::dial(host, port, &error);
  if (!channel.has_value()) {
    std::cerr << "connect to " << spec << " failed: " << error
              << " (is gapsched_serve running there?)\n";
    return 5;
  }
  constexpr std::int64_t kId = 1;
  if (!channel->send(serve::request_frame(kId, solver, request), &error)) {
    std::cerr << "send to " << spec << " failed: " << error << "\n";
    return 5;
  }
  bool have_result = false;
  bool have_stats = !want_stats;
  while (!have_result || !have_stats) {
    const auto line = channel->next_frame(&error);
    if (!line.has_value()) {
      std::cerr << (error.empty()
                        ? "server closed the connection before answering"
                        : "recv from " + spec + " failed: " + error)
                << "\n";
      return 5;
    }
    std::string parse_error;
    const auto head = io::frame_head_from_json(*line, &parse_error);
    if (!head.has_value()) {
      std::cerr << "malformed frame from server: " << parse_error << "\n";
      return 5;
    }
    if (head->frame == "hello") continue;
    if (head->frame == "error") {
      std::cerr << "server rejected the request: " << head->message << "\n";
      return 2;
    }
    if (head->frame == "result" && head->id == kId) {
      auto parsed = io::result_from_json(*line, &parse_error);
      if (!parsed.has_value()) {
        std::cerr << "malformed result frame: " << parse_error << "\n";
        return 5;
      }
      *result = std::move(*parsed);
      have_result = true;
      // The server answers a stats frame at once, so ask only now that
      // the tallies include this request.
      if (want_stats && !channel->send(serve::stats_request_frame(), &error)) {
        std::cerr << "send to " << spec << " failed: " << error << "\n";
        return 5;
      }
      continue;
    }
    if (head->frame == "stats") {
      // Relay the server's stats frame body verbatim — one codec both ways.
      std::cerr << *line << "\n";
      have_stats = true;
      continue;
    }
    std::cerr << "unexpected frame '" << head->frame << "' from server\n";
    return 5;
  }
  return 0;
}

/// Cache-warming mode: pre-solves a comma-separated list of instance specs
/// into the engine's persistent store, oracle-validating every answer, and
/// blocks until the write-behind spills are durable. A later process (CLI
/// or server) opening the same store starts warm. Every result is folded
/// into *solved.
int warm_store(engine::Engine& eng, const engine::Solver& solver,
               const engine::SolveRequest& base, const std::string& spec_list,
               engine::pipeline::PipelineStats* solved) {
  std::vector<std::string> specs;
  std::size_t begin = 0;
  while (begin <= spec_list.size()) {
    const std::size_t comma = spec_list.find(',', begin);
    const std::string token = spec_list.substr(
        begin, comma == std::string::npos ? std::string::npos : comma - begin);
    begin = comma == std::string::npos ? spec_list.size() + 1 : comma + 1;
    if (token.empty()) continue;
    if (token == "catalog") {
      for (const scenarios::Scenario* s :
           scenarios::ScenarioCatalog::instance().all()) {
        specs.push_back("scenario:" + s->name);
      }
    } else {
      specs.push_back(token);
    }
  }
  if (specs.empty()) {
    std::cerr << "--warm needs at least one instance spec\n";
    return 2;
  }
  for (const std::string& spec : specs) {
    auto inst = load(spec);
    if (!inst) return 2;
    engine::SolveRequest req = base;
    req.instance = std::move(*inst);
    req.params.validate = true;  // a warmed entry must enter oracle-clean
    const engine::SolveResult result = eng.solve(solver, req);
    solved->absorb(result);
    if (result.audited && !result.audit_error.empty()) {
      std::cerr << "warm " << spec
                << ": oracle REFUTED the answer: " << result.audit_error
                << "\n";
      return 3;
    }
    if (!result.ok) {
      // Outside this solver's envelope: skipped, not fatal — a catalog
      // sweep legitimately crosses objectives and size limits.
      std::cout << "warm " << spec << ": rejected (" << result.error << ")\n";
      continue;
    }
    std::cout << "warm " << spec << ": "
              << (result.feasible ? "cost " + std::to_string(result.cost)
                                  : std::string("infeasible"))
              << "  [" << result.stats.wall_ms << " ms]\n";
  }
  eng.flush_store();
  const engine::CacheStats stats = eng.cache_stats();
  std::cout << "warmed " << specs.size() << " spec(s): " << solved->feasible
            << " feasible, "
            << solved->requests - solved->rejected - solved->feasible
            << " infeasible, " << solved->rejected << " rejected; "
            << stats.spilled << " spilled, " << stats.disk_entries
            << " record(s) in the store\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> args(argv + 1, argv + argc);
  if (args.empty()) return usage();
  if (args[0] == "--list" || args[0] == "list") {
    return list_solvers(engine::Engine{});
  }
  if (args[0] == "--scenarios" || args[0] == "scenarios") {
    return list_scenarios();
  }
  if (args.size() < 2) return usage();

  engine::SolveRequest request;
  engine::EngineOptions eng_options;
  bool emit_json = false;
  bool cache_stats = false;
  std::string connect_spec;
  std::string warm_spec;
  // Flags may appear anywhere; non-flag arguments are collected and
  // resolved afterwards so the legacy "power <alpha> <file>" and
  // "throughput <k> <file>" spellings still work.
  std::vector<std::string> positionals;
  std::vector<std::string> flags_seen;
  for (std::size_t i = 1; i < args.size(); ++i) {
    const std::string& arg = args[i];
    if (!arg.empty() && arg[0] == '-') flags_seen.push_back(arg);
    auto value = [&]() -> std::optional<std::string> {
      if (i + 1 >= args.size()) return std::nullopt;
      return args[++i];
    };
    try {
      if (arg == "--alpha") {
        auto v = value();
        if (!v) return usage();
        request.params.alpha = std::stod(*v);
      } else if (arg == "--spans") {
        auto v = value();
        if (!v) return usage();
        request.params.max_spans = std::stoul(*v);
      } else if (arg == "--threshold") {
        auto v = value();
        if (!v) return usage();
        request.params.powerdown_threshold = std::stod(*v);
      } else if (arg == "--swap") {
        auto v = value();
        if (!v) return usage();
        request.params.swap_size = std::stoi(*v);
      } else if (arg == "--block") {
        auto v = value();
        if (!v) return usage();
        request.params.block_size = std::stoi(*v);
      } else if (arg == "--time-limit") {
        auto v = value();
        if (!v) return usage();
        request.params.time_limit_s = std::stod(*v);
        if (request.params.time_limit_s < 0.0) {
          std::cerr << "--time-limit must be >= 0 (0 = unlimited)\n";
          return 2;
        }
      } else if (arg == "--validate") {
        request.params.validate = true;
      } else if (arg == "--no-decompose") {
        request.params.decompose = false;
      } else if (arg == "--no-compress") {
        request.params.compress = false;
      } else if (arg == "--json") {
        emit_json = true;
      } else if (arg == "--cache-stats") {
        cache_stats = true;
      } else if (arg == "--connect") {
        auto v = value();
        if (!v) return usage();
        connect_spec = *v;
      } else if (arg == "--store") {
        auto v = value();
        if (!v) return usage();
        eng_options.store_path = *v;
      } else if (arg == "--spill-min-ms") {
        auto v = value();
        if (!v) return usage();
        eng_options.store_spill_min_ms = std::stod(*v);
      } else if (arg == "--store-max-bytes") {
        auto v = value();
        if (!v) return usage();
        eng_options.store_max_bytes = std::stoul(*v);
      } else if (arg == "--warm") {
        auto v = value();
        if (!v) return usage();
        warm_spec = *v;
      } else if (!arg.empty() && arg[0] == '-') {
        std::cerr << "unknown option '" << arg << "'\n";
        return usage();
      } else {
        positionals.push_back(arg);
      }
    } catch (const std::exception&) {
      std::cerr << "bad numeric argument near '" << arg << "'\n";
      return 2;
    }
  }
  // The store and warming are local-engine concerns; combining them with a
  // remote solve would silently create and populate a file the remote
  // server never sees. Checked before the Engine exists (constructing it
  // would already create the store file).
  if (!connect_spec.empty() &&
      (!eng_options.store_path.empty() || !warm_spec.empty())) {
    std::cerr << "--store/--warm are local; with --connect, start the server "
                 "with gapsched_serve --store instead\n";
    return 2;
  }
  if (!warm_spec.empty() && eng_options.store_path.empty()) {
    std::cerr << "--warm populates a persistent store; add --store <path>\n";
    return 2;
  }

  // One persistent engine for the whole invocation: registry, solve cache,
  // and (with --store) the persistent disk tier.
  engine::Engine eng(eng_options);
  if (!eng_options.store_path.empty() && eng.store() == nullptr) {
    // A corrupt or foreign store file costs persistence, never the solve.
    std::cerr << "warning: running without the store: " << eng.store_error()
              << "\n";
  }
  const std::string name = canonical_name(args[0]);
  const engine::Solver* solver = eng.registry().find(name);
  if (solver == nullptr) {
    std::cerr << "unknown solver '" << args[0] << "' (see solver_cli --list)\n";
    return 2;
  }
  request.objective = solver->info().objective;

  // A flag the selected solver does not consume (per its SolverInfo::params
  // declaration) is an error, not a silent no-op.
  const unsigned consumed = solver->info().params;
  for (const std::string& flag : flags_seen) {
    bool applies = false;
    if (flag == "--validate" || flag == "--json" || flag == "--cache-stats" ||
        flag == "--time-limit" || flag == "--connect" || flag == "--store" ||
        flag == "--spill-min-ms" || flag == "--store-max-bytes" ||
        flag == "--warm") {
      applies = true;  // engine-level concerns, meaningful for every family
    } else if (flag == "--no-decompose" || flag == "--no-compress") {
      // Only the exact gap/power families consume these flags, but clearing
      // a default-on optimization is never a surprising no-op — accept them
      // everywhere like --validate.
      applies = true;
    } else if (flag == "--alpha") {
      applies = (consumed & engine::kUsesAlpha) != 0;
    } else if (flag == "--spans") {
      applies = (consumed & engine::kUsesMaxSpans) != 0;
    } else if (flag == "--threshold") {
      applies = (consumed & engine::kUsesThreshold) != 0;
    } else if (flag == "--swap" || flag == "--block") {
      applies = (consumed & engine::kUsesPacking) != 0;
    }
    if (!applies) {
      std::cerr << "option '" << flag << "' does not apply to solver '"
                << name << "'\n";
      return usage();
    }
  }
  if (!warm_spec.empty()) {
    if (!positionals.empty()) {
      std::cerr << "--warm takes its instances from its own spec list; "
                   "unexpected argument '"
                << positionals.front() << "'\n";
      return 2;
    }
    engine::pipeline::PipelineStats solved;
    const int rc = warm_store(eng, *solver, request, warm_spec, &solved);
    if (cache_stats) print_cache_stats(eng, solved);
    return rc;
  }
  if (positionals.empty() || positionals.size() > 2) return usage();
  const std::string file = positionals.back();
  if (positionals.size() == 2) {
    // Legacy positional parameter before the file name; only the power and
    // throughput verbs ever had one, anything else is a stray argument and
    // an error (not silently ignored).
    const std::string& param = positionals.front();
    try {
      if (request.objective == engine::Objective::kPower) {
        request.params.alpha = std::stod(param);
      } else if (request.objective == engine::Objective::kThroughput) {
        request.params.max_spans = std::stoul(param);
      } else {
        std::cerr << "unexpected argument '" << param << "'\n";
        return usage();
      }
    } catch (const std::exception&) {
      std::cerr << "bad numeric argument near '" << param << "'\n";
      return 2;
    }
  }

  auto inst = load(file);
  if (!inst) return 1;
  request.instance = std::move(*inst);

  engine::SolveResult result;
  if (connect_spec.empty()) {
    result = eng.solve(*solver, request);
    // Make the write-behind spill durable before reporting stats (and
    // before exit hands the store file to the next process).
    eng.flush_store();
    if (cache_stats) {
      engine::pipeline::PipelineStats solved;
      solved.absorb(result);
      print_cache_stats(eng, solved);
    }
  } else {
    const int rc = remote_solve(connect_spec, name, request, cache_stats,
                                &result);
    if (rc != 0) return rc;
  }

  // Machine-readable mode: the response document is the whole stdout.
  if (emit_json) std::cout << io::result_to_json(result) << "\n";

  if (!result.ok) {
    std::cerr << "rejected: " << result.error << "\n";
    return 2;
  }
  if (result.audited && !result.audit_error.empty()) {
    std::cerr << "oracle REFUTED the answer: " << result.audit_error << "\n";
    return 3;
  }
  if (result.timed_out) {
    std::cerr << "time limit exceeded (" << result.stats.wall_ms << " ms > "
              << request.params.time_limit_s * 1e3
              << " ms); treat the answer as advisory\n";
  }
  if (!result.feasible) {
    if (!emit_json) std::cout << "infeasible\n";
    return result.timed_out ? 4 : 1;
  }
  if (emit_json) return result.timed_out ? 4 : 0;

  const engine::SolverInfo& info = solver->info();
  std::cout << info.name << " (" << engine::to_string(info.objective)
            << (info.exact ? ", exact" : ", heuristic") << "): cost "
            << result.cost;
  if (request.objective == engine::Objective::kThroughput) {
    std::cout << " of " << request.instance.n() << " jobs in "
              << result.transitions << " span(s)";
  }
  std::cout << "  [" << result.stats.wall_ms << " ms]\n";
  if (result.stats.components > 1 || result.stats.dead_time_removed > 0) {
    std::cout << "prep: solved as " << result.stats.components
              << " independent component(s)";
    if (result.stats.components_deduped > 0) {
      std::cout << " (" << result.stats.components_deduped
                << " deduplicated as identical)";
    }
    if (result.stats.dead_time_removed > 0) {
      std::cout << ", " << result.stats.dead_time_removed
                << " dead time unit(s) compressed away";
    }
    std::cout << "\n";
  }
  std::cout << render_gantt(request.instance, result.schedule);
  // The metrics line reports power at the requested alpha for power solves
  // and at alpha = 1 otherwise, matching the pre-engine CLI's output.
  const double report_alpha = request.objective == engine::Objective::kPower
                                  ? request.params.alpha
                                  : 1.0;
  std::cout << describe_schedule(result.schedule, report_alpha) << "\n";
  if (result.audited) {
    std::cout << "oracle: schedule and cost independently verified\n";
  }
  std::cout << "\n";
  write_schedule(std::cout, result.schedule);
  return result.timed_out ? 4 : 0;
}
