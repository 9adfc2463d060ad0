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
// Options (one row each in kFlags) and exit codes: usage() below, which
// runs when solver_cli is given no arguments.

#include <fstream>
#include <iostream>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "gapsched/engine/engine.hpp"
#include "gapsched/io/json.hpp"
#include "gapsched/io/render.hpp"
#include "gapsched/io/serialize.hpp"
#include "gapsched/scenarios/scenarios.hpp"
#include "gapsched/serve/protocol.hpp"
#include "gapsched/util/flags.hpp"
#include "gapsched/util/table.hpp"

using namespace gapsched;

namespace {

/// Everything solver_cli's options set.
struct Cli {
  engine::SolveParams params;
  engine::EngineOptions engine;
  bool json = false;
  bool cache_stats = false;
  std::string connect;
  std::string warm;
};

using Value = std::string_view;
using enum engine::ParamFlag;

/// solver_cli's options. `needs` 0 marks an engine-level concern,
/// meaningful for every family; --no-decompose and --no-compress are
/// consumed by the exact gap/power families alone, but clearing a
/// default-on optimization is never a surprising no-op.
constexpr Flag<Cli> kFlags[] = {
    {"--alpha", "<a>", "wake-up cost (power solvers; default 2)", kUsesAlpha,
     [](Cli& o, Value v) { return read_value(v, &o.params.alpha); }},
    {"--spans", "<k>", "span budget (throughput solvers)", kUsesMaxSpans,
     [](Cli& o, Value v) { return read_value(v, &o.params.max_spans); }},
    {"--threshold", "<t>", "idle threshold (online_powerdown)", kUsesThreshold,
     [](Cli& o, Value v) {
       return read_value(v, &o.params.powerdown_threshold);
     }},
    {"--swap", "<s>", "set-packing swap size (powermin_approx)", kUsesPacking,
     [](Cli& o, Value v) { return read_value(v, &o.params.swap_size); }},
    {"--block", "<k>", "Lemma 5 block size (powermin_approx)", kUsesPacking,
     [](Cli& o, Value v) { return read_value(v, &o.params.block_size); }},
    {"--validate", "",
     "re-check the answer with the independent schedule oracle (any "
     "solver; exit 3 on a refuted answer)", 0,
     [](Cli& o, Value) { o.params.validate = true; return true; }},
    {"--no-decompose", "",
     "skip the prep stage that splits far-apart job clusters into "
     "independent components (exact gap/power solvers; on by default)", 0,
     [](Cli& o, Value) { o.params.decompose = false; return true; }},
    {"--no-compress", "",
     "keep interior dead runs at full length instead of compressing them "
     "(to 1 unit for gap solves, ceil(alpha)+1 for power solves)", 0,
     [](Cli& o, Value) { o.params.compress = false; return true; }},
    {"--time-limit", "<s>",
     "advisory wall-clock budget in seconds (0 = unlimited); exit 4 when "
     "the solve ran longer", 0,
     [](Cli& o, Value v) { return read_value(v, &o.params.time_limit_s); }},
    {"--json", "", "emit the result as the io/json.hpp response document", 0,
     [](Cli& o, Value) { o.json = true; return true; }},
    {"--cache-stats", "",
     "print the solve-cache tallies and the pipeline stage counters as "
     "io/json.hpp stats documents on stderr (the codec of the server's stats "
     "frame); under --connect, the server's stats frame", 0,
     [](Cli& o, Value) { o.cache_stats = true; return true; }},
    {"--store", "<path>",
     "persistent on-disk solve store (created if missing), shared with "
     "other runs and gapsched_serve --store; the oracle re-audits every "
     "loaded entry before it may serve", 0,
     [](Cli& o, Value v) { return read_value(v, &o.engine.store_path); }},
    {"--spill-min-ms", "<x>",
     "only persist solves that took >= x ms (default 0.1)", 0,
     [](Cli& o, Value v) {
       return read_value(v, &o.engine.store_spill_min_ms);
     }},
    {"--store-max-bytes", "<n>",
     "store size budget; compaction keeps the most expensive entries", 0,
     [](Cli& o, Value v) { return read_value(v, &o.engine.store_max_bytes); }},
    {"--warm", "<specs>",
     "no single instance: pre-solve a comma-separated list of instance "
     "specs ('catalog' = every static catalog scenario) into the --store, "
     "validating each answer; exit 3 if any is refuted", 0,
     [](Cli& o, Value v) { return read_value(v, &o.warm); }},
    {"--connect", "<h:p>",
     "do not solve locally: send the request to the gapsched_serve at "
     "host:port and render its result frame", 0,
     [](Cli& o, Value v) { return read_value(v, &o.connect); }},
};

int usage() {
  std::cerr << "usage: solver_cli --list | --scenarios\n"
            << "       solver_cli <solver> [options] <instance>\n"
            << "instance: a file in the io/serialize.hpp format, or\n"
            << "          scenario:<name>[:<seed>] from the scenario catalog\n"
            << "options:\n"
            << flag_usage<Cli>(kFlags)
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

int list_solvers() {
  Table table({"solver", "objective", "exact", "paper", "complexity",
               "summary"});
  for (const engine::Solver* solver :
       engine::SolverRegistry::instance().all()) {
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

std::optional<Instance> load(const std::string& path) {
  // scenario:<name>[:<seed>] draws from the catalog instead of a file.
  // Wrapper names contain colons of their own (stretched:<k>:<base>), so
  // the seed is the LAST segment, and only when it is a uint64 number.
  if (path.rfind("scenario:", 0) == 0) {
    std::string spec = path.substr(9);
    std::uint64_t seed = 1;
    if (const auto colon = spec.rfind(':'); colon != std::string::npos) {
      const std::string_view tail = std::string_view(spec).substr(colon + 1);
      if (const auto numeric = parse_number<std::uint64_t>(tail)) {
        seed = *numeric;
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
  const std::vector<std::string> args(argv + 1, argv + argc);
  if (args.empty()) return usage();
  if (args[0] == "--list" || args[0] == "list") return list_solvers();
  if (args[0] == "--scenarios" || args[0] == "scenarios") {
    return list_scenarios();
  }
  // Solvers are stateless rows, the same in the process-wide registry as
  // in an engine's; this one is read before the engine, which the options
  // configure, exists.
  const engine::Solver* solver =
      engine::SolverRegistry::instance().find(args[0]);
  if (solver == nullptr) {
    std::cerr << "unknown solver '" << args[0] << "' (see solver_cli --list)\n";
    return 2;
  }
  const std::string& name = solver->info().name;
  Cli cli;
  std::vector<std::string> positionals;
  if (const std::string error = parse_flags<Cli>(
          kFlags, std::span(args).subspan(1), &cli, &positionals,
          solver->info().params, "solver '" + name + "'");
      !error.empty()) {
    std::cerr << error << "\n";
    return usage();
  }
  // The store and warming are local-engine concerns; combining them with a
  // remote solve would silently create and populate a file the remote
  // server never sees. Checked before the Engine exists (constructing it
  // would already create the store file).
  if (!cli.connect.empty() &&
      (!cli.engine.store_path.empty() || !cli.warm.empty())) {
    std::cerr << "--store/--warm are local; with --connect, start the server "
                 "with gapsched_serve --store instead\n";
    return 2;
  }
  if (!cli.warm.empty() && cli.engine.store_path.empty()) {
    std::cerr << "--warm populates a persistent store; add --store <path>\n";
    return 2;
  }
  engine::SolveRequest request;
  request.objective = solver->info().objective;
  request.params = cli.params;

  // One persistent engine for the whole invocation: the solve cache and
  // (with --store) the persistent disk tier.
  engine::Engine eng(cli.engine);
  if (!cli.engine.store_path.empty() && eng.store() == nullptr) {
    // A corrupt or foreign store file costs persistence, never the solve.
    std::cerr << "warning: running without the store: " << eng.store_error()
              << "\n";
  }
  if (!cli.warm.empty()) {
    if (!positionals.empty()) {
      std::cerr << "--warm takes its instances from its own spec list; "
                   "unexpected argument '"
                << positionals.front() << "'\n";
      return 2;
    }
    engine::pipeline::PipelineStats solved;
    const int rc = warm_store(eng, *solver, request, cli.warm, &solved);
    if (cli.cache_stats) print_cache_stats(eng, solved);
    return rc;
  }
  if (positionals.size() != 1) {
    if (positionals.size() > 1) {
      std::cerr << "unexpected argument '" << positionals[1] << "'\n";
    }
    return usage();
  }

  auto inst = load(positionals.front());
  if (!inst) return 1;
  request.instance = std::move(*inst);

  engine::SolveResult result;
  if (cli.connect.empty()) {
    result = eng.solve(*solver, request);
    // Make the write-behind spill durable before reporting stats (and
    // before exit hands the store file to the next process).
    eng.flush_store();
    if (cli.cache_stats) {
      engine::pipeline::PipelineStats solved;
      solved.absorb(result);
      print_cache_stats(eng, solved);
    }
  } else {
    const int rc =
        remote_solve(cli.connect, name, request, cli.cache_stats, &result);
    if (rc != 0) return rc;
  }

  // Machine-readable mode: the response document is the whole stdout.
  if (cli.json) std::cout << io::result_to_json(result) << "\n";

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
    if (!cli.json) std::cout << "infeasible\n";
    return result.timed_out ? 4 : 1;
  }
  if (cli.json) return result.timed_out ? 4 : 0;

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
