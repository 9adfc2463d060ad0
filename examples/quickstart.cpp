// Quickstart: build an instance, solve it exactly for both objectives, and
// inspect the schedules.
//
//   $ ./quickstart
//
// Walks through the core API: Instance construction, the Theorem 1 gap DP,
// the Theorem 2 power DP, schedule validation and metrics — then the same
// solves again through a persistent engine::Engine, the uniform stateful
// entry point the CLI and benches use (registry + solve cache).

#include <iostream>

#include "gapsched/dp/gap_dp.hpp"
#include "gapsched/dp/power_dp.hpp"
#include "gapsched/engine/engine.hpp"
#include "gapsched/io/render.hpp"

using namespace gapsched;

int main() {
  // Five unit jobs on one processor. Job windows are inclusive [release,
  // deadline] intervals; three tight jobs form a comb and two loose jobs
  // can hide inside it (the classic gap-scheduling tradeoff).
  Instance inst = Instance::one_interval({
      {10, 10},  // tight
      {12, 12},  // tight
      {14, 14},  // tight
      {0, 20},   // loose
      {0, 20},   // loose
  });

  std::cout << "Gap scheduling (minimize sleep->active transitions)\n";
  GapDpResult gap = solve_gap_dp(inst);
  if (!gap.feasible) {
    std::cerr << "instance infeasible\n";
    return 1;
  }
  std::cout << render_gantt(inst, gap.schedule);
  std::cout << describe_schedule(gap.schedule, /*alpha=*/2.0) << "\n\n";
  // The optimal schedule packs everything into one span: the loose jobs
  // run at times 11 and 13, between the tight jobs.

  std::cout << "Power minimization (alpha = 2 transition cost)\n";
  PowerDpResult power = solve_power_dp(inst, 2.0);
  std::cout << render_gantt(inst, power.schedule);
  std::cout << "optimal power = " << power.power << "\n\n";

  // Schedules are plain data: validate and query them.
  std::cout << "validation: '" << gap.schedule.validate(inst) << "' (empty = OK)\n";
  for (std::size_t j = 0; j < inst.n(); ++j) {
    std::cout << "job " << j << " runs at t=" << gap.schedule.at(j)->time
              << "\n";
  }

  // The engine view of the same solves: construct one Engine (it owns the
  // solver registry, a content-addressed solve cache, and the batch width),
  // hand it a SolveRequest, get a uniform SolveResult back. This is
  // how the CLI dispatches and how Engine::solve_batch fans out.
  std::cout << "\nvia the engine:\n";
  engine::Engine eng;
  for (const char* name : {"gap_dp", "power_dp"}) {
    engine::SolveRequest request;
    request.instance = inst;
    request.objective = eng.registry().find(name)->info().objective;
    request.params.alpha = 2.0;
    const engine::SolveResult r = eng.solve(name, request);
    std::cout << "  " << name << ": cost " << r.cost << " ("
              << r.stats.wall_ms << " ms)\n";
    // A repeated solve is served from the cache: same canonical instance,
    // same consumed parameters, so the content-addressed key matches.
    const engine::SolveResult again = eng.solve(name, request);
    std::cout << "  " << name << " again: cost " << again.cost << " ("
              << (again.stats.cache_hit ? "cache hit" : "cache miss")
              << ", " << again.stats.wall_ms << " ms)\n";
  }
  const engine::CacheStats cs = eng.cache_stats();
  std::cout << "cache: " << cs.hits << " hits, " << cs.misses
            << " misses, " << cs.entries << " entries\n";
  return 0;
}
