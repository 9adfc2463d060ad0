#include "gapsched/engine/registry.hpp"

#include <mutex>

namespace gapsched::engine {

// Defined in builtin_solvers.cpp; called once per registry below.
void register_builtin_solvers(SolverRegistry& registry);

SolverRegistry& SolverRegistry::instance() {
  static SolverRegistry registry;
  static std::once_flag once;
  std::call_once(once, [] { register_builtin_solvers(registry); });
  return registry;
}

std::unique_ptr<SolverRegistry> SolverRegistry::create_with_builtins() {
  std::unique_ptr<SolverRegistry> registry(new SolverRegistry);
  register_builtin_solvers(*registry);
  return registry;
}

bool SolverRegistry::add(std::unique_ptr<Solver> solver) {
  std::string name = solver->info().name;
  return solvers_.try_emplace(std::move(name), std::move(*solver)).second;
}

const Solver* SolverRegistry::find(std::string_view name) const {
  auto it = solvers_.find(name);
  return it == solvers_.end() ? nullptr : &it->second;
}

std::vector<const Solver*> SolverRegistry::all() const {
  std::vector<const Solver*> out;
  out.reserve(solvers_.size());
  for (const auto& [name, solver] : solvers_) out.push_back(&solver);
  return out;
}

std::vector<const Solver*> SolverRegistry::for_objective(
    Objective objective) const {
  std::vector<const Solver*> out;
  for (const auto& [name, solver] : solvers_) {
    if (solver.info().objective == objective) out.push_back(&solver);
  }
  return out;
}

std::vector<std::string> SolverRegistry::names() const {
  std::vector<std::string> out;
  out.reserve(solvers_.size());
  for (const auto& [name, solver] : solvers_) out.push_back(name);
  return out;
}

}  // namespace gapsched::engine
