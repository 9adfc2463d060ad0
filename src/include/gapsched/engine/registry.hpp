#pragma once
// SolverRegistry: the static catalogue of every solver family in the
// library. The built-in rows (src/engine/builtin_solvers.cpp) are
// registered on first access, so `SolverRegistry::instance()` always starts
// fully populated — no reliance on static-initializer link order.

#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "gapsched/engine/solver.hpp"

namespace gapsched::engine {

class SolverRegistry {
 public:
  /// The process-wide registry, with all built-in solvers registered.
  /// Read-only convenience for code that needs solver metadata without an
  /// engine; solving code should own a registry through
  /// gapsched::engine::Engine.
  static SolverRegistry& instance();

  /// A fresh registry populated with every built-in solver — the form an
  /// Engine owns, so per-engine add() calls never leak into the process-
  /// wide instance().
  static std::unique_ptr<SolverRegistry> create_with_builtins();

  /// Registers a solver. Returns false (and drops `solver`) when a solver
  /// with the same name already exists.
  bool add(std::unique_ptr<Solver> solver);

  /// Looks up a solver by registry name; nullptr when unknown.
  const Solver* find(std::string_view name) const;

  /// All solvers, sorted by name.
  std::vector<const Solver*> all() const;

  /// The solvers handling one objective, sorted by name.
  std::vector<const Solver*> for_objective(Objective objective) const;

  /// Sorted registry names.
  std::vector<std::string> names() const;

  std::size_t size() const { return solvers_.size(); }

 private:
  SolverRegistry() = default;

  /// Map nodes never move, so find() pointers stay valid across add().
  std::map<std::string, Solver, std::less<>> solvers_;
};

}  // namespace gapsched::engine
