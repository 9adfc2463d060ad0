#include "gapsched/engine/solver.hpp"

#include <string>
#include <utility>

#include "gapsched/engine/pipeline.hpp"

namespace gapsched::engine {

std::string Solver::check(const SolveRequest& request) const {
  const SolverInfo& meta = info();
  if (request.objective != meta.objective) {
    return "solver '" + meta.name + "' handles objective '" +
           std::string(to_string(meta.objective)) + "', not '" +
           std::string(to_string(request.objective)) + "'";
  }
  if (std::string diag = request.instance.validate(); !diag.empty()) {
    return "invalid instance: " + diag;
  }
  if (meta.max_processors > 0 &&
      request.instance.processors > meta.max_processors) {
    return "solver '" + meta.name + "' supports at most " +
           std::to_string(meta.max_processors) + " processor(s), got " +
           std::to_string(request.instance.processors);
  }
  if (meta.max_n > 0 && request.instance.n() > meta.max_n) {
    return "solver '" + meta.name + "' is capped at n <= " +
           std::to_string(meta.max_n) + ", got n = " +
           std::to_string(request.instance.n());
  }
  if (meta.requires_one_interval && !request.instance.is_one_interval()) {
    return "solver '" + meta.name +
           "' requires one-interval (release/deadline) jobs";
  }
  if ((meta.params & kUsesAlpha) != 0 && !(request.params.alpha >= 0.0)) {
    return "alpha must be >= 0";
  }
  if ((meta.params & kUsesMaxSpans) != 0 && request.params.max_spans < 1) {
    return "max_spans must be >= 1";
  }
  if ((meta.params & kUsesPacking) != 0) {
    if (request.params.swap_size < 0 || request.params.swap_size > 2) {
      return "swap_size must be in [0, 2]";
    }
    if (request.params.block_size < 2 || request.params.block_size > 4) {
      return "block_size must be in [2, 4]";
    }
  }
  return "";
}

SolveResult Solver::solve(const SolveRequest& request,
                          SolveCache* cache) const {
  if (std::string diag = check(request); !diag.empty()) {
    return SolveResult::rejected(std::move(diag));
  }
  return pipeline::Pipeline::run(*this, request, cache);
}

}  // namespace gapsched::engine
