#include "gapsched/engine/solver.hpp"

#include <cmath>
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
  const SolveParams& params = request.params;
  if ((meta.params & kUsesAlpha) != 0 &&
      (!std::isfinite(params.alpha) || params.alpha < 0.0)) {
    return "alpha must be finite and >= 0";
  }
  // +inf is a threshold that never powers down; NaN is none at all.
  if ((meta.params & kUsesThreshold) != 0 &&
      std::isnan(params.powerdown_threshold)) {
    return "powerdown_threshold must not be NaN";
  }
  if (std::isnan(params.time_limit_s) || params.time_limit_s < 0.0) {
    return "time_limit_s must be >= 0 (0 = unlimited)";
  }
  if ((meta.params & kUsesMaxSpans) != 0 && params.max_spans < 1) {
    return "max_spans must be >= 1";
  }
  if ((meta.params & kUsesPacking) != 0) {
    if (params.swap_size < 0 || params.swap_size > 2) {
      return "swap_size must be in [0, 2]";
    }
    if (params.block_size < 2 || params.block_size > 4) {
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
