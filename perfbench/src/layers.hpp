#pragma once
// Per-layer counters read from what the program already reports on every
// answer (SolveStats: stage times, cache and solver counters). Every ratio
// is printed with its numerator and denominator.

#include <array>
#include <cstddef>
#include <cstdio>
#include <string>

#include "common.hpp"
#include "gapsched/engine/types.hpp"

namespace perfbench {

class AnswerTally {
 public:
  void add(const gapsched::engine::SolveStats& stats,
           const std::string& solver);
  std::size_t answers() const { return answers_; }
  /// Adds engine.stage.*, engine.cache.*, dp.* and bcd.* to `out`.
  void emit(Metrics& out) const;

 private:
  std::size_t answers_ = 0;
  std::array<double, gapsched::engine::kPipelineStageCount> stage_ms_{};
  std::array<std::size_t, gapsched::engine::kPipelineStageCount> stage_ran_{};
  std::size_t cache_hits_ = 0;
  std::size_t component_hits_ = 0;
  std::size_t components_ = 0;
  std::size_t dp_answers_ = 0;
  double dp_states_ = 0.0;
  std::size_t arena_solves_ = 0;
  std::size_t hash_solves_ = 0;
  std::size_t bcd_answers_ = 0;
  double bcd_states_ = 0.0;
  double bcd_nodes_ = 0.0;
};

/// num / den, or 0 when den is 0; prints "name = value (num/den)".
double ratio(const std::string& name, double num, double den);

}  // namespace perfbench
