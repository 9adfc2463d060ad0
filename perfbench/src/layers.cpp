#include "layers.hpp"

namespace perfbench {

double ratio(const std::string& name, double num, double den) {
  const double value = den > 0.0 ? num / den : 0.0;
  std::printf("  %-36s %.6f (%.0f/%.0f)\n", name.c_str(), value, num, den);
  return value;
}

void AnswerTally::add(const gapsched::engine::SolveStats& stats,
                      const std::string& solver) {
  ++answers_;
  for (std::size_t s = 0; s < stage_ms_.size(); ++s) {
    stage_ms_[s] += stats.stages[s].ms;
    if (stats.stages[s].ran) ++stage_ran_[s];
  }
  if (stats.cache_hit) ++cache_hits_;
  component_hits_ += stats.component_cache_hits;
  components_ += stats.components;
  if (solver.starts_with("bcd_")) {
    ++bcd_answers_;
    bcd_states_ += static_cast<double>(stats.states);
    bcd_nodes_ += static_cast<double>(stats.nodes);
  } else {
    ++dp_answers_;
    dp_states_ += static_cast<double>(stats.states);
    arena_solves_ += stats.memo_arena_solves;
    hash_solves_ += stats.memo_hash_solves;
  }
}

void AnswerTally::emit(Metrics& out) const {
  const double n = static_cast<double>(answers_);
  for (std::size_t s = 0; s < stage_ms_.size(); ++s) {
    const std::string name = "engine.stage." + stage_names()[s];
    out[name + "_us"] = {n > 0 ? 1000.0 * stage_ms_[s] / n : 0.0, "us"};
    out[name + ".ran_frac"] = {
        ratio(name + ".ran_frac", static_cast<double>(stage_ran_[s]), n), "1"};
  }
  out["engine.cache.hit_ratio"] = {
      ratio("engine.cache.hit_ratio", static_cast<double>(cache_hits_), n),
      "1"};
  out["engine.cache.component_hit_ratio"] = {
      ratio("engine.cache.component_hit_ratio",
            static_cast<double>(component_hits_),
            static_cast<double>(components_)),
      "1"};
  const auto per = [](double sum, std::size_t count) {
    return count > 0 ? sum / static_cast<double>(count) : 0.0;
  };
  out["dp.states_per_req"] = {per(dp_states_, dp_answers_), "count"};
  out["dp.arena_share"] = {
      ratio("dp.arena_share", static_cast<double>(arena_solves_),
            static_cast<double>(arena_solves_ + hash_solves_)),
      "1"};
  out["bcd.subproblems_per_req"] = {per(bcd_states_, bcd_answers_), "count"};
  out["bcd.segments_per_req"] = {per(bcd_nodes_, bcd_answers_), "count"};
}

}  // namespace perfbench
