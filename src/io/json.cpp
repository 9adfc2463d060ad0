#include "gapsched/io/json.hpp"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <system_error>
#include <utility>
#include <vector>

namespace gapsched::io {

void append_escaped(std::string& out, std::string_view s) {
  out += '"';
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

namespace {

// --------------------------------------------------------------- writing --

void append_double(std::string& out, double value) {
  if (!std::isfinite(value)) {
    out += "null";  // JSON has no NaN/inf
    return;
  }
  // Shortest decimal form that round-trips.
  for (int prec = 1; prec <= 17; ++prec) {
    char probe[32];
    std::snprintf(probe, sizeof probe, "%.*g", prec, value);
    if (std::strtod(probe, nullptr) == value) {
      out += probe;
      return;
    }
  }
}

void append_bool(std::string& out, bool value) {
  out += value ? "true" : "false";
}

// --------------------------------------------------------------- parsing --

struct JsonValue {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0.0;
  std::int64_t integer = 0;
  bool is_integer = false;
  std::string string;
  std::vector<JsonValue> elements;
  std::vector<std::pair<std::string, JsonValue>> members;

  const JsonValue* find(std::string_view key) const {
    for (const auto& [k, v] : members) {
      if (k == key) return &v;
    }
    return nullptr;
  }
};

/// Minimal recursive-descent parser for standard JSON (no comments, no
/// trailing commas). Depth-limited so adversarial input cannot blow the
/// stack.
class Parser {
  /// 2^53: every integer of at most this magnitude is exact in a double.
  static constexpr std::int64_t kExactIntInDouble = std::int64_t{1} << 53;

 public:
  explicit Parser(std::string_view text) : text_(text) {}

  std::optional<JsonValue> parse(std::string* error) {
    JsonValue v;
    if (!value(v, 0)) {
      if (error != nullptr) *error = error_;
      return std::nullopt;
    }
    skip_ws();
    if (pos_ != text_.size()) {
      if (error != nullptr) *error = at("trailing characters after document");
      return std::nullopt;
    }
    return v;
  }

 private:

  std::string at(std::string msg) {
    return msg + " (at byte " + std::to_string(pos_) + ")";
  }

  bool fail(std::string msg) {
    if (error_.empty()) error_ = at(std::move(msg));
    return false;
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  bool literal(std::string_view word) {
    if (text_.substr(pos_, word.size()) != word) return false;
    pos_ += word.size();
    return true;
  }

  bool value(JsonValue& out, int depth) {
    // depth counts nesting levels already entered, so the value being
    // parsed sits at nesting level depth + 1: reject exactly the
    // documents nested deeper than kMaxParseDepth.
    if (depth >= kMaxParseDepth) return fail("document nested too deeply");
    skip_ws();
    if (pos_ >= text_.size()) return fail("unexpected end of document");
    const char c = text_[pos_];
    if (c == '{') return object(out, depth);
    if (c == '[') return array(out, depth);
    if (c == '"') {
      out.kind = JsonValue::Kind::kString;
      return string(out.string);
    }
    if (c == 't') {
      if (!literal("true")) return fail("bad literal");
      out.kind = JsonValue::Kind::kBool;
      out.boolean = true;
      return true;
    }
    if (c == 'f') {
      if (!literal("false")) return fail("bad literal");
      out.kind = JsonValue::Kind::kBool;
      out.boolean = false;
      return true;
    }
    if (c == 'n') {
      if (!literal("null")) return fail("bad literal");
      out.kind = JsonValue::Kind::kNull;
      return true;
    }
    return number(out);
  }

  bool number(JsonValue& out) {
    const std::size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    bool integral = true;
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (std::isdigit(static_cast<unsigned char>(c))) {
        ++pos_;
      } else if (c == '.' || c == 'e' || c == 'E' || c == '+' || c == '-') {
        integral = false;
        ++pos_;
      } else {
        break;
      }
    }
    if (pos_ == start) return fail("expected a value");
    const std::string_view token = text_.substr(start, pos_ - start);
    out.kind = JsonValue::Kind::kNumber;
    if (integral) {
      // An integral token (-?[0-9]*) that fits int64 converts straight from
      // the view. Up to 2^53 in magnitude the double conversion is exact,
      // so `number` is what strtod reads ("-0" included: -0.0).
      const char* last = token.data() + token.size();
      std::int64_t v = 0;
      const auto [end, ec] = std::from_chars(token.data(), last, v);
      if (ec == std::errc{} && end == last) {
        out.integer = v;
        out.is_integer = true;
        if (v >= -kExactIntInDouble && v <= kExactIntInDouble) {
          out.number = v == 0 && token.front() == '-' ? -0.0
                                                      : static_cast<double>(v);
          return true;
        }
      }
    }
    // Fractions, exponents, and integers beyond the exact range.
    const std::string owned(token);
    char* end = nullptr;
    out.number = std::strtod(owned.c_str(), &end);
    if (end != owned.c_str() + owned.size()) return fail("malformed number");
    return true;
  }

  bool string(std::string& out) {
    ++pos_;  // opening quote
    out.clear();
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') return true;
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= text_.size()) break;
      const char esc = text_[pos_++];
      switch (esc) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'n': out += '\n'; break;
        case 't': out += '\t'; break;
        case 'r': out += '\r'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'u': {
          if (pos_ + 4 > text_.size()) return fail("truncated \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') {
              code += static_cast<unsigned>(h - '0');
            } else if (h >= 'a' && h <= 'f') {
              code += static_cast<unsigned>(h - 'a' + 10);
            } else if (h >= 'A' && h <= 'F') {
              code += static_cast<unsigned>(h - 'A' + 10);
            } else {
              return fail("bad \\u escape");
            }
          }
          // The engine documents are ASCII; anything else degrades to '?'.
          out += code < 0x80 ? static_cast<char>(code) : '?';
          break;
        }
        default:
          return fail("unknown escape");
      }
    }
    return fail("unterminated string");
  }

  bool object(JsonValue& out, int depth) {
    ++pos_;  // '{'
    out.kind = JsonValue::Kind::kObject;
    skip_ws();
    if (pos_ < text_.size() && text_[pos_] == '}') {
      ++pos_;
      return true;
    }
    // Most objects are small (a schedule slot has three members): one
    // allocation instead of three growth steps.
    out.members.reserve(4);
    for (;;) {
      skip_ws();
      if (pos_ >= text_.size() || text_[pos_] != '"') {
        return fail("expected an object key");
      }
      std::string key;
      if (!string(key)) return false;
      // Duplicate keys make a document ambiguous (which value wins depends
      // on the reader); the wire format rejects them outright so mutated
      // or hand-built input can never smuggle a second "cost" past the
      // first.
      if (out.find(key) != nullptr) {
        return fail("duplicate object key '" + key + "'");
      }
      skip_ws();
      if (pos_ >= text_.size() || text_[pos_] != ':') return fail("expected ':'");
      ++pos_;
      JsonValue member;
      if (!value(member, depth + 1)) return false;
      out.members.emplace_back(std::move(key), std::move(member));
      skip_ws();
      if (pos_ < text_.size() && text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (pos_ < text_.size() && text_[pos_] == '}') {
        ++pos_;
        return true;
      }
      return fail("expected ',' or '}'");
    }
  }

  bool array(JsonValue& out, int depth) {
    ++pos_;  // '['
    out.kind = JsonValue::Kind::kArray;
    skip_ws();
    if (pos_ < text_.size() && text_[pos_] == ']') {
      ++pos_;
      return true;
    }
    for (;;) {
      JsonValue element;
      if (!value(element, depth + 1)) return false;
      out.elements.push_back(std::move(element));
      skip_ws();
      if (pos_ < text_.size() && text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (pos_ < text_.size() && text_[pos_] == ']') {
        ++pos_;
        return true;
      }
      return fail("expected ',' or ']'");
    }
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  std::string error_;
};

// ----------------------------------------------- typed field extraction --

bool get_bool(const JsonValue& obj, std::string_view key, bool* out) {
  const JsonValue* v = obj.find(key);
  if (v == nullptr || v->kind != JsonValue::Kind::kBool) return v == nullptr;
  *out = v->boolean;
  return true;
}

bool get_double(const JsonValue& obj, std::string_view key, double* out) {
  const JsonValue* v = obj.find(key);
  if (v == nullptr) return true;
  if (v->kind != JsonValue::Kind::kNumber) return false;
  *out = v->number;
  return true;
}

bool get_int(const JsonValue& obj, std::string_view key, std::int64_t* out) {
  const JsonValue* v = obj.find(key);
  if (v == nullptr) return true;
  if (v->kind != JsonValue::Kind::kNumber || !v->is_integer) return false;
  *out = v->integer;
  return true;
}

bool get_string(const JsonValue& obj, std::string_view key, std::string* out) {
  const JsonValue* v = obj.find(key);
  if (v == nullptr) return true;
  if (v->kind != JsonValue::Kind::kString) return false;
  *out = v->string;
  return true;
}

/// True when `v` narrows to int without truncation — out-of-range wire
/// input must be a parse error, never a plausible-looking wrong value.
bool fits_int(std::int64_t v) {
  return v >= std::numeric_limits<int>::min() &&
         v <= std::numeric_limits<int>::max();
}

bool parse_params(const JsonValue& obj, engine::SolveParams* params,
                  std::string* why) {
  const JsonValue* p = obj.find("params");
  if (p == nullptr) return true;  // all defaults
  if (p->kind != JsonValue::Kind::kObject) {
    *why = "'params' must be an object";
    return false;
  }
  std::int64_t max_spans = static_cast<std::int64_t>(params->max_spans);
  std::int64_t swap_size = params->swap_size;
  std::int64_t block_size = params->block_size;
  const bool ok = get_double(*p, "alpha", &params->alpha) &&
                  get_int(*p, "max_spans", &max_spans) &&
                  get_double(*p, "powerdown_threshold",
                             &params->powerdown_threshold) &&
                  get_int(*p, "swap_size", &swap_size) &&
                  get_int(*p, "block_size", &block_size) &&
                  get_double(*p, "time_limit_s", &params->time_limit_s) &&
                  get_bool(*p, "validate", &params->validate) &&
                  get_bool(*p, "decompose", &params->decompose) &&
                  get_bool(*p, "compress", &params->compress);
  if (!ok || max_spans < 0 || !fits_int(swap_size) || !fits_int(block_size)) {
    *why = "malformed 'params' field";
    return false;
  }
  params->max_spans = static_cast<std::size_t>(max_spans);
  params->swap_size = static_cast<int>(swap_size);
  params->block_size = static_cast<int>(block_size);
  return true;
}

bool parse_instance(const JsonValue& obj, Instance* inst, std::string* why) {
  const JsonValue* in = obj.find("instance");
  if (in == nullptr || in->kind != JsonValue::Kind::kObject) {
    *why = "missing 'instance' object";
    return false;
  }
  std::int64_t processors = 1;
  if (!get_int(*in, "processors", &processors) || !fits_int(processors)) {
    *why = "malformed 'processors'";
    return false;
  }
  inst->processors = static_cast<int>(processors);
  const JsonValue* jobs = in->find("jobs");
  if (jobs == nullptr || jobs->kind != JsonValue::Kind::kArray) {
    *why = "missing 'jobs' array";
    return false;
  }
  inst->jobs.clear();
  inst->jobs.reserve(jobs->elements.size());
  for (const JsonValue& job : jobs->elements) {
    if (job.kind != JsonValue::Kind::kArray) {
      *why = "each job must be an array of [lo, hi] intervals";
      return false;
    }
    std::vector<Interval> intervals;
    intervals.reserve(job.elements.size());
    for (const JsonValue& iv : job.elements) {
      if (iv.kind != JsonValue::Kind::kArray || iv.elements.size() != 2 ||
          !iv.elements[0].is_integer || !iv.elements[1].is_integer) {
        *why = "each interval must be an integer pair [lo, hi]";
        return false;
      }
      intervals.push_back(Interval{iv.elements[0].integer,
                                   iv.elements[1].integer});
    }
    inst->jobs.push_back(Job{TimeSet(std::move(intervals))});
  }
  return true;
}

// ------------------------------------------------- stats sub-documents --
// Bare (untagged) writers/readers shared by the standalone documents and
// the nested copies inside a server_stats document.

void append_cache_stats(std::string& out, const engine::CacheStats& s) {
  out += "{ \"hits\": " + std::to_string(s.hits);
  out += ", \"misses\": " + std::to_string(s.misses);
  out += ", \"insertions\": " + std::to_string(s.insertions);
  out += ", \"evictions\": " + std::to_string(s.evictions);
  out += ", \"entries\": " + std::to_string(s.entries);
  out += ", \"capacity\": " + std::to_string(s.capacity);
  out += ", \"disk_hits\": " + std::to_string(s.disk_hits);
  out += ", \"disk_rejects\": " + std::to_string(s.disk_rejects);
  out += ", \"spilled\": " + std::to_string(s.spilled);
  out += ", \"disk_entries\": " + std::to_string(s.disk_entries);
  out += " }";
}

bool read_cache_stats(const JsonValue& obj, engine::CacheStats* out,
                      std::string* why) {
  std::int64_t hits = 0, misses = 0, insertions = 0, evictions = 0;
  std::int64_t entries = 0, capacity = 0;
  std::int64_t disk_hits = 0, disk_rejects = 0, spilled = 0, disk_entries = 0;
  if (!get_int(obj, "hits", &hits) || !get_int(obj, "misses", &misses) ||
      !get_int(obj, "insertions", &insertions) ||
      !get_int(obj, "evictions", &evictions) ||
      !get_int(obj, "entries", &entries) ||
      !get_int(obj, "capacity", &capacity) ||
      !get_int(obj, "disk_hits", &disk_hits) ||
      !get_int(obj, "disk_rejects", &disk_rejects) ||
      !get_int(obj, "spilled", &spilled) ||
      !get_int(obj, "disk_entries", &disk_entries) || hits < 0 ||
      misses < 0 || insertions < 0 || evictions < 0 || entries < 0 ||
      capacity < 0 || disk_hits < 0 || disk_rejects < 0 || spilled < 0 ||
      disk_entries < 0) {
    *why = "malformed cache stats field";
    return false;
  }
  out->hits = static_cast<std::size_t>(hits);
  out->misses = static_cast<std::size_t>(misses);
  out->insertions = static_cast<std::size_t>(insertions);
  out->evictions = static_cast<std::size_t>(evictions);
  out->entries = static_cast<std::size_t>(entries);
  out->capacity = static_cast<std::size_t>(capacity);
  out->disk_hits = static_cast<std::size_t>(disk_hits);
  out->disk_rejects = static_cast<std::size_t>(disk_rejects);
  out->spilled = static_cast<std::size_t>(spilled);
  out->disk_entries = static_cast<std::size_t>(disk_entries);
  return true;
}

void append_pipeline_stats(std::string& out,
                           const engine::pipeline::PipelineStats& p) {
  out += "{ \"requests\": " + std::to_string(p.requests);
  out += ", \"stages\": {";
  for (std::size_t i = 0; i < engine::kPipelineStageCount; ++i) {
    const engine::pipeline::StageTally& t = p.stages[i];
    out += i == 0 ? " \"" : ", \"";
    out += std::string(
        engine::to_string(static_cast<engine::PipelineStage>(i)));
    out += "\": { \"runs\": " + std::to_string(t.runs);
    out += ", \"skips\": " + std::to_string(t.skips);
    out += ", \"total_ms\": ";
    append_double(out, t.total_ms);
    out += " }";
  }
  out += " } }";
}

bool read_pipeline_stats(const JsonValue& obj,
                         engine::pipeline::PipelineStats* out,
                         std::string* why) {
  std::int64_t requests = 0;
  if (!get_int(obj, "requests", &requests) || requests < 0) {
    *why = "malformed 'requests' field";
    return false;
  }
  out->requests = static_cast<std::uint64_t>(requests);
  const JsonValue* stages = obj.find("stages");
  if (stages == nullptr) return true;  // tolerated: tallies stay zero
  if (stages->kind != JsonValue::Kind::kObject) {
    *why = "'stages' must be an object";
    return false;
  }
  for (const auto& [name, entry] : stages->members) {
    const auto stage = engine::pipeline_stage_from_string(name);
    if (!stage.has_value()) {
      *why = "unknown pipeline stage '" + name + "'";
      return false;
    }
    engine::pipeline::StageTally& t =
        out->stages[static_cast<std::size_t>(*stage)];
    std::int64_t runs = 0, skips = 0;
    if (entry.kind != JsonValue::Kind::kObject ||
        !get_int(entry, "runs", &runs) || !get_int(entry, "skips", &skips) ||
        !get_double(entry, "total_ms", &t.total_ms) || runs < 0 ||
        skips < 0) {
      *why = "malformed stage tally '" + name + "'";
      return false;
    }
    t.runs = static_cast<std::uint64_t>(runs);
    t.skips = static_cast<std::uint64_t>(skips);
  }
  return true;
}

}  // namespace

std::string request_to_json(std::string_view solver,
                            const engine::SolveRequest& request) {
  const engine::SolveParams& p = request.params;
  std::string out;
  out += "{\n  \"gapsched\": \"request\",\n  \"solver\": ";
  append_escaped(out, solver);
  out += ",\n  \"objective\": ";
  append_escaped(out, engine::to_string(request.objective));
  out += ",\n  \"params\": {\n    \"alpha\": ";
  append_double(out, p.alpha);
  out += ",\n    \"max_spans\": " + std::to_string(p.max_spans);
  out += ",\n    \"powerdown_threshold\": ";
  append_double(out, p.powerdown_threshold);
  out += ",\n    \"swap_size\": " + std::to_string(p.swap_size);
  out += ",\n    \"block_size\": " + std::to_string(p.block_size);
  out += ",\n    \"time_limit_s\": ";
  append_double(out, p.time_limit_s);
  out += ",\n    \"validate\": ";
  append_bool(out, p.validate);
  out += ",\n    \"decompose\": ";
  append_bool(out, p.decompose);
  out += ",\n    \"compress\": ";
  append_bool(out, p.compress);
  out += "\n  },\n  \"instance\": {\n    \"processors\": " +
         std::to_string(request.instance.processors);
  out += ",\n    \"jobs\": [";
  for (std::size_t j = 0; j < request.instance.n(); ++j) {
    out += j == 0 ? "\n" : ",\n";
    out += "      [";
    const TimeSet& allowed = request.instance.jobs[j].allowed;
    for (std::size_t k = 0; k < allowed.intervals().size(); ++k) {
      if (k > 0) out += ", ";
      const Interval& iv = allowed.intervals()[k];
      out += '[' + std::to_string(iv.lo) + ", " + std::to_string(iv.hi) + ']';
    }
    out += ']';
  }
  out += request.instance.n() == 0 ? "]\n" : "\n    ]\n";
  out += "  }\n}";
  return out;
}

std::optional<engine::SolveRequest> request_from_json(std::string_view text,
                                                      std::string* solver,
                                                      std::string* error) {
  Parser parser(text);
  std::optional<JsonValue> doc = parser.parse(error);
  if (!doc.has_value()) return std::nullopt;
  if (doc->kind != JsonValue::Kind::kObject) {
    if (error != nullptr) *error = "request document must be an object";
    return std::nullopt;
  }
  std::string why;
  std::string solver_name;
  if (!get_string(*doc, "solver", &solver_name) || solver_name.empty()) {
    if (error != nullptr) *error = "missing 'solver' field";
    return std::nullopt;
  }
  engine::SolveRequest request;
  std::string objective_name;
  if (!get_string(*doc, "objective", &objective_name)) {
    if (error != nullptr) *error = "malformed 'objective'";
    return std::nullopt;
  }
  if (!objective_name.empty()) {
    const auto obj = engine::objective_from_string(objective_name);
    if (!obj.has_value()) {
      if (error != nullptr) *error = "unknown objective '" + objective_name + "'";
      return std::nullopt;
    }
    request.objective = *obj;
  }
  if (!parse_params(*doc, &request.params, &why) ||
      !parse_instance(*doc, &request.instance, &why)) {
    if (error != nullptr) *error = why;
    return std::nullopt;
  }
  if (solver != nullptr) *solver = std::move(solver_name);
  return request;
}

std::string result_to_json(const engine::SolveResult& result) {
  std::string out;
  out += "{\n  \"gapsched\": \"result\",\n  \"ok\": ";
  append_bool(out, result.ok);
  out += ",\n  \"error\": ";
  append_escaped(out, result.error);
  out += ",\n  \"feasible\": ";
  append_bool(out, result.feasible);
  out += ",\n  \"cost\": ";
  append_double(out, result.cost);
  out += ",\n  \"transitions\": " + std::to_string(result.transitions);
  out += ",\n  \"timed_out\": ";
  append_bool(out, result.timed_out);
  out += ",\n  \"audited\": ";
  append_bool(out, result.audited);
  out += ",\n  \"audit_error\": ";
  append_escaped(out, result.audit_error);
  const engine::SolveStats& s = result.stats;
  out += ",\n  \"stats\": {\n    \"wall_ms\": ";
  append_double(out, s.wall_ms);
  out += ",\n    \"states\": " + std::to_string(s.states);
  out += ",\n    \"nodes\": " + std::to_string(s.nodes);
  out += ",\n    \"scheduled\": " + std::to_string(s.scheduled);
  out += ",\n    \"components\": " + std::to_string(s.components);
  out += ",\n    \"cache_hit\": ";
  append_bool(out, s.cache_hit);
  out += ",\n    \"component_cache_hits\": " +
         std::to_string(s.component_cache_hits);
  out += ",\n    \"components_deduped\": " +
         std::to_string(s.components_deduped);
  out += ",\n    \"dead_time_removed\": " +
         std::to_string(s.dead_time_removed);
  out += ",\n    \"memo_arena_solves\": " + std::to_string(s.memo_arena_solves);
  out += ",\n    \"memo_hash_solves\": " + std::to_string(s.memo_hash_solves);
  out += ",\n    \"memo_parallel_solves\": " +
         std::to_string(s.memo_parallel_solves);
  out += ",\n    \"memo_find_calls\": " + std::to_string(s.memo_find_calls);
  out += ",\n    \"memo_probe_steps\": " + std::to_string(s.memo_probe_steps);
  out += ",\n    \"memo_pruned\": " + std::to_string(s.memo_pruned);
  out += ",\n    \"stages\": {";
  for (std::size_t i = 0; i < engine::kPipelineStageCount; ++i) {
    const engine::StageStats& st = s.stages[i];
    out += i == 0 ? "\n      \"" : ",\n      \"";
    out += std::string(
        engine::to_string(static_cast<engine::PipelineStage>(i)));
    out += "\": { \"ran\": ";
    append_bool(out, st.ran);
    out += ", \"ms\": ";
    append_double(out, st.ms);
    out += " }";
  }
  out += "\n    }";
  out += "\n  },\n  \"schedule\": {\n    \"jobs\": " +
         std::to_string(result.schedule.size());
  out += ",\n    \"slots\": [";
  bool first = true;
  for (std::size_t j = 0; j < result.schedule.size(); ++j) {
    const std::optional<Placement>& slot = result.schedule.at(j);
    if (!slot.has_value()) continue;
    out += first ? "\n" : ",\n";
    first = false;
    out += "      { \"job\": " + std::to_string(j) +
           ", \"time\": " + std::to_string(slot->time) +
           ", \"processor\": " + std::to_string(slot->processor) + " }";
  }
  out += first ? "]\n" : "\n    ]\n";
  out += "  }\n}";
  return out;
}

std::optional<engine::SolveResult> result_from_json(std::string_view text,
                                                    std::string* error) {
  Parser parser(text);
  std::optional<JsonValue> doc = parser.parse(error);
  if (!doc.has_value()) return std::nullopt;
  if (doc->kind != JsonValue::Kind::kObject) {
    if (error != nullptr) *error = "result document must be an object";
    return std::nullopt;
  }
  engine::SolveResult result;
  std::int64_t transitions = 0;
  const bool ok = get_bool(*doc, "ok", &result.ok) &&
                  get_string(*doc, "error", &result.error) &&
                  get_bool(*doc, "feasible", &result.feasible) &&
                  get_double(*doc, "cost", &result.cost) &&
                  get_int(*doc, "transitions", &transitions) &&
                  get_bool(*doc, "timed_out", &result.timed_out) &&
                  get_bool(*doc, "audited", &result.audited) &&
                  get_string(*doc, "audit_error", &result.audit_error);
  if (!ok) {
    if (error != nullptr) *error = "malformed result field";
    return std::nullopt;
  }
  result.transitions = transitions;
  if (const JsonValue* s = doc->find("stats");
      s != nullptr && s->kind == JsonValue::Kind::kObject) {
    std::int64_t states = 0, nodes = 0, scheduled = 0, components = 0;
    std::int64_t comp_hits = 0, deduped = 0;
    std::int64_t memo_arena = 0, memo_hash = 0, memo_parallel = 0;
    std::int64_t memo_finds = 0, memo_probes = 0, memo_pruned = 0;
    if (!get_double(*s, "wall_ms", &result.stats.wall_ms) ||
        !get_int(*s, "states", &states) || !get_int(*s, "nodes", &nodes) ||
        !get_int(*s, "scheduled", &scheduled) ||
        !get_int(*s, "components", &components) ||
        !get_bool(*s, "cache_hit", &result.stats.cache_hit) ||
        !get_int(*s, "component_cache_hits", &comp_hits) ||
        !get_int(*s, "components_deduped", &deduped) ||
        !get_int(*s, "dead_time_removed", &result.stats.dead_time_removed) ||
        !get_int(*s, "memo_arena_solves", &memo_arena) ||
        !get_int(*s, "memo_hash_solves", &memo_hash) ||
        !get_int(*s, "memo_parallel_solves", &memo_parallel) ||
        !get_int(*s, "memo_find_calls", &memo_finds) ||
        !get_int(*s, "memo_probe_steps", &memo_probes) ||
        !get_int(*s, "memo_pruned", &memo_pruned)) {
      if (error != nullptr) *error = "malformed 'stats' field";
      return std::nullopt;
    }
    result.stats.states = static_cast<std::size_t>(states);
    result.stats.nodes = static_cast<std::size_t>(nodes);
    result.stats.scheduled = static_cast<std::size_t>(scheduled);
    result.stats.components = static_cast<std::size_t>(components);
    result.stats.component_cache_hits = static_cast<std::size_t>(comp_hits);
    result.stats.components_deduped = static_cast<std::size_t>(deduped);
    result.stats.memo_arena_solves = static_cast<std::size_t>(memo_arena);
    result.stats.memo_hash_solves = static_cast<std::size_t>(memo_hash);
    result.stats.memo_parallel_solves =
        static_cast<std::size_t>(memo_parallel);
    result.stats.memo_find_calls = static_cast<std::uint64_t>(memo_finds);
    result.stats.memo_probe_steps = static_cast<std::uint64_t>(memo_probes);
    result.stats.memo_pruned = static_cast<std::uint64_t>(memo_pruned);
    if (const JsonValue* stages = s->find("stages"); stages != nullptr) {
      if (stages->kind != JsonValue::Kind::kObject) {
        if (error != nullptr) *error = "'stats.stages' must be an object";
        return std::nullopt;
      }
      for (const auto& [name, entry] : stages->members) {
        const auto stage = engine::pipeline_stage_from_string(name);
        if (!stage.has_value()) {
          if (error != nullptr) {
            *error = "unknown pipeline stage '" + name + "'";
          }
          return std::nullopt;
        }
        engine::StageStats& st =
            result.stats.stages[static_cast<std::size_t>(*stage)];
        if (entry.kind != JsonValue::Kind::kObject ||
            !get_bool(entry, "ran", &st.ran) ||
            !get_double(entry, "ms", &st.ms)) {
          if (error != nullptr) {
            *error = "malformed stage entry '" + name + "'";
          }
          return std::nullopt;
        }
      }
    }
  }
  if (const JsonValue* sched = doc->find("schedule");
      sched != nullptr && sched->kind == JsonValue::Kind::kObject) {
    std::int64_t n = 0;
    if (!get_int(*sched, "jobs", &n) || n < 0) {
      if (error != nullptr) *error = "malformed 'schedule.jobs'";
      return std::nullopt;
    }
    Schedule schedule(static_cast<std::size_t>(n));
    const JsonValue* slots = sched->find("slots");
    if (slots != nullptr) {
      if (slots->kind != JsonValue::Kind::kArray) {
        if (error != nullptr) *error = "'schedule.slots' must be an array";
        return std::nullopt;
      }
      for (const JsonValue& slot : slots->elements) {
        std::int64_t job = -1, time = 0, processor = Placement::kUnassigned;
        if (slot.kind != JsonValue::Kind::kObject ||
            !get_int(slot, "job", &job) || !get_int(slot, "time", &time) ||
            !get_int(slot, "processor", &processor) || job < 0 || job >= n ||
            !fits_int(processor)) {
          if (error != nullptr) *error = "malformed schedule slot";
          return std::nullopt;
        }
        schedule.place(static_cast<std::size_t>(job), time,
                       static_cast<int>(processor));
      }
    }
    result.schedule = std::move(schedule);
  }
  return result;
}

std::string cache_stats_to_json(const engine::CacheStats& stats) {
  std::string out = "{ \"gapsched\": \"cache_stats\", ";
  std::string body;
  append_cache_stats(body, stats);
  out += body.substr(2);  // splice past the bare writer's "{ "
  return out;
}

std::optional<engine::CacheStats> cache_stats_from_json(std::string_view text,
                                                        std::string* error) {
  Parser parser(text);
  std::optional<JsonValue> doc = parser.parse(error);
  if (!doc.has_value()) return std::nullopt;
  std::string why = "cache stats document must be an object";
  engine::CacheStats stats;
  if (doc->kind == JsonValue::Kind::kObject &&
      read_cache_stats(*doc, &stats, &why)) {
    return stats;
  }
  if (error != nullptr) *error = why;
  return std::nullopt;
}

std::string pipeline_stats_to_json(
    const engine::pipeline::PipelineStats& stats) {
  std::string out = "{ \"gapsched\": \"pipeline_stats\", ";
  std::string body;
  append_pipeline_stats(body, stats);
  out += body.substr(2);
  return out;
}

std::optional<engine::pipeline::PipelineStats> pipeline_stats_from_json(
    std::string_view text, std::string* error) {
  Parser parser(text);
  std::optional<JsonValue> doc = parser.parse(error);
  if (!doc.has_value()) return std::nullopt;
  std::string why = "pipeline stats document must be an object";
  engine::pipeline::PipelineStats stats;
  if (doc->kind == JsonValue::Kind::kObject &&
      read_pipeline_stats(*doc, &stats, &why)) {
    return stats;
  }
  if (error != nullptr) *error = why;
  return std::nullopt;
}

std::string server_stats_to_json(const ServerStatsWire& stats) {
  std::string out = "{ \"gapsched\": \"server_stats\", \"cache\": ";
  append_cache_stats(out, stats.cache);
  out += ", \"pipeline\": ";
  append_pipeline_stats(out, stats.pipeline);
  out += ", \"shards\": [";
  for (std::size_t i = 0; i < stats.shards.size(); ++i) {
    const ShardStatsWire& s = stats.shards[i];
    out += i == 0 ? " " : ", ";
    out += "{ \"shard\": " + std::to_string(s.shard);
    out += ", \"requests\": " + std::to_string(s.requests);
    out += ", \"rejected\": " + std::to_string(s.rejected);
    out += ", \"timed_out\": " + std::to_string(s.timed_out);
    out += ", \"refuted\": " + std::to_string(s.refuted);
    out += ", \"cache_hits\": " + std::to_string(s.cache_hits);
    out += ", \"component_cache_hits\": " +
           std::to_string(s.component_cache_hits);
    out += ", \"pipeline\": ";
    append_pipeline_stats(out, s.pipeline);
    out += " }";
  }
  out += stats.shards.empty() ? "] }" : " ] }";
  return out;
}

std::optional<ServerStatsWire> server_stats_from_json(std::string_view text,
                                                      std::string* error) {
  Parser parser(text);
  std::optional<JsonValue> doc = parser.parse(error);
  if (!doc.has_value()) return std::nullopt;
  if (doc->kind != JsonValue::Kind::kObject) {
    if (error != nullptr) *error = "server stats document must be an object";
    return std::nullopt;
  }
  ServerStatsWire stats;
  std::string why;
  if (const JsonValue* cache = doc->find("cache"); cache != nullptr) {
    if (cache->kind != JsonValue::Kind::kObject ||
        !read_cache_stats(*cache, &stats.cache, &why)) {
      if (error != nullptr) *error = "malformed 'cache' object";
      return std::nullopt;
    }
  }
  if (const JsonValue* pipe = doc->find("pipeline"); pipe != nullptr) {
    if (pipe->kind != JsonValue::Kind::kObject ||
        !read_pipeline_stats(*pipe, &stats.pipeline, &why)) {
      if (error != nullptr) *error = "malformed 'pipeline' object: " + why;
      return std::nullopt;
    }
  }
  const JsonValue* shards = doc->find("shards");
  if (shards == nullptr) return stats;  // tolerated: no per-shard view
  if (shards->kind != JsonValue::Kind::kArray) {
    if (error != nullptr) *error = "'shards' must be an array";
    return std::nullopt;
  }
  for (const JsonValue& entry : shards->elements) {
    ShardStatsWire s;
    std::int64_t requests = 0, rejected = 0, timed_out = 0, refuted = 0;
    std::int64_t cache_hits = 0, component_hits = 0;
    if (entry.kind != JsonValue::Kind::kObject ||
        !get_int(entry, "shard", &s.shard) ||
        !get_int(entry, "requests", &requests) ||
        !get_int(entry, "rejected", &rejected) ||
        !get_int(entry, "timed_out", &timed_out) ||
        !get_int(entry, "refuted", &refuted) ||
        !get_int(entry, "cache_hits", &cache_hits) ||
        !get_int(entry, "component_cache_hits", &component_hits) ||
        s.shard < 0 || requests < 0 || rejected < 0 || timed_out < 0 ||
        refuted < 0 || cache_hits < 0 || component_hits < 0) {
      if (error != nullptr) *error = "malformed shard entry";
      return std::nullopt;
    }
    s.requests = static_cast<std::uint64_t>(requests);
    s.rejected = static_cast<std::uint64_t>(rejected);
    s.timed_out = static_cast<std::uint64_t>(timed_out);
    s.refuted = static_cast<std::uint64_t>(refuted);
    s.cache_hits = static_cast<std::uint64_t>(cache_hits);
    s.component_cache_hits = static_cast<std::uint64_t>(component_hits);
    if (const JsonValue* pipe = entry.find("pipeline"); pipe != nullptr) {
      if (pipe->kind != JsonValue::Kind::kObject ||
          !read_pipeline_stats(*pipe, &s.pipeline, &why)) {
        if (error != nullptr) *error = "malformed shard pipeline: " + why;
        return std::nullopt;
      }
    }
    stats.shards.push_back(std::move(s));
  }
  return stats;
}

std::optional<FrameHead> frame_head_from_json(std::string_view text,
                                              std::string* error) {
  Parser parser(text);
  std::optional<JsonValue> doc = parser.parse(error);
  if (!doc.has_value()) return std::nullopt;
  if (doc->kind != JsonValue::Kind::kObject) {
    if (error != nullptr) *error = "frame must be an object";
    return std::nullopt;
  }
  FrameHead head;
  if (!get_string(*doc, "frame", &head.frame) || head.frame.empty()) {
    if (error != nullptr) *error = "missing 'frame' field";
    return std::nullopt;
  }
  if (!get_int(*doc, "id", &head.id) ||
      !get_double(*doc, "deadline_ms", &head.deadline_ms) ||
      !get_string(*doc, "message", &head.message) || head.deadline_ms < 0.0 ||
      !std::isfinite(head.deadline_ms)) {
    if (error != nullptr) *error = "malformed frame header field";
    return std::nullopt;
  }
  return head;
}

}  // namespace gapsched::io
