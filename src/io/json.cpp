#include "gapsched/io/json.hpp"

#include <array>
#include <cctype>
#include <charconv>
#include <cmath>
#include <concepts>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <system_error>
#include <tuple>
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

namespace {

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

// ---------------------------------------------------------- field tables --
// One row per wire member, {key, pointer to member}, in wire order. The
// generic writer and reader below walk these tables, so a new counter on
// any wire struct costs one struct member and one row here.

template <typename S, typename T>
struct Field {
  std::string_view key;
  T S::*member;
};

template <typename S, typename T>
constexpr Field<S, T> row(std::string_view key, T S::*member) {
  return {key, member};
}

constexpr auto fields(const engine::SolveParams*) {
  using S = engine::SolveParams;
  return std::make_tuple(row("alpha", &S::alpha),
                         row("max_spans", &S::max_spans),
                         row("powerdown_threshold", &S::powerdown_threshold),
                         row("swap_size", &S::swap_size),
                         row("block_size", &S::block_size),
                         row("time_limit_s", &S::time_limit_s),
                         row("validate", &S::validate),
                         row("decompose", &S::decompose),
                         row("compress", &S::compress));
}

constexpr auto fields(const engine::SolveRequest*) {
  using S = engine::SolveRequest;
  return std::make_tuple(row("objective", &S::objective),
                         row("params", &S::params),
                         row("instance", &S::instance));
}

constexpr auto fields(const engine::StageStats*) {
  using S = engine::StageStats;
  return std::make_tuple(row("ran", &S::ran), row("ms", &S::ms));
}

constexpr auto fields(const engine::SolveStats*) {
  using S = engine::SolveStats;
  return std::make_tuple(row("wall_ms", &S::wall_ms),
                         row("states", &S::states),
                         row("nodes", &S::nodes),
                         row("scheduled", &S::scheduled),
                         row("components", &S::components),
                         row("cache_hit", &S::cache_hit),
                         row("component_cache_hits", &S::component_cache_hits),
                         row("components_deduped", &S::components_deduped),
                         row("dead_time_removed", &S::dead_time_removed),
                         row("memo_arena_solves", &S::memo_arena_solves),
                         row("memo_hash_solves", &S::memo_hash_solves),
                         row("memo_parallel_solves", &S::memo_parallel_solves),
                         row("memo_find_calls", &S::memo_find_calls),
                         row("memo_probe_steps", &S::memo_probe_steps),
                         row("memo_pruned", &S::memo_pruned),
                         row("stages", &S::stages));
}

constexpr auto fields(const engine::SolveResult*) {
  using S = engine::SolveResult;
  return std::make_tuple(row("ok", &S::ok), row("error", &S::error),
                         row("feasible", &S::feasible), row("cost", &S::cost),
                         row("transitions", &S::transitions),
                         row("timed_out", &S::timed_out),
                         row("audited", &S::audited),
                         row("audit_error", &S::audit_error),
                         row("stats", &S::stats),
                         row("schedule", &S::schedule));
}

constexpr auto fields(const engine::CacheStats*) {
  using S = engine::CacheStats;
  return std::make_tuple(row("hits", &S::hits), row("misses", &S::misses),
                         row("insertions", &S::insertions),
                         row("evictions", &S::evictions),
                         row("entries", &S::entries),
                         row("capacity", &S::capacity),
                         row("disk_hits", &S::disk_hits),
                         row("disk_rejects", &S::disk_rejects),
                         row("spilled", &S::spilled),
                         row("disk_entries", &S::disk_entries));
}

constexpr auto fields(const engine::pipeline::StageTally*) {
  using S = engine::pipeline::StageTally;
  return std::make_tuple(row("runs", &S::runs), row("skips", &S::skips),
                         row("total_ms", &S::total_ms));
}

constexpr auto fields(const engine::pipeline::PipelineStats*) {
  using S = engine::pipeline::PipelineStats;
  return std::make_tuple(row("requests", &S::requests),
                         row("stages", &S::stages));
}

constexpr auto fields(const ShardStatsWire*) {
  using S = ShardStatsWire;
  return std::make_tuple(row("shard", &S::shard),
                         row("requests", &S::requests),
                         row("rejected", &S::rejected),
                         row("timed_out", &S::timed_out),
                         row("refuted", &S::refuted),
                         row("cache_hits", &S::cache_hits),
                         row("component_cache_hits", &S::component_cache_hits),
                         row("pipeline", &S::pipeline));
}

constexpr auto fields(const ServerStatsWire*) {
  using S = ServerStatsWire;
  return std::make_tuple(row("cache", &S::cache), row("pipeline", &S::pipeline),
                         row("shards", &S::shards));
}

constexpr auto fields(const FrameHead*) {
  using S = FrameHead;
  return std::make_tuple(row("frame", &S::frame), row("id", &S::id),
                         row("deadline_ms", &S::deadline_ms),
                         row("message", &S::message));
}

/// A wire struct: one with a field table above.
template <typename S>
concept Tabled = requires(const S* s) { fields(s); };

/// The per-stage maps (SolveStats::stages, PipelineStats::stages): one
/// member per pipeline stage, keyed by its name.
template <typename T>
using StageMap = std::array<T, engine::kPipelineStageCount>;

// --------------------------------------------------------------- writing --
// Every document is one line: '"key": value' members joined by ','.

/// Writes one object member by member: key() opens a member and returns
/// the buffer its value goes to; close() ends the object.
class ObjectWriter {
 public:
  explicit ObjectWriter(std::string& out) : out_(out) {}

  std::string& key(std::string_view name) {
    out_ += first_ ? "{\"" : ",\"";
    first_ = false;
    out_ += name;
    out_ += "\": ";
    return out_;
  }

  void close() { out_ += first_ ? "{}" : "}"; }

 private:
  std::string& out_;
  bool first_ = true;
};

void put(std::string& out, bool value) { out += value ? "true" : "false"; }
void put(std::string& out, double value) { append_double(out, value); }
void put(std::string& out, const std::string& value) {
  append_escaped(out, value);
}
void put(std::string& out, engine::Objective objective) {
  append_escaped(out, engine::to_string(objective));
}
template <std::integral T>
void put(std::string& out, T value) {
  char buf[24];
  out.append(buf, std::to_chars(buf, buf + sizeof buf, value).ptr);
}

void put(std::string& out, const Instance& instance) {
  ObjectWriter w(out);
  put(w.key("processors"), instance.processors);
  w.key("jobs") += '[';
  for (std::size_t j = 0; j < instance.n(); ++j) {
    out += j == 0 ? "[" : ",[";
    const auto& intervals = instance.jobs[j].allowed.intervals();
    for (std::size_t k = 0; k < intervals.size(); ++k) {
      out += k == 0 ? "[" : ",[";
      put(out, intervals[k].lo);
      out += ',';
      put(out, intervals[k].hi);
      out += ']';
    }
    out += ']';
  }
  out += ']';
  w.close();
}

void put(std::string& out, const Schedule& schedule) {
  ObjectWriter w(out);
  put(w.key("jobs"), schedule.size());
  w.key("slots") += '[';
  bool first = true;
  for (std::size_t j = 0; j < schedule.size(); ++j) {
    const std::optional<Placement>& slot = schedule.at(j);
    if (!slot.has_value()) continue;
    if (!first) out += ',';
    first = false;
    ObjectWriter s(out);
    put(s.key("job"), j);
    put(s.key("time"), slot->time);
    put(s.key("processor"), slot->processor);
    s.close();
  }
  out += ']';
  w.close();
}

template <Tabled S>
void put(std::string& out, const S& s);

template <typename T>
void put(std::string& out, const StageMap<T>& stages) {
  ObjectWriter w(out);
  for (std::size_t i = 0; i < stages.size(); ++i) {
    put(w.key(engine::to_string(static_cast<engine::PipelineStage>(i))),
        stages[i]);
  }
  w.close();
}

template <typename T>
void put(std::string& out, const std::vector<T>& items) {
  out += '[';
  for (std::size_t i = 0; i < items.size(); ++i) {
    if (i > 0) out += ',';
    put(out, items[i]);
  }
  out += ']';
}

template <Tabled S>
void put_fields(ObjectWriter& w, const S& s) {
  std::apply([&](const auto&... f) { (put(w.key(f.key), s.*f.member), ...); },
             fields(&s));
}

template <Tabled S>
void put(std::string& out, const S& s) {
  ObjectWriter w(out);
  put_fields(w, s);
  w.close();
}

/// A tagged top-level document: {"gapsched": "<tag>", <s's members>}.
template <Tabled S>
std::string document(std::string_view tag, const S& s) {
  std::string out;
  ObjectWriter w(out);
  append_escaped(w.key("gapsched"), tag);
  put_fields(w, s);
  w.close();
  return out;
}

// --------------------------------------------------------------- reading --
// take(value, &member, why) reads one value: false on a wrong type or an
// out-of-range number. Absent members keep their defaults; a reader that
// knows more than "wrong type" says so in *why.

bool take(const JsonValue& v, bool* out, std::string*) {
  if (v.kind != JsonValue::Kind::kBool) return false;
  *out = v.boolean;
  return true;
}

bool take(const JsonValue& v, double* out, std::string*) {
  if (v.kind != JsonValue::Kind::kNumber) return false;
  *out = v.number;
  return true;
}

bool take(const JsonValue& v, std::string* out, std::string*) {
  if (v.kind != JsonValue::Kind::kString) return false;
  *out = v.string;
  return true;
}

/// An integer that fits T without truncation: out-of-range wire input
/// (a negative count, an int field past INT_MAX) must be a parse error,
/// never a plausible-looking wrong value.
template <std::integral T>
bool take(const JsonValue& v, T* out, std::string*) {
  if (v.kind != JsonValue::Kind::kNumber || !v.is_integer ||
      !std::in_range<T>(v.integer)) {
    return false;
  }
  *out = static_cast<T>(v.integer);
  return true;
}

/// An objective name; "" keeps the default.
bool take(const JsonValue& v, engine::Objective* out, std::string* why) {
  if (v.kind != JsonValue::Kind::kString) return false;
  if (v.string.empty()) return true;
  const auto objective = engine::objective_from_string(v.string);
  if (!objective.has_value()) {
    *why = "unknown objective '" + v.string + "'";
    return false;
  }
  *out = *objective;
  return true;
}

template <Tabled S>
bool take(const JsonValue& v, S* out, std::string* why);

/// Stages may be listed in any order or left out; unknown names are a
/// writer/reader version skew, never silently dropped.
template <typename T>
bool take(const JsonValue& v, StageMap<T>* out, std::string* why) {
  if (v.kind != JsonValue::Kind::kObject) return false;
  for (const auto& [name, entry] : v.members) {
    const auto stage = engine::pipeline_stage_from_string(name);
    if (!stage.has_value()) {
      *why = "unknown pipeline stage '" + name + "'";
      return false;
    }
    if (!take(entry, &(*out)[static_cast<std::size_t>(*stage)], why)) {
      if (why->empty()) *why = "malformed stage entry '" + name + "'";
      return false;
    }
  }
  return true;
}

template <typename T>
bool take(const JsonValue& v, std::vector<T>* out, std::string* why) {
  if (v.kind != JsonValue::Kind::kArray) return false;
  out->assign(v.elements.size(), T{});
  for (std::size_t i = 0; i < v.elements.size(); ++i) {
    if (!take(v.elements[i], &(*out)[i], why)) return false;
  }
  return true;
}

bool take(const JsonValue& v, Instance* out, std::string* why);
bool take(const JsonValue& v, Schedule* out, std::string* why);

/// Reads member `key` of `obj` when present; on failure *why names the
/// key unless a nested reader already said more.
template <typename T>
bool take_member(const JsonValue& obj, std::string_view key, T* out,
                 std::string* why) {
  const JsonValue* v = obj.find(key);
  if (v == nullptr || take(*v, out, why)) return true;
  if (why->empty()) *why = "malformed '" + std::string(key) + "' field";
  return false;
}

template <Tabled S>
bool take_fields(const JsonValue& obj, S* s, std::string* why) {
  return std::apply(
      [&](const auto&... f) {
        return (take_member(obj, f.key, &(s->*f.member), why) && ...);
      },
      fields(s));
}

template <Tabled S>
bool take(const JsonValue& v, S* out, std::string* why) {
  return v.kind == JsonValue::Kind::kObject && take_fields(v, out, why);
}

bool take(const JsonValue& v, Instance* out, std::string* why) {
  if (v.kind != JsonValue::Kind::kObject ||
      !take_member(v, "processors", &out->processors, why)) {
    return false;
  }
  const JsonValue* jobs = v.find("jobs");
  if (jobs == nullptr || jobs->kind != JsonValue::Kind::kArray) {
    *why = "missing 'jobs' array";
    return false;
  }
  out->jobs.clear();
  out->jobs.reserve(jobs->elements.size());
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
    out->jobs.push_back(Job{TimeSet(std::move(intervals))});
  }
  return true;
}

bool take(const JsonValue& v, Schedule* out, std::string* why) {
  std::size_t n = 0;
  if (v.kind != JsonValue::Kind::kObject ||
      !take_member(v, "jobs", &n, why)) {
    return false;
  }
  Schedule schedule(n);
  if (const JsonValue* slots = v.find("slots"); slots != nullptr) {
    if (slots->kind != JsonValue::Kind::kArray) {
      *why = "'schedule.slots' must be an array";
      return false;
    }
    for (const JsonValue& slot : slots->elements) {
      std::size_t job = n;  // absent: out of range
      Time time = 0;
      int processor = Placement::kUnassigned;
      if (slot.kind != JsonValue::Kind::kObject ||
          !take_member(slot, "job", &job, why) ||
          !take_member(slot, "time", &time, why) ||
          !take_member(slot, "processor", &processor, why) || job >= n) {
        *why = "malformed schedule slot";
        return false;
      }
      schedule.place(job, time, processor);
    }
  }
  *out = std::move(schedule);
  return true;
}

/// Sets *error when the caller asked for it; converts to any empty optional.
std::nullopt_t fail(std::string* error, std::string why) {
  if (error != nullptr) *error = std::move(why);
  return std::nullopt;
}

/// Parses `text` and reads its members into a fresh S. `what` names the
/// document in the not-an-object diagnostic.
template <Tabled S>
std::optional<S> read_document(std::string_view text, std::string_view what,
                               std::string* error) {
  Parser parser(text);
  const std::optional<JsonValue> doc = parser.parse(error);
  if (!doc.has_value()) return std::nullopt;
  if (doc->kind != JsonValue::Kind::kObject) {
    return fail(error, std::string(what) + " must be an object");
  }
  S s;
  std::string why;
  if (!take_fields(*doc, &s, &why)) return fail(error, std::move(why));
  return s;
}

}  // namespace

std::string request_to_json(std::string_view solver,
                            const engine::SolveRequest& request) {
  std::string out;
  ObjectWriter w(out);
  append_escaped(w.key("gapsched"), "request");
  append_escaped(w.key("solver"), solver);
  put_fields(w, request);
  w.close();
  return out;
}

std::optional<engine::SolveRequest> request_from_json(std::string_view text,
                                                      std::string* solver,
                                                      std::string* error) {
  Parser parser(text);
  const std::optional<JsonValue> doc = parser.parse(error);
  if (!doc.has_value()) return std::nullopt;
  if (doc->kind != JsonValue::Kind::kObject) {
    return fail(error, "request document must be an object");
  }
  std::string name, why;
  if (!take_member(*doc, "solver", &name, &why) || name.empty()) {
    return fail(error, "missing 'solver' field");
  }
  if (doc->find("instance") == nullptr) {
    return fail(error, "missing 'instance' object");
  }
  engine::SolveRequest request;
  if (!take_fields(*doc, &request, &why)) return fail(error, std::move(why));
  if (solver != nullptr) *solver = std::move(name);
  return request;
}

std::string result_to_json(const engine::SolveResult& result) {
  return document("result", result);
}

std::optional<engine::SolveResult> result_from_json(std::string_view text,
                                                    std::string* error) {
  return read_document<engine::SolveResult>(text, "result document", error);
}

std::string cache_stats_to_json(const engine::CacheStats& stats) {
  return document("cache_stats", stats);
}

std::optional<engine::CacheStats> cache_stats_from_json(std::string_view text,
                                                        std::string* error) {
  return read_document<engine::CacheStats>(text, "cache stats document",
                                           error);
}

std::string pipeline_stats_to_json(
    const engine::pipeline::PipelineStats& stats) {
  return document("pipeline_stats", stats);
}

std::optional<engine::pipeline::PipelineStats> pipeline_stats_from_json(
    std::string_view text, std::string* error) {
  return read_document<engine::pipeline::PipelineStats>(
      text, "pipeline stats document", error);
}

std::string server_stats_to_json(const ServerStatsWire& stats) {
  return document("server_stats", stats);
}

std::optional<ServerStatsWire> server_stats_from_json(std::string_view text,
                                                      std::string* error) {
  auto stats =
      read_document<ServerStatsWire>(text, "server stats document", error);
  if (!stats.has_value()) return std::nullopt;
  for (const ShardStatsWire& shard : stats->shards) {
    if (shard.shard < 0) return fail(error, "malformed 'shard' field");
  }
  return stats;
}

std::optional<FrameHead> frame_head_from_json(std::string_view text,
                                              std::string* error) {
  auto head = read_document<FrameHead>(text, "frame", error);
  if (!head.has_value()) return std::nullopt;
  if (head->frame.empty()) return fail(error, "missing 'frame' field");
  if (!std::isfinite(head->deadline_ms) || head->deadline_ms < 0.0) {
    return fail(error, "malformed 'deadline_ms' field");
  }
  return head;
}

}  // namespace gapsched::io
