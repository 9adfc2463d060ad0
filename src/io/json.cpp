#include "gapsched/io/json.hpp"

#include <algorithm>
#include <array>
#include <charconv>
#include <cmath>
#include <concepts>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <span>
#include <system_error>
#include <tuple>
#include <type_traits>
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

constexpr auto fields(const Instance*) {
  return std::make_tuple(row("processors", &Instance::processors),
                         row("jobs", &Instance::jobs));
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
                         row("rejected", &S::rejected),
                         row("feasible", &S::feasible),
                         row("timed_out", &S::timed_out),
                         row("audited", &S::audited),
                         row("refuted", &S::refuted),
                         row("cache_hits", &S::cache_hits),
                         row("component_cache_hits", &S::component_cache_hits),
                         row("stages", &S::stages));
}

constexpr auto fields(const ShardStatsWire*) {
  return std::tuple_cat(
      std::make_tuple(row("shard", &ShardStatsWire::shard)),
      fields(static_cast<const engine::pipeline::PipelineStats*>(nullptr)));
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

/// A request document: the request plus the name of the solver to run.
struct RequestDocument : engine::SolveRequest {
  std::string solver;
};

constexpr auto fields(const RequestDocument*) {
  return std::tuple_cat(
      std::make_tuple(row("solver", &RequestDocument::solver)),
      fields(static_cast<const engine::SolveRequest*>(nullptr)));
}

/// One schedule slot, [job,time,processor] on the wire; the object form
/// earlier writers emitted goes through the table. An absent job is out of
/// range.
struct Slot {
  std::size_t job = std::numeric_limits<std::size_t>::max();
  Time time = 0;
  int processor = Placement::kUnassigned;
};

constexpr auto fields(const Slot*) {
  return std::make_tuple(row("job", &Slot::job), row("time", &Slot::time),
                         row("processor", &Slot::processor));
}

/// A wire struct: one with a field table above.
template <typename S>
concept Tabled = requires(const S* s) { fields(s); };

/// S's field table, and its keys in table order.
template <Tabled S>
constexpr auto kTable = fields(static_cast<const S*>(nullptr));

template <Tabled S>
constexpr auto kKeys = std::apply(
    [](const auto&... f) {
      return std::array<std::string_view, sizeof...(f)>{f.key...};
    },
    kTable<S>);

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

/// Writes a fixed-length array: [a,b,...].
template <typename... T>
void put_tuple(std::string& out, const T&... values) {
  char sep = '[';
  ((out += std::exchange(sep, ','), put(out, values)), ...);
  out += ']';
}

void put(std::string& out, const Interval& iv) { put_tuple(out, iv.lo, iv.hi); }

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
    put_tuple(out, j, slot->time, slot->processor);
  }
  out += ']';
  w.close();
}

void put(std::string& out, const Job& job);
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
void put(std::string& out, std::span<const T> items) {
  out += '[';
  for (std::size_t i = 0; i < items.size(); ++i) {
    if (i > 0) out += ',';
    put(out, items[i]);
  }
  out += ']';
}
template <typename T>
void put(std::string& out, const std::vector<T>& items) {
  put(out, std::span<const T>(items));
}

void put(std::string& out, const Job& job) {
  put(out, job.allowed.intervals());
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
// One pull reader writes each value straight into its wire struct; keys and
// strings are views into the input unless they hold escapes. A syntax error
// (bad token, nesting past kMaxParseDepth, duplicate key, trailing bytes)
// ends the read. The first semantic error (wrong type, out-of-range number,
// unknown stage) is recorded and the rest is only validated, so a syntax
// error anywhere still wins. Absent members keep their defaults.

std::string malformed(std::string_view key) {
  return "malformed '" + std::string(key) + "' field";
}

std::uint64_t bit(int row) { return std::uint64_t{1} << row; }

class Reader {
  /// 2^53: every integer of at most this magnitude is exact in a double.
  static constexpr std::int64_t kExactIntInDouble = std::int64_t{1} << 53;
  /// Thrown by fail(): a syntax error ends the read.
  struct SyntaxError {
    std::string why;
  };

 public:
  explicit Reader(std::string_view text) : text_(text) {}

  /// Reads the document into *s; *seen (when given) gets one bit per table
  /// row present. False with *error set to the syntax error, if any, else
  /// to the first semantic one. `what` names the document for the
  /// not-an-object error.
  template <Tabled S>
  bool document(S* s, std::string_view what, std::uint64_t* seen,
                std::string* error) {
    try {
      if (!opens('{')) {
        mismatch(std::string(what) + " must be an object");
      } else if (const std::uint64_t rows = members(s); seen != nullptr) {
        *seen = rows;
      }
      skip_ws();
      if (pos_ != text_.size()) fail("trailing characters after document");
    } catch (SyntaxError& e) {
      semantic_ = std::move(e.why);  // outranks any semantic error
    }
    if (semantic_.empty()) return true;
    if (error != nullptr) *error = std::move(semantic_);
    return false;
  }

 private:
  [[noreturn]] void fail(std::string_view msg) {
    throw SyntaxError{std::string(msg) + " (at byte " + std::to_string(pos_) +
                      ")"};
  }

  void note(std::string why) {
    if (semantic_.empty()) semantic_ = std::move(why);
  }

  /// True once a semantic error is on record: values are then skipped.
  bool failed() const { return !semantic_.empty(); }

  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  /// Consumes `c` when it is the next non-blank byte.
  bool at(char c) {
    skip_ws();
    return pos_ < text_.size() && text_[pos_] == c && (++pos_, true);
  }

  /// The first byte of the next value. depth_ counts the levels already
  /// entered, so the value sits at level depth_ + 1: exactly the documents
  /// nested deeper than kMaxParseDepth fail.
  char begin() {
    if (depth_ >= kMaxParseDepth) fail("document nested too deeply");
    skip_ws();
    if (pos_ >= text_.size()) fail("unexpected end of document");
    return text_[pos_];
  }

  /// True when the next value opens with `c`; it stays unread either way.
  bool opens(char c) { return begin() == c; }

  void literal(std::string_view word) {
    if (text_.substr(pos_, word.size()) != word) fail("bad literal");
    pos_ += word.size();
  }

  /// Reads a number token; *integer (when given) gets it if the token is
  /// integral and fits int64.
  double number(std::optional<std::int64_t>* integer = nullptr) {
    const std::size_t start = pos_;
    const bool negative = pos_ < text_.size() && text_[pos_] == '-';
    std::int64_t v = 0;
    if (short_integer(&v)) {
      if (integer != nullptr) *integer = v;
      return v == 0 && negative ? -0.0 : static_cast<double>(v);
    }
    for (; pos_ < text_.size(); ++pos_) {
      const char c = text_[pos_];
      if (c >= '0' && c <= '9') continue;
      if (c != '.' && c != 'e' && c != 'E' && c != '+' && c != '-') break;
    }
    if (pos_ == start) fail("expected a value");
    const std::string_view token = text_.substr(start, pos_ - start);
    const char* last = token.data() + token.size();
    if (const auto [end, ec] = std::from_chars(token.data(), last, v);
        ec == std::errc{} && end == last) {
      // An integral token (-?[0-9]*) that fits int64 converts straight from
      // the view. Up to 2^53 in magnitude the double conversion is exact,
      // so it is what strtod reads ("-0..." included: -0.0).
      if (integer != nullptr) *integer = v;
      if (v >= -kExactIntInDouble && v <= kExactIntInDouble) {
        return v == 0 && negative ? -0.0 : static_cast<double>(v);
      }
    }
    // Fractions, exponents, and integers beyond the exact range.
    const std::string owned(token);
    char* end = nullptr;
    const double value = std::strtod(owned.c_str(), &end);
    if (end != owned.c_str() + owned.size()) fail("malformed number");
    return value;
  }

  /// Reads an integer token of at most 15 digits (below 2^53, so exact in
  /// a double) in the scan that finds its end: -?[0-9]{1,15} followed by
  /// a byte no number token holds. False, with pos_ unmoved, otherwise.
  bool short_integer(std::int64_t* out) {
    std::size_t i = pos_;
    const bool negative = i < text_.size() && text_[i] == '-';
    if (negative) ++i;
    const std::size_t digits = i;
    std::int64_t v = 0;
    while (i < text_.size() && i - digits < 16 && text_[i] >= '0' &&
           text_[i] <= '9') {
      v = v * 10 + (text_[i++] - '0');
    }
    if (i == digits || i - digits == 16 ||
        (i < text_.size() && continues_number(text_[i]))) {
      return false;
    }
    pos_ = i;
    *out = negative ? -v : v;
    return true;
  }

  /// True for the bytes a number token may hold after its first digit.
  static bool continues_number(char c) {
    return (c >= '0' && c <= '9') || c == '.' || c == 'e' || c == 'E' ||
           c == '+' || c == '-';
  }

  /// The string token at pos_: a view of the input when it has no escapes,
  /// else decoded into *scratch.
  std::string_view string(std::string* scratch) {
    const std::size_t start = ++pos_;  // opening quote
    while (pos_ < text_.size() && text_[pos_] != '"' && text_[pos_] != '\\') {
      ++pos_;
    }
    if (pos_ < text_.size() && text_[pos_] == '"') {
      return text_.substr(start, pos_++ - start);
    }
    scratch->assign(text_, start, pos_ - start);
    static constexpr std::string_view kEscapes = "\"\\/ntrbf";
    static constexpr std::string_view kDecoded = "\"\\/\n\t\r\b\f";
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') return *scratch;
      if (c != '\\') {
        *scratch += c;
      } else if (pos_ < text_.size() && text_[pos_] == 'u') {
        if (++pos_ + 4 > text_.size()) fail("truncated \\u escape");
        unsigned code = 0;
        const char* hex = text_.data() + pos_;
        if (std::from_chars(hex, hex + 4, code, 16).ptr != hex + 4) {
          fail("bad \\u escape");
        }
        pos_ += 4;
        // The engine documents are ASCII; anything else degrades to '?'.
        *scratch += code < 0x80 ? static_cast<char>(code) : '?';
      } else if (pos_ < text_.size()) {
        const std::size_t i = kEscapes.find(text_[pos_++]);
        if (i == std::string_view::npos) fail("unknown escape");
        *scratch += kDecoded[i];
      }
    }
    fail("unterminated string");
  }

  /// Walks the array at pos_, calling element() once per element.
  template <typename Element>
  void array(Element&& element) {
    ++pos_;  // '['
    ++depth_;
    if (!at(']')) {
      do {
        failed() ? skip() : element();
      } while (at(','));
      if (!at(']')) fail("expected ',' or ']'");
    }
    --depth_;
  }

  /// Walks the object at pos_. row(key) maps a key to its bit (0..63), or
  /// -1 when the key is unknown; member(row, key) reads the value. Returns
  /// the bits of the keys present. A duplicate key makes a document
  /// ambiguous (which value wins depends on the reader), so it is a syntax
  /// error, caught after decoding: known keys by the seen-bitmask, unknown
  /// ones (rare) in a list shared by the open objects.
  template <typename Row, typename Member>
  std::uint64_t object(Row&& row, Member&& member) {
    ++pos_;  // '{'
    ++depth_;
    std::uint64_t seen = 0;
    if (!at('}')) {
      const std::size_t unknown_base = unknown_keys_.size();
      std::string scratch;
      do {
        skip_ws();
        if (pos_ >= text_.size() || text_[pos_] != '"') {
          fail("expected an object key");
        }
        const std::string_view key = string(&scratch);
        const int r = row(key);
        if (r >= 0 ? (std::exchange(seen, seen | bit(r)) & bit(r)) != 0
                   : std::find(unknown_keys_.begin() + unknown_base,
                               unknown_keys_.end(),
                               key) != unknown_keys_.end()) {
          fail("duplicate object key '" + std::string(key) + "'");
        }
        if (r < 0) unknown_keys_.emplace_back(key);
        if (!at(':')) fail("expected ':'");
        failed() ? skip() : member(r, key);
      } while (at(','));
      if (!at('}')) fail("expected ',' or '}'");
      unknown_keys_.resize(unknown_base);
    }
    --depth_;
    return seen;
  }

  /// Reads and validates one value of any type, keeping nothing.
  void skip() {
    switch (begin()) {
      case '{':
        object([](std::string_view) { return -1; },
               [this](int, std::string_view) { skip(); });
        return;
      case '[': return array([this] { skip(); });
      case 't': return literal("true");
      case 'f': return literal("false");
      case 'n': return literal("null");
      case '"': string(&scratch_); return;
      default: number();
    }
  }

  /// Records `why` and skips the value it is about.
  void mismatch(std::string why) {
    note(std::move(why));
    skip();
  }

  /// Reads one bool, number or string into *out; false (the value
  /// skipped) on a wrong type. An integer must fit T without truncation:
  /// out-of-range wire input (a negative count, an int field past INT_MAX)
  /// is an error, never a plausible-looking wrong value.
  template <typename T>
  bool scalar(T* out) {
    const char c = begin();
    if constexpr (std::is_same_v<T, bool>) {
      if (c != 't' && c != 'f') return skip(), false;
      *out = c == 't';
      literal(*out ? "true" : "false");
    } else if constexpr (std::is_same_v<T, std::string>) {
      if (c != '"') return skip(), false;
      out->assign(string(&scratch_));
    } else {
      if (c == '{' || c == '[' || c == '"' || c == 't' || c == 'f' ||
          c == 'n') {
        return skip(), false;
      }
      if constexpr (std::is_floating_point_v<T>) {
        *out = number();
      } else {
        std::optional<std::int64_t> n;
        number(&n);
        if (!n.has_value() || !std::in_range<T>(*n)) return false;
        *out = static_cast<T>(*n);
      }
    }
    return true;
  }

  // ---- read(&member, key): one value into its wire member.

  template <typename T>
    requires std::is_arithmetic_v<T> || std::is_same_v<T, std::string>
  void read(T* out, std::string_view key) {
    if (!scalar(out)) note(malformed(key));
  }

  /// An objective name; "" keeps the default.
  void read(engine::Objective* out, std::string_view key) {
    std::string name;
    if (!scalar(&name)) return note(malformed(key));
    if (name.empty()) return;
    const auto objective = engine::objective_from_string(name);
    if (!objective.has_value()) return note("unknown objective '" + name + "'");
    *out = *objective;
  }

  template <Tabled S>
  void read(S* out, std::string_view key) {
    if (!opens('{')) return mismatch(malformed(key));
    members(out);
  }

  /// Reads the object at pos_ through S's field table; returns the bits of
  /// the rows present.
  template <Tabled S>
  std::uint64_t members(S* out) {
    constexpr auto& keys = kKeys<S>;
    return object(
        [](std::string_view key) {
          const auto it = std::find(keys.begin(), keys.end(), key);
          return it == keys.end() ? -1 : static_cast<int>(it - keys.begin());
        },
        [&](int r, std::string_view) {
          int i = 0;
          std::apply(
              [&](const auto&... f) {
                ((i++ == r ? read(&(out->*f.member), f.key) : void()), ...);
              },
              kTable<S>);
          if (r < 0) skip();
        });
  }

  /// Stages may be listed in any order or left out; unknown names are a
  /// writer/reader version skew, never silently dropped.
  template <typename T>
  void read(StageMap<T>* out, std::string_view key) {
    if (!opens('{')) return mismatch(malformed(key));
    object(
        [](std::string_view name) {
          const auto stage = engine::pipeline_stage_from_string(name);
          return stage.has_value() ? static_cast<int>(*stage) : -1;
        },
        [&](int r, std::string_view name) {
          if (r < 0) {
            return mismatch("unknown pipeline stage '" + std::string(name) +
                            "'");
          }
          read(&(*out)[static_cast<std::size_t>(r)], name);
        });
  }

  template <typename T>
  void read(std::vector<T>* out, std::string_view key) {
    if (!opens('[')) return mismatch(malformed(key));
    out->clear();
    array([&] {
      if (out->size() == kMaxJobs) {
        return mismatch("'" + std::string(key) + "' lists more than " +
                        std::to_string(kMaxJobs) + " entries");
      }
      read(&out->emplace_back(), key);
    });
  }

  /// An instance must list its jobs.
  void read(Instance* out, std::string_view key) {
    if (!opens('{')) return mismatch(malformed(key));
    if ((members(out) & bit(1)) == 0) note("missing 'jobs' array");
  }

  void read(Job* out, std::string_view) {
    if (!opens('[')) {
      return mismatch("each job must be an array of [lo, hi] intervals");
    }
    // A one-interval job (every Section 2 job) is read into `first` and
    // never allocates; a second interval starts `all`, which then holds
    // every interval.
    Interval first;
    std::vector<Interval> all;
    bool any = false;
    array([&] {
      if (any && all.empty()) all.push_back(first);
      Interval& iv = any ? all.emplace_back() : first;
      any = true;
      if (!tuple(&iv.lo, &iv.hi)) {
        note("each interval must be an integer pair [lo, hi]");
      } else if (!in_time_range(iv)) {
        note(std::string(kTimeRangeError));
      }
    });
    *out = Job{all.empty() ? TimeSet(first) : TimeSet(std::move(all))};
  }

  /// `jobs` and `slots` may come in either order. Slots after `jobs` go
  /// straight into *out, sized once. Slots before it are validated where
  /// they stand and placed by a second read of the same bytes once the
  /// object is read. Either way the `jobs` limit is checked after the
  /// object, and then every slot's job against the count.
  void read(Schedule* out, std::string_view key) {
    if (!opens('{')) return mismatch(malformed(key));
    static constexpr std::array<std::string_view, 2> kScheduleKeys = {
        "jobs", "slots"};
    std::size_t jobs = 0;
    bool sized = false;        // *out holds `jobs` empty slots
    bool out_of_range = false;
    std::size_t deferred = 0;  // byte where slots listed before jobs start
    int deferred_depth = -1;
    object(
        [](std::string_view k) {
          const auto it =
              std::find(kScheduleKeys.begin(), kScheduleKeys.end(), k);
          return it == kScheduleKeys.end()
                     ? -1
                     : static_cast<int>(it - kScheduleKeys.begin());
        },
        [&](int r, std::string_view k) {
          if (r < 0) return skip();
          if (r == 0) {
            read(&jobs, k);
            if (!failed() && jobs <= kMaxJobs) {
              *out = Schedule(jobs);
              sized = true;
            }
            return;
          }
          if (!sized) {
            skip_ws();
            deferred = pos_;
            deferred_depth = depth_;
          }
          slots(sized ? out : nullptr, k, &out_of_range);
        });
    if (jobs > kMaxJobs) {
      note("'jobs' count " + std::to_string(jobs) +
           " is above the limit of " + std::to_string(kMaxJobs));
    }
    if (failed()) return;
    if (!sized) *out = Schedule(jobs);  // no 'jobs' member: 0 jobs
    if (deferred_depth >= 0) {
      const std::size_t resume = pos_;
      const int depth = std::exchange(depth_, deferred_depth);
      pos_ = deferred;
      slots(out, "slots", &out_of_range);
      pos_ = resume;
      depth_ = depth;
    }
    if (out_of_range) note("malformed schedule slot");
  }

  /// Reads the slots array at pos_ into *target, which has one slot per
  /// job; null only validates. A slot naming a job past the target sets
  /// *out_of_range and is not placed; a later slot for the same job
  /// replaces an earlier one.
  void slots(Schedule* target, std::string_view key, bool* out_of_range) {
    if (!opens('[')) return mismatch(malformed(key));
    std::size_t count = 0;
    array([&] {
      if (count++ == kMaxJobs) {
        return mismatch("'" + std::string(key) + "' lists more than " +
                        std::to_string(kMaxJobs) + " entries");
      }
      Slot slot;
      read(&slot, key);
      if (target == nullptr || failed()) return;
      if (slot.job >= target->size()) {
        *out_of_range = true;
      } else {
        target->place(slot.job, slot.time, slot.processor);
      }
    });
  }

  /// [job,time,processor], or the object earlier writers emitted.
  void read(Slot* out, std::string_view) {
    if (begin() == '{') {
      members(out);
    } else if (!compact_slot(out) &&
               !tuple(&out->job, &out->time, &out->processor)) {
      note("malformed schedule slot");
    }
  }

  /// A slot as the writer spells it, "[job,time,processor]" with no blanks
  /// and each number a short integer in range, read in one scan. False,
  /// with pos_ unmoved, for any other spelling: tuple() then reads it.
  bool compact_slot(Slot* out) {
    const std::size_t start = pos_;
    const auto byte = [this](char c) {
      return pos_ < text_.size() && text_[pos_] == c && (++pos_, true);
    };
    std::int64_t job = 0;
    std::int64_t time = 0;
    std::int64_t processor = 0;
    if (depth_ + 1 < kMaxParseDepth && byte('[') && short_integer(&job) &&
        byte(',') && short_integer(&time) && byte(',') &&
        short_integer(&processor) && byte(']') && job >= 0 &&
        std::in_range<int>(processor)) {
      *out = Slot{static_cast<std::size_t>(job), time,
                  static_cast<int>(processor)};
      return true;
    }
    pos_ = start;
    return false;
  }

  /// Reads an array of exactly sizeof...(T) scalars into *out...; false
  /// (the value consumed) on any other shape or type.
  template <typename... T>
  bool tuple(T*... out) {
    if (!opens('[')) return skip(), false;
    bool ok = true;
    std::size_t count = 0;
    array([&] {
      std::size_t i = 0;
      if (!((i++ == count && (ok = scalar(out) && ok, true)) || ...)) skip();
      ++count;
    });
    return ok && count == sizeof...(T);
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  int depth_ = 0;
  std::string semantic_;
  std::string scratch_;  // decoded strings that are used at once
  std::vector<std::string> unknown_keys_;
};

/// Sets *error when the caller asked for it; converts to any empty optional.
std::nullopt_t fail(std::string* error, std::string why) {
  if (error != nullptr) *error = std::move(why);
  return std::nullopt;
}

/// Reads `text` into a fresh S; *seen (when given) gets one bit per table
/// row present. `what` names the document in the not-an-object diagnostic.
template <Tabled S>
std::optional<S> read_document(std::string_view text, std::string_view what,
                               std::string* error,
                               std::uint64_t* seen = nullptr) {
  S s;
  if (!Reader(text).document(&s, what, seen, error)) return std::nullopt;
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
  std::uint64_t seen = 0;
  auto doc = read_document<RequestDocument>(text, "request document", error,
                                            &seen);
  if (!doc.has_value()) return std::nullopt;
  if (doc->solver.empty()) return fail(error, "missing 'solver' field");
  static_assert(kKeys<RequestDocument>[3] == "instance");
  if ((seen & bit(3)) == 0) {
    return fail(error, "missing 'instance' object");
  }
  if (solver != nullptr) *solver = std::move(doc->solver);
  return std::move(static_cast<engine::SolveRequest&>(*doc));
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
  if (!(head->deadline_ms >= 0.0 && head->deadline_ms <= kMaxDeadlineMs)) {
    return fail(error, "malformed 'deadline_ms' field");
  }
  return head;
}

}  // namespace gapsched::io
