#pragma once
// Machine-readable benchmark baselines: a minimal ordered JSON value plus a
// writer that drops BENCH_<tag>.json next to the running binary's CWD. The
// T7/T8/T9 experiment binaries emit one file each so CI can archive the
// perf trajectory (per-family wall times, component counts, audit tallies)
// without scraping the human-oriented tables.
//
// Deliberately tiny: objects keep insertion order, numbers are either exact
// 64-bit integers or shortest-round-trip doubles, and NaN/inf — which JSON
// cannot spell — degrade to null so a family that never ran stays readable
// downstream. Strings and doubles go through the engine codec's writers
// (io::append_escaped, io::append_double), so both spell them alike.

#include <cstdint>
#include <fstream>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "gapsched/io/json.hpp"

namespace gapsched::bench {

class Json {
 public:
  Json() : kind_(Kind::kNull) {}
  Json(bool b) : kind_(Kind::kBool), bool_(b) {}
  Json(double d) : kind_(Kind::kDouble), double_(d) {}
  Json(int i) : kind_(Kind::kInt), int_(i) {}
  Json(std::int64_t i) : kind_(Kind::kInt), int_(i) {}
  Json(std::size_t u) : kind_(Kind::kInt), int_(static_cast<std::int64_t>(u)) {}
  Json(const char* s) : kind_(Kind::kString), string_(s) {}
  Json(std::string s) : kind_(Kind::kString), string_(std::move(s)) {}

  static Json object() {
    Json j;
    j.kind_ = Kind::kObject;
    return j;
  }
  static Json array() {
    Json j;
    j.kind_ = Kind::kArray;
    return j;
  }

  /// Appends a key to an object; keys are emitted in insertion order.
  Json& set(std::string key, Json value) {
    members_.emplace_back(std::move(key), std::move(value));
    return *this;
  }

  /// Appends an element to an array.
  Json& push(Json value) {
    elements_.push_back(std::move(value));
    return *this;
  }

  std::string dump(int indent = 2) const {
    std::string out;
    write(out, indent, 0);
    return out;
  }

 private:
  enum class Kind { kNull, kBool, kInt, kDouble, kString, kArray, kObject };

  void write(std::string& out, int indent, int depth) const {
    const std::string pad(static_cast<std::size_t>(indent) * (depth + 1), ' ');
    const std::string close_pad(static_cast<std::size_t>(indent) * depth, ' ');
    switch (kind_) {
      case Kind::kNull:
        out += "null";
        return;
      case Kind::kBool:
        out += bool_ ? "true" : "false";
        return;
      case Kind::kInt:
        out += std::to_string(int_);
        return;
      case Kind::kDouble:
        io::append_double(out, double_);
        return;
      case Kind::kString:
        io::append_escaped(out, string_);
        return;
      case Kind::kArray: {
        if (elements_.empty()) {
          out += "[]";
          return;
        }
        out += "[\n";
        for (std::size_t i = 0; i < elements_.size(); ++i) {
          out += pad;
          elements_[i].write(out, indent, depth + 1);
          if (i + 1 < elements_.size()) out += ',';
          out += '\n';
        }
        out += close_pad + "]";
        return;
      }
      case Kind::kObject: {
        if (members_.empty()) {
          out += "{}";
          return;
        }
        out += "{\n";
        for (std::size_t i = 0; i < members_.size(); ++i) {
          out += pad;
          io::append_escaped(out, members_[i].first);
          out += ": ";
          members_[i].second.write(out, indent, depth + 1);
          if (i + 1 < members_.size()) out += ',';
          out += '\n';
        }
        out += close_pad + "}";
        return;
      }
    }
  }

  Kind kind_;
  bool bool_ = false;
  std::int64_t int_ = 0;
  double double_ = 0.0;
  std::string string_;
  std::vector<Json> elements_;                          // kArray
  std::vector<std::pair<std::string, Json>> members_;   // kObject
};

/// Writes `root` as BENCH_<tag>.json in the current directory and echoes
/// the path (mirrors the CSV drop of bench::emit).
inline void emit_json(const std::string& tag, const Json& root) {
  const std::string path = "BENCH_" + tag + ".json";
  std::ofstream os(path);
  os << root.dump() << "\n";
  if (os) {
    std::cout << "[json] " << path << "\n";
  } else {
    std::cerr << "[json] failed to write " << path << "\n";
  }
}

}  // namespace gapsched::bench
