#pragma once
// Command-line options as one table: a front end lists each option once,
// as a Flag row, and parse_flags (parsing and the applies check) and
// flag_usage (the usage text) both read the rows, so they cannot drift
// apart. parse_number also reads the numbers of io/serialize.hpp.

#include <algorithm>
#include <charconv>
#include <optional>
#include <span>
#include <sstream>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

namespace gapsched {

/// `text` read as a T only when the whole token is one number: "2abc",
/// "2.5zz" and, for an integer type, "1.9" are nullopt, as is a sign for
/// an unsigned type and a value outside T's range. A floating-point T
/// takes "inf" and "nan"; range rules belong to whoever uses the value.
template <typename T>
std::optional<T> parse_number(std::string_view text) {
  static_assert(std::is_arithmetic_v<T> && !std::is_same_v<T, bool>);
  if (text.empty()) return std::nullopt;
  T value{};
  const char* last = text.data() + text.size();
  const auto [end, ec] = std::from_chars(text.data(), last, value);
  if (ec != std::errc{} || end != last) return std::nullopt;
  return value;
}

/// Stores `text` in *field: through parse_number for a number, as is for
/// a string. False when the number cannot be read.
template <typename T>
bool read_value(std::string_view text, T* field) {
  if constexpr (std::is_arithmetic_v<T>) {
    const std::optional<T> value = parse_number<T>(text);
    if (value) *field = *value;
    return value.has_value();
  } else {
    *field = T(text);
    return true;
  }
}

/// One option of a front end that parses into an `Options` value.
template <typename Options>
struct Flag {
  std::string_view name;     ///< the spelling, e.g. "--alpha"
  std::string_view metavar;  ///< e.g. "<a>"; empty for a switch (no value)
  std::string_view help;     ///< one paragraph; flag_usage wraps it
  /// Bits the consumer must take for the option to apply (solver_cli: the
  /// engine::ParamFlag a solver consumes); 0 applies to every consumer.
  unsigned needs = 0;
  /// Stores the value (empty for a switch); false when it is unreadable.
  bool (*set)(Options&, std::string_view value) = nullptr;
};

/// Reads `args` in order against `flags` into *options. An argument that
/// does not start with '-' is appended to *positionals, and is an error
/// when that is null. Returns "" on success, else the diagnostic for the
/// first bad argument: an unexpected or unknown one, an option without its
/// value, an option whose `needs` bits are not all in `consumes`, or a
/// value its row cannot read.
template <typename Options>
std::string parse_flags(std::span<const Flag<Options>> flags,
                        std::span<const std::string> args, Options* options,
                        std::vector<std::string>* positionals = nullptr,
                        unsigned consumes = ~0u,
                        const std::string& consumer = {}) {
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& arg = args[i];
    if (arg.empty() || arg[0] != '-') {
      if (positionals == nullptr) return "unexpected argument '" + arg + "'";
      positionals->push_back(arg);
      continue;
    }
    const auto row =
        std::ranges::find(flags, std::string_view(arg), &Flag<Options>::name);
    if (row == flags.end()) return "unknown option '" + arg + "'";
    if ((row->needs & ~consumes) != 0) {
      return "option '" + arg + "' does not apply to " + consumer;
    }
    std::string_view value;
    if (!row->metavar.empty()) {
      if (i + 1 == args.size()) {
        return "option '" + arg + "' needs a value " +
               std::string(row->metavar);
      }
      value = args[++i];
    }
    if (!row->set(*options, value)) {
      return "bad numeric argument near '" + arg + "'";
    }
  }
  return "";
}

/// The options block of a usage text: every row once, in table order, as
/// "  <name> <metavar>" and its help wrapped into a column that ends at
/// 79 characters.
template <typename Options>
std::string flag_usage(std::span<const Flag<Options>> flags) {
  constexpr std::size_t kWidth = 79;
  std::size_t column = 0;
  for (const Flag<Options>& flag : flags) {
    column = std::max(column, flag.name.size() + flag.metavar.size() + 5);
  }
  std::string out;
  for (const Flag<Options>& flag : flags) {
    std::string line = "  " + std::string(flag.name);
    if (!flag.metavar.empty()) (line += ' ') += flag.metavar;
    line.resize(column - 1, ' ');
    std::istringstream words{std::string(flag.help)};
    for (std::string word; words >> word;) {
      if (line.size() >= column && line.size() + 1 + word.size() > kWidth) {
        out += line + '\n';
        line.assign(column - 1, ' ');
      }
      (line += ' ') += word;
    }
    out += line + '\n';
  }
  return out;
}

}  // namespace gapsched
