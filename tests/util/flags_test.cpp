#include "gapsched/util/flags.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

namespace gapsched {
namespace {

TEST(Flags, NumbersAreReadWhole) {
  EXPECT_EQ(parse_number<int>("42"), 42);
  EXPECT_EQ(parse_number<int>("-3"), -3);
  EXPECT_EQ(parse_number<double>("2.5"), 2.5);
  EXPECT_EQ(parse_number<std::size_t>("7"), 7u);
  for (const char* text : {"2abc", "1.9", "", " 2", "2 ", "0x10", "+2"}) {
    EXPECT_FALSE(parse_number<int>(text).has_value()) << text;
  }
  for (const char* text : {"2.5zz", "", "2.5.1", "e5"}) {
    EXPECT_FALSE(parse_number<double>(text).has_value()) << text;
  }
  EXPECT_FALSE(parse_number<int>("2147483648").has_value());
  EXPECT_FALSE(parse_number<double>("1e999").has_value());
  // A floating-point number may be non-finite; whoever uses it decides.
  EXPECT_EQ(parse_number<double>("inf"),
            std::numeric_limits<double>::infinity());
}

TEST(Flags, UnsignedTypesRefuseASign) {
  EXPECT_FALSE(parse_number<std::size_t>("-1").has_value());
  EXPECT_FALSE(parse_number<std::uint64_t>("-0").has_value());
  EXPECT_FALSE(parse_number<unsigned>("+1").has_value());
  EXPECT_FALSE(parse_number<std::uint64_t>("18446744073709551616")
                   .has_value());
  EXPECT_EQ(parse_number<std::uint64_t>("18446744073709551615"),
            std::numeric_limits<std::uint64_t>::max());
}

struct Opts {
  double alpha = 2.0;
  std::size_t spans = 1;
  int swap = 2;
  std::string name;
  bool json = false;
};

constexpr unsigned kAlphaBit = 1u << 0;

constexpr Flag<Opts> kRows[] = {
    {"--alpha", "<a>", "wake-up cost", kAlphaBit,
     [](Opts& o, std::string_view v) { return read_value(v, &o.alpha); }},
    {"--spans", "<k>", "span budget", 0,
     [](Opts& o, std::string_view v) { return read_value(v, &o.spans); }},
    {"--swap", "<s>", "swap size", 0,
     [](Opts& o, std::string_view v) { return read_value(v, &o.swap); }},
    {"--name", "<n>", "a string value", 0,
     [](Opts& o, std::string_view v) { return read_value(v, &o.name); }},
    {"--json", "",
     "a switch whose help runs long enough that the usage text has to wrap "
     "it over more than one line of the help column",
     0, [](Opts& o, std::string_view) {
       o.json = true;
       return true;
     }},
};

std::string parse(const std::vector<std::string>& args, Opts* opts,
                  std::vector<std::string>* positionals = nullptr,
                  unsigned consumes = ~0u) {
  std::vector<std::string> ignored;
  return parse_flags<Opts>(kRows, args, opts,
                           positionals != nullptr ? positionals : &ignored,
                           consumes, "solver 'x'");
}

TEST(Flags, ParsesEveryRowAndKeepsPositionals) {
  Opts opts;
  std::vector<std::string> positionals;
  ASSERT_EQ(parse({"a.txt", "--alpha", "2.5", "--spans", "3", "--swap", "-1",
                   "--name", "-x", "--json", "b"},
                  &opts, &positionals),
            "");
  EXPECT_EQ(opts.alpha, 2.5);
  EXPECT_EQ(opts.spans, 3u);
  EXPECT_EQ(opts.swap, -1);
  EXPECT_EQ(opts.name, "-x");
  EXPECT_TRUE(opts.json);
  EXPECT_EQ(positionals, (std::vector<std::string>{"a.txt", "b"}));
}

TEST(Flags, BadNumbersAreRefusedByName) {
  for (const std::vector<std::string>& args :
       std::vector<std::vector<std::string>>{{"--spans", "2abc"},
                                             {"--alpha", "2.5zz"},
                                             {"--swap", "1.9"},
                                             {"--spans", "-1"}}) {
    Opts opts;
    EXPECT_EQ(parse(args, &opts), "bad numeric argument near '" + args[0] + "'");
  }
}

TEST(Flags, MissingValueAndUnknownOptionAreRefused) {
  Opts opts;
  EXPECT_EQ(parse({"--alpha"}, &opts), "option '--alpha' needs a value <a>");
  EXPECT_EQ(parse({"--spans", "2", "--bogus"}, &opts),
            "unknown option '--bogus'");
  EXPECT_EQ(parse({"-"}, &opts), "unknown option '-'");
}

TEST(Flags, ARowNeedingWhatTheConsumerLacksIsRefused) {
  Opts opts;
  EXPECT_EQ(parse({"--alpha", "3"}, &opts, nullptr, 0u),
            "option '--alpha' does not apply to solver 'x'");
  EXPECT_EQ(opts.alpha, 2.0);
  EXPECT_EQ(parse({"--alpha", "3", "--spans", "4"}, &opts, nullptr, kAlphaBit),
            "");
  EXPECT_EQ(opts.alpha, 3.0);
  EXPECT_EQ(parse({"--spans", "5"}, &opts, nullptr, 0u), "");
}

TEST(Flags, UsageListsEveryRowOnce) {
  const std::string usage = flag_usage<Opts>(kRows);
  for (const Flag<Opts>& row : kRows) {
    std::string head = "  " + std::string(row.name);
    if (!row.metavar.empty()) head += " " + std::string(row.metavar);
    const std::size_t at = usage.find(head + " ");
    ASSERT_NE(at, std::string::npos) << head;
    EXPECT_EQ(usage.find("  " + std::string(row.name) + " ", at + 1),
              std::string::npos)
        << head;
  }
  std::size_t lines = 0;
  for (std::size_t begin = 0; begin < usage.size();) {
    const std::size_t end = usage.find('\n', begin);
    ASSERT_NE(end, std::string::npos);
    EXPECT_LE(end - begin, 79u) << usage.substr(begin, end - begin);
    begin = end + 1;
    ++lines;
  }
  EXPECT_GT(lines, std::size(kRows));  // the long help wrapped
}

}  // namespace
}  // namespace gapsched
