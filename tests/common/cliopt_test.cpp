// Strict option parsing: the three historical fcm_tool defects — crash on a
// malformed number, silently dropped trailing flag, silently accepted
// unknown option — must all surface as CliError instead.
#include "common/cliopt.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace fcm::cli {
namespace {

Options parse(std::vector<const char*> argv,
              const std::vector<OptionSpec>& specs) {
  return parse_options(static_cast<int>(argv.size()), argv.data(), 0, specs);
}

const std::vector<OptionSpec> kSpecs = {
    {"threads"}, {"q"}, {"metrics", /*takes_value=*/false}};

TEST(CliOpt, ParsesDeclaredOptions) {
  const Options options =
      parse({"--threads", "4", "--q", "0.25", "--metrics"}, kSpecs);
  EXPECT_EQ(options.get_int("threads", 1), 4);
  EXPECT_DOUBLE_EQ(options.get_double("q", 0.0), 0.25);
  EXPECT_TRUE(options.flag("metrics"));
}

TEST(CliOpt, MissingOptionsFallBack) {
  const Options options = parse({}, kSpecs);
  EXPECT_EQ(options.get_int("threads", 7), 7);
  EXPECT_DOUBLE_EQ(options.get_double("q", 0.5), 0.5);
  EXPECT_FALSE(options.flag("metrics"));
  EXPECT_EQ(options.get("trace", "fallback"), "fallback");
}

TEST(CliOpt, GivenCoversFlagsAndValues) {
  const Options options = parse({"--q", "", "--metrics"}, kSpecs);
  EXPECT_TRUE(options.given("q"));  // an empty value still counts
  EXPECT_TRUE(options.given("metrics"));
  EXPECT_FALSE(options.given("threads"));
}

TEST(CliOpt, BareNamesMatchOldDrivers) {
  const Options options = parse({"threads", "8"}, kSpecs);
  EXPECT_EQ(options.get_int("threads", 1), 8);
}

TEST(CliOpt, MalformedIntegerThrowsInsteadOfAborting) {
  // The old driver called std::stoi unguarded: `--threads abc` terminated
  // the process via an uncaught std::invalid_argument.
  const Options options = parse({"--threads", "abc"}, kSpecs);
  EXPECT_THROW((void)options.get_int("threads", 1), CliError);
}

TEST(CliOpt, PartiallyNumericValuesAreRejected) {
  // std::stoi("3x") quietly returned 3; the full value must parse.
  EXPECT_THROW((void)parse({"--threads", "3x"}, kSpecs).get_int("threads", 1),
               CliError);
  EXPECT_THROW(
      (void)parse({"--threads", "1.5"}, kSpecs).get_int("threads", 1),
      CliError);
  EXPECT_THROW((void)parse({"--q", "0.5abc"}, kSpecs).get_double("q", 0.0),
               CliError);
  EXPECT_THROW((void)parse({"--q", ""}, kSpecs).get_double("q", 0.0),
               CliError);
}

TEST(CliOpt, NegativeAndScientificValuesParse) {
  const Options options = parse({"--threads", "-2", "--q", "1e-3"}, kSpecs);
  EXPECT_EQ(options.get_int("threads", 0), -2);
  EXPECT_DOUBLE_EQ(options.get_double("q", 0.0), 1e-3);
}

TEST(CliOpt, NegativeCountsThrowInsteadOfWrapping) {
  // A cast of get_int to uint32 turned "-1" into 4294967295.
  const Options options = parse({"--threads", "-1", "--q", "0"}, kSpecs);
  EXPECT_THROW((void)options.get_count("threads", 1), CliError);
  EXPECT_EQ(options.get_count("q", 5), 0u);
  EXPECT_EQ(options.get_count("missing", 7), 7u);
  EXPECT_THROW((void)options.get_count("missing", -1), CliError);
}

TEST(CliOpt, TrailingValuedOptionThrows) {
  // The old loop's `i + 1 < argc` guard silently dropped a trailing flag.
  EXPECT_THROW((void)parse({"--threads"}, kSpecs), CliError);
  EXPECT_THROW((void)parse({"--metrics", "--q"}, kSpecs), CliError);
}

TEST(CliOpt, UnknownOptionThrows) {
  EXPECT_THROW((void)parse({"--bogus", "3"}, kSpecs), CliError);
  EXPECT_THROW((void)parse({"--thread", "3"}, kSpecs), CliError);
}

TEST(CliOpt, ErrorMessagesAreOneLine) {
  try {
    (void)parse({"--threads", "abc"}, kSpecs).get_int("threads", 1);
    FAIL() << "expected CliError";
  } catch (const CliError& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("threads"), std::string::npos);
    EXPECT_NE(what.find("abc"), std::string::npos);
    EXPECT_EQ(what.find('\n'), std::string::npos);
  }
}

TEST(CliOpt, CliErrorIsAnFcmError) {
  // Drivers catch FcmError last; CliError must be distinguishable first.
  EXPECT_THROW((void)parse({"--bogus"}, kSpecs), FcmError);
}

TEST(CliOpt, FlagDoesNotConsumeFollowingToken) {
  const Options options = parse({"--metrics", "--threads", "2"}, kSpecs);
  EXPECT_TRUE(options.flag("metrics"));
  EXPECT_EQ(options.get_int("threads", 0), 2);
}

TEST(CliOpt, LastValueWins) {
  const Options options =
      parse({"--threads", "2", "--threads", "5"}, kSpecs);
  EXPECT_EQ(options.get_int("threads", 0), 5);
}

}  // namespace
}  // namespace fcm::cli
