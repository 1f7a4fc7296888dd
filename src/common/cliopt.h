// Strict command-line option parsing for the example drivers.
//
// The original fcm_tool loop silently dropped a trailing flag with no
// value, accepted unknown options, and let std::stoi abort the process on
// `--threads abc`. This parser is the shared fix: options are declared up
// front (flag vs. value-taking), every token must match a declaration, and
// typed getters validate the *entire* value. All failures throw `CliError`
// with a one-line message, so drivers can print it plus their usage text
// and exit non-zero instead of crashing.
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "common/error.h"

namespace fcm::cli {

/// Thrown for any command-line defect: unknown option, missing value,
/// malformed number. Derived from FcmError but caught separately by the
/// drivers, which add their usage text to the report.
class CliError : public FcmError {
 public:
  using FcmError::FcmError;
};

/// One declared option, without the leading "--".
struct OptionSpec {
  std::string name;
  bool takes_value = true;
};

/// Parsed options: flags present and name -> value pairs.
class Options {
 public:
  /// Whether a boolean flag (e.g. --metrics) was given.
  [[nodiscard]] bool flag(const std::string& name) const;

  /// Whether the option was given at all, as a flag or with a value (even
  /// an empty one).
  [[nodiscard]] bool given(const std::string& name) const;

  /// The raw value, or `fallback` when the option was not given.
  [[nodiscard]] std::string get(const std::string& name,
                                std::string fallback) const;

  /// Integer value; throws CliError when the value is not entirely a
  /// base-10 integer (e.g. "abc", "3x", "1.5") or does not fit an int.
  [[nodiscard]] int get_int(const std::string& name, int fallback) const;

  /// A count (trials, threads, workers, ...): get_int's value, which must
  /// not be negative. Throws CliError instead of letting -1 wrap around to
  /// 4294967295.
  [[nodiscard]] std::uint32_t get_count(const std::string& name,
                                        int fallback) const;

  /// Double value; throws CliError when the value is not entirely a
  /// decimal number.
  [[nodiscard]] double get_double(const std::string& name,
                                  double fallback) const;

  void set_flag(std::string name);
  void set_value(std::string name, std::string value);

 private:
  std::set<std::string> flags_;
  std::map<std::string, std::string> values_;
};

/// Parses argv[first..argc) against `specs`. Every token must be a declared
/// "--name" (a bare "name" is accepted too, matching the old drivers);
/// value-taking options consume the next token. Throws CliError on an
/// unknown option or a trailing option with no value.
[[nodiscard]] Options parse_options(int argc, const char* const* argv,
                                    int first,
                                    const std::vector<OptionSpec>& specs);

}  // namespace fcm::cli
