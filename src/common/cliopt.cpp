#include "common/cliopt.h"

#include <charconv>
#include <cstdlib>

namespace fcm::cli {

bool Options::flag(const std::string& name) const {
  return flags_.count(name) > 0;
}

bool Options::given(const std::string& name) const {
  return flag(name) || values_.count(name) > 0;
}

std::string Options::get(const std::string& name, std::string fallback) const {
  const auto it = values_.find(name);
  return it == values_.end() ? std::move(fallback) : it->second;
}

int Options::get_int(const std::string& name, int fallback) const {
  const auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  const std::string& text = it->second;
  int value = 0;
  const auto [end, ec] =
      std::from_chars(text.data(), text.data() + text.size(), value);
  if (ec != std::errc{} || end != text.data() + text.size()) {
    throw CliError("option --" + name + " expects an integer, got '" + text +
                   "'");
  }
  return value;
}

std::uint32_t Options::get_count(const std::string& name,
                                 int fallback) const {
  const int value = get_int(name, fallback);
  if (value < 0) {
    throw CliError("option --" + name + " must be >= 0, got " +
                   std::to_string(value));
  }
  return static_cast<std::uint32_t>(value);
}

double Options::get_double(const std::string& name, double fallback) const {
  const auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  const std::string& text = it->second;
  const char* begin = text.c_str();
  char* end = nullptr;
  const double value = std::strtod(begin, &end);
  if (text.empty() || end != begin + text.size()) {
    throw CliError("option --" + name + " expects a number, got '" + text +
                   "'");
  }
  return value;
}

void Options::set_flag(std::string name) { flags_.insert(std::move(name)); }

void Options::set_value(std::string name, std::string value) {
  values_[std::move(name)] = std::move(value);
}

Options parse_options(int argc, const char* const* argv, int first,
                      const std::vector<OptionSpec>& specs) {
  Options options;
  for (int i = first; i < argc; ++i) {
    std::string name = argv[i];
    if (name.rfind("--", 0) == 0) name = name.substr(2);
    const OptionSpec* spec = nullptr;
    for (const OptionSpec& candidate : specs) {
      if (candidate.name == name) {
        spec = &candidate;
        break;
      }
    }
    if (spec == nullptr) {
      throw CliError("unknown option '" + std::string(argv[i]) + "'");
    }
    if (!spec->takes_value) {
      options.set_flag(name);
      continue;
    }
    if (i + 1 >= argc) {
      throw CliError("option --" + name + " requires a value");
    }
    options.set_value(name, argv[++i]);
  }
  return options;
}

}  // namespace fcm::cli
