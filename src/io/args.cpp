#include "io/args.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <type_traits>

namespace epismc::io {

namespace {

/// A flag value parsed whole: trailing characters, empty values,
/// out-of-range numbers, nan and inf are errors naming the flag.
template <typename T>
T parse_whole(const std::string& key, const std::string& value) {
  constexpr bool kInt = std::is_integral_v<T>;
  try {
    std::size_t used = 0;
    T v{};
    if constexpr (kInt) {
      v = std::stoll(value, &used);
    } else {
      v = std::stod(value, &used);
    }
    if (used == value.size() && std::isfinite(static_cast<double>(v))) {
      return v;
    }
  } catch (const std::exception&) {
  }
  throw std::invalid_argument("--" + key + " expects " +
                              (kInt ? "an integer" : "a finite number") +
                              ", got '" + value + "'");
}

template <typename T>
std::vector<T> parse_list(const std::string& key, const std::string& csv) {
  std::vector<T> out;
  std::size_t begin = 0;
  while (begin <= csv.size()) {
    const std::size_t comma = std::min(csv.find(',', begin), csv.size());
    const std::string item = csv.substr(begin, comma - begin);
    if (!item.empty()) out.push_back(parse_whole<T>(key, item));
    begin = comma + 1;
  }
  return out;
}

}  // namespace

Args::Args(int argc, const char* const* argv) {
  program_ = argc > 0 ? argv[0] : "";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      throw std::invalid_argument("expected --key[=value], got '" + arg + "'");
    }
    const std::string body = arg.substr(2);
    const std::size_t eq = body.find('=');
    if (eq == std::string::npos) {
      values_[body] = "true";
    } else {
      values_[body.substr(0, eq)] = body.substr(eq + 1);
    }
  }
}

bool Args::has(const std::string& key) const {
  used_.insert(key);
  return values_.find(key) != values_.end();
}

std::string Args::get_string(const std::string& key,
                             const std::string& fallback) const {
  used_.insert(key);
  const auto it = values_.find(key);
  return it == values_.end() ? fallback : it->second;
}

std::int64_t Args::get_int(const std::string& key, std::int64_t fallback) const {
  used_.insert(key);
  const auto it = values_.find(key);
  if (it == values_.end()) return fallback;
  return parse_whole<std::int64_t>(key, it->second);
}

double Args::get_double(const std::string& key, double fallback) const {
  used_.insert(key);
  const auto it = values_.find(key);
  if (it == values_.end()) return fallback;
  return parse_whole<double>(key, it->second);
}

bool Args::get_flag(const std::string& key) const {
  used_.insert(key);
  const auto it = values_.find(key);
  return it != values_.end() && it->second != "false" && it->second != "0";
}

std::vector<std::int64_t> Args::get_int_list(const std::string& key,
                                             const std::string& fallback) const {
  return parse_list<std::int64_t>(key, get_string(key, fallback));
}

std::vector<double> Args::get_double_list(const std::string& key,
                                          const std::string& fallback) const {
  return parse_list<double>(key, get_string(key, fallback));
}

void Args::check_unused() const {
  if (values_.count("help") != 0) throw std::invalid_argument("");
  for (const auto& [key, value] : values_) {
    if (used_.find(key) == used_.end()) {
      throw std::invalid_argument("unknown flag --" + key);
    }
  }
}

}  // namespace epismc::io
