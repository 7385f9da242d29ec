#pragma once

// Tiny CLI argument parser shared by bench binaries and examples.
// Accepts --key=value and --flag forms; anything unknown is an error so
// typos in experiment sweeps fail loudly instead of silently using defaults.
// Every command-line mistake throws std::invalid_argument; api::cli_main
// turns it into a usage message and exit code 2.

#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

namespace epismc::io {

class Args {
 public:
  Args(int argc, const char* const* argv);

  /// True when the argument was provided at all (value or bare flag);
  /// counts as a query for check_unused. Lets callers distinguish "apply
  /// this override" from "keep the session/config default".
  [[nodiscard]] bool has(const std::string& key) const;

  [[nodiscard]] std::string get_string(const std::string& key,
                                       const std::string& fallback) const;
  /// Numbers must parse whole: "1e3" is not an integer, "12abc" is not a
  /// number.
  [[nodiscard]] std::int64_t get_int(const std::string& key,
                                     std::int64_t fallback) const;
  [[nodiscard]] double get_double(const std::string& key,
                                  double fallback) const;
  [[nodiscard]] bool get_flag(const std::string& key) const;
  /// Comma-separated numbers ("1,2,4"); empty items are skipped.
  [[nodiscard]] std::vector<std::int64_t> get_int_list(
      const std::string& key, const std::string& fallback) const;
  [[nodiscard]] std::vector<double> get_double_list(
      const std::string& key, const std::string& fallback) const;

  /// Throws std::invalid_argument if any provided argument was never
  /// queried, or with an empty message if --help was passed; call last.
  void check_unused() const;

  /// Every key queried so far, sorted: after the last query, the flags
  /// this program accepts.
  [[nodiscard]] const std::set<std::string>& queried() const noexcept {
    return used_;
  }

  [[nodiscard]] const std::string& program() const noexcept { return program_; }

 private:
  std::string program_;
  std::map<std::string, std::string> values_;
  mutable std::set<std::string> used_;
};

}  // namespace epismc::io
