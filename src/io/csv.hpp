#pragma once

// Minimal CSV emission/parsing for experiment artifacts. Every bench binary
// dumps its series as CSV next to the console output so figures can be
// re-plotted without re-running the experiment.

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

namespace epismc::io {

class CsvWriter {
 public:
  CsvWriter(const std::filesystem::path& path,
            const std::vector<std::string>& header);

  /// Write one row; the field count must match the header.
  void row(const std::vector<std::string>& fields);

  /// Convenience: format arbitrary streamable values.
  template <typename... Ts>
  void row_values(const Ts&... values) {
    std::vector<std::string> fields;
    fields.reserve(sizeof...(values));
    (fields.push_back(format(values)), ...);
    row(fields);
  }

  [[nodiscard]] std::size_t rows_written() const noexcept { return rows_; }

 private:
  template <typename T>
  static std::string format(const T& v) {
    std::ostringstream os;
    os << v;
    return os.str();
  }

  std::ofstream out_;
  std::size_t columns_;
  std::size_t rows_ = 0;
};

/// Parsed CSV: header plus string cells (numeric parsing left to the caller).
struct CsvTable {
  std::vector<std::string> header;
  std::vector<std::vector<std::string>> rows;
  /// 1-based file line of each row; read_csv fills it (blank lines are
  /// skipped, so rows and lines can drift apart). A hand-built table may
  /// leave it empty, and then row r is reported as line r + 2.
  std::vector<std::size_t> lines;

  [[nodiscard]] std::size_t column_index(const std::string& name) const;
  /// File line of row `row`, for error messages.
  [[nodiscard]] std::size_t line_of(std::size_t row) const;
  /// Every cell of the column parsed whole as a finite number. A cell
  /// with trailing characters, an empty cell, nan, inf, a value out of
  /// double range or a row whose cell count is not the header's throws
  /// std::invalid_argument naming the column, the line and the cell.
  [[nodiscard]] std::vector<double> column_as_double(
      const std::string& name) const;
};

[[nodiscard]] CsvTable read_csv(const std::filesystem::path& path);

/// Split one CSV line on commas (no quoting support; writers never quote).
[[nodiscard]] std::vector<std::string> split_csv_line(const std::string& line);

}  // namespace epismc::io
