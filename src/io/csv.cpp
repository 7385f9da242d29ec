#include "io/csv.hpp"

#include <cmath>
#include <stdexcept>

namespace epismc::io {

CsvWriter::CsvWriter(const std::filesystem::path& path,
                     const std::vector<std::string>& header)
    : out_(path), columns_(header.size()) {
  if (!out_) {
    throw std::runtime_error("CsvWriter: cannot open " + path.string());
  }
  if (header.empty()) {
    throw std::invalid_argument("CsvWriter: empty header");
  }
  for (std::size_t i = 0; i < header.size(); ++i) {
    out_ << header[i] << (i + 1 < header.size() ? "," : "\n");
  }
}

void CsvWriter::row(const std::vector<std::string>& fields) {
  if (fields.size() != columns_) {
    throw std::invalid_argument("CsvWriter: field count mismatch");
  }
  for (std::size_t i = 0; i < fields.size(); ++i) {
    out_ << fields[i] << (i + 1 < fields.size() ? "," : "\n");
  }
  ++rows_;
}

std::vector<std::string> split_csv_line(const std::string& line) {
  std::vector<std::string> fields;
  std::string cell;
  std::istringstream ss(line);
  while (std::getline(ss, cell, ',')) fields.push_back(cell);
  if (!line.empty() && line.back() == ',') fields.emplace_back();
  return fields;
}

std::size_t CsvTable::column_index(const std::string& name) const {
  for (std::size_t i = 0; i < header.size(); ++i) {
    if (header[i] == name) return i;
  }
  throw std::out_of_range("CsvTable: no column named " + name);
}

std::size_t CsvTable::line_of(std::size_t row) const {
  return row < lines.size() ? lines[row] : row + 2;
}

std::vector<double> CsvTable::column_as_double(const std::string& name) const {
  const std::size_t idx = column_index(name);
  std::vector<double> out;
  out.reserve(rows.size());
  for (std::size_t r = 0; r < rows.size(); ++r) {
    const auto fail = [&](const std::string& what) {
      throw std::invalid_argument("CsvTable: column '" + name + "', line " +
                                  std::to_string(line_of(r)) + ": " + what);
    };
    if (idx >= rows[r].size()) {
      fail("the row has " + std::to_string(rows[r].size()) +
           " cell(s), the header " + std::to_string(header.size()));
    }
    const std::string& cell = rows[r][idx];
    double v = 0.0;
    std::size_t used = 0;
    try {
      v = std::stod(cell, &used);
    } catch (const std::exception&) {
      // No number at all, or out of double range: reported below.
    }
    if (used == 0 || used != cell.size() || !std::isfinite(v)) {
      fail("expected a finite number, got '" + cell + "'");
    }
    out.push_back(v);
  }
  return out;
}

CsvTable read_csv(const std::filesystem::path& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("read_csv: cannot open " + path.string());
  CsvTable table;
  std::string line;
  std::size_t line_no = 1;
  if (std::getline(in, line)) {
    if (!line.empty() && line.back() == '\r') line.pop_back();
    table.header = split_csv_line(line);
  }
  while (std::getline(in, line)) {
    ++line_no;
    if (!line.empty() && line.back() == '\r') line.pop_back();  // CRLF files
    if (line.empty()) continue;
    table.rows.push_back(split_csv_line(line));
    table.lines.push_back(line_no);
  }
  return table;
}

}  // namespace epismc::io
