// Corruption matrix for the two text inputs every binary reads: the CSV
// reader (io::read_csv + CsvTable::column_as_double, the path observation
// files take) and the command-line parser (io::Args).
//
// Each seed input is mutated -- truncated at every byte, one bit flipped at
// every byte, rows made ragged, cells made non-finite, line ends switched
// to CRLF -- and every mutant must either parse or throw a typed error:
// std::invalid_argument (or std::out_of_range for a header that lost the
// column), never another exception and never a crash. A mutant that parses
// must not have read a value the input does not hold.
//
// This file runs in the unit group, so the sanitizer CI legs sweep the
// whole matrix under ASan + UBSan as well.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <functional>
#include <stdexcept>
#include <string>
#include <vector>

#include "io/args.hpp"
#include "io/csv.hpp"

namespace {

using namespace epismc;

enum class Outcome { kParsed, kTyped, kUntyped };

Outcome classify(const std::function<void()>& parse, const std::string& cell) {
  try {
    parse();
    return Outcome::kParsed;
  } catch (const std::invalid_argument&) {
    return Outcome::kTyped;
  } catch (const std::out_of_range&) {
    return Outcome::kTyped;
  } catch (const std::exception& e) {
    ADD_FAILURE() << cell << ": untyped exception escaped: " << e.what();
    return Outcome::kUntyped;
  }
}

// --- CSV --------------------------------------------------------------------

const std::vector<std::string> kColumns = {"day", "cases", "deaths"};
const std::string kCsv = "day,cases,deaths\n20,12,0\n21,7.5,1\n22,30,2\n";
const std::vector<std::vector<double>> kValues = {
    {20, 21, 22}, {12, 7.5, 30}, {0, 1, 2}};

std::filesystem::path csv_path() {
  return std::filesystem::temp_directory_path() / "epismc_text_corruption.csv";
}

/// Write `body`, read it back and parse every column of kColumns.
std::vector<std::vector<double>> read_columns(const std::string& body) {
  {
    std::ofstream out(csv_path(), std::ios::binary | std::ios::trunc);
    out << body;
  }
  const io::CsvTable table = io::read_csv(csv_path());
  std::vector<std::vector<double>> columns;
  for (const std::string& name : kColumns) {
    columns.push_back(table.column_as_double(name));
  }
  return columns;
}

Outcome classify_csv(const std::string& body, const std::string& cell,
                     std::vector<std::vector<double>>* parsed = nullptr) {
  return classify(
      [&] {
        auto columns = read_columns(body);
        if (parsed != nullptr) *parsed = std::move(columns);
      },
      cell);
}

TEST(TextCorruption, CsvSeedParses) {
  std::vector<std::vector<double>> parsed;
  ASSERT_EQ(classify_csv(kCsv, "clean", &parsed), Outcome::kParsed);
  EXPECT_EQ(parsed, kValues);
}

TEST(TextCorruption, CsvTruncationsParseAPrefixOrAreTyped) {
  for (std::size_t cut = 0; cut < kCsv.size(); ++cut) {
    const std::string cell = "truncate_" + std::to_string(cut);
    std::vector<std::vector<double>> parsed;
    const Outcome outcome = classify_csv(kCsv.substr(0, cut), cell, &parsed);
    ASSERT_NE(outcome, Outcome::kUntyped) << cell;
    if (outcome != Outcome::kParsed) continue;
    // Whole rows read as written; only the last row read may be cut short
    // inside its last cell ("7.5" -> "7.").
    for (std::size_t c = 0; c < kColumns.size(); ++c) {
      const std::vector<double>& got = parsed[c];
      ASSERT_LE(got.size(), kValues[c].size()) << cell;
      for (std::size_t r = 0; r < got.size(); ++r) {
        const bool last_cell = r + 1 == got.size() && c + 1 == kColumns.size();
        if (!last_cell) EXPECT_EQ(got[r], kValues[c][r]) << cell;
      }
    }
  }
}

TEST(TextCorruption, CsvBitFlipsParseOrAreTyped) {
  std::size_t typed = 0;
  for (std::size_t off = 0; off < kCsv.size(); ++off) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string mutant = kCsv;
      mutant[off] = static_cast<char>(mutant[off] ^ (1 << bit));
      const std::string cell =
          "flip_" + std::to_string(off) + "_b" + std::to_string(bit);
      std::vector<std::vector<double>> parsed;
      const Outcome outcome = classify_csv(mutant, cell, &parsed);
      ASSERT_NE(outcome, Outcome::kUntyped) << cell;
      if (outcome == Outcome::kTyped) {
        ++typed;
        continue;
      }
      for (const std::vector<double>& column : parsed) {
        for (const double v : column) EXPECT_TRUE(std::isfinite(v)) << cell;
      }
    }
  }
  // Most flips break a separator, a digit into a letter or the header.
  EXPECT_GT(typed, kCsv.size() * 4);
}

TEST(TextCorruption, CsvRaggedRowsAreTypedAndNameTheLine) {
  const std::string header = "day,cases,deaths\n";
  const std::string rows[] = {
      "21,7\n",        // a cell short
      "21,7,1,9\n",    // a cell long: a stray comma shifted the cells
      "21,7,1,\n",     // a trailing comma
      "21\n",          // one cell
      ",,\n",          // all cells empty
  };
  for (const std::string& row : rows) {
    const std::string body = header + "20,12,0\n" + row;
    SCOPED_TRACE(row);
    EXPECT_EQ(classify_csv(body, row), Outcome::kTyped);
    try {
      (void)read_columns(body);
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("line 3"), std::string::npos)
          << e.what();
    }
  }
}

TEST(TextCorruption, CsvNonFiniteCellsAreTyped) {
  // Beyond the spellings Csv.ColumnAsDoubleRejectsMalformedCells covers.
  for (const std::string cell : {"NaN", "-nan", "infinity", "-1e999",
                                 "0x1p2000", " ", "1 ", "1e", "--1"}) {
    const std::string body = "day,cases,deaths\n20," + cell + ",0\n";
    EXPECT_EQ(classify_csv(body, cell), Outcome::kTyped) << "'" << cell << "'";
  }
}

TEST(TextCorruption, CsvCrlfReadsAsLf) {
  std::string crlf;
  for (const char c : kCsv) {
    if (c == '\n') crlf += '\r';
    crlf += c;
  }
  std::vector<std::vector<double>> parsed;
  ASSERT_EQ(classify_csv(crlf, "crlf", &parsed), Outcome::kParsed);
  EXPECT_EQ(parsed, kValues);
  // Blank CRLF lines are skipped like blank LF lines, and line numbers
  // still count them.
  const io::CsvTable blank = [] {
    {
      std::ofstream out(csv_path(), std::ios::binary | std::ios::trunc);
      out << "day,cases,deaths\r\n\r\n20,12,0\r\n";
    }
    return io::read_csv(csv_path());
  }();
  ASSERT_EQ(blank.rows.size(), 1u);
  EXPECT_EQ(blank.line_of(0), 3u);
  // A stray CR inside a line is not a line end: the cell is malformed.
  EXPECT_EQ(classify_csv("day,cases,deaths\n20,1\r2,0\n", "inner_cr"),
            Outcome::kTyped);
}

TEST(TextCorruption, CsvEmptyAndMissingInputs) {
  // No header at all: the column is missing.
  EXPECT_EQ(classify_csv("", "empty"), Outcome::kTyped);
  // A header and no rows parses as empty columns.
  std::vector<std::vector<double>> parsed;
  ASSERT_EQ(classify_csv("day,cases,deaths\n", "header_only", &parsed),
            Outcome::kParsed);
  for (const auto& column : parsed) EXPECT_TRUE(column.empty());
  std::filesystem::remove(csv_path());
  EXPECT_THROW((void)io::read_csv(csv_path()), std::runtime_error);
}

// --- Args -------------------------------------------------------------------

const std::vector<std::string> kArgv = {"prog", "--n-params=60",
                                        "--threshold=0.5", "--list=1,2,4",
                                        "--check"};

/// Parse `argv` the way api::cli_main does: every query, then
/// check_unused(). Returns the parsed values through the pointers.
void parse_args(const std::vector<std::string>& argv, std::int64_t* n,
                double* threshold, std::vector<std::int64_t>* list) {
  std::vector<const char*> ptrs;
  for (const std::string& a : argv) ptrs.push_back(a.c_str());
  const io::Args args(static_cast<int>(ptrs.size()), ptrs.data());
  *n = args.get_int("n-params", 1);
  *threshold = args.get_double("threshold", 0.25);
  *list = args.get_int_list("list", "");
  (void)args.get_flag("check");
  args.check_unused();
}

Outcome classify_args(const std::vector<std::string>& argv,
                      const std::string& cell) {
  std::int64_t n = 0;
  double threshold = 0.0;
  std::vector<std::int64_t> list;
  const Outcome outcome =
      classify([&] { parse_args(argv, &n, &threshold, &list); }, cell);
  if (outcome == Outcome::kParsed) {
    EXPECT_TRUE(std::isfinite(threshold)) << cell;
  }
  return outcome;
}

TEST(TextCorruption, ArgsSeedParses) {
  std::int64_t n = 0;
  double threshold = 0.0;
  std::vector<std::int64_t> list;
  parse_args(kArgv, &n, &threshold, &list);
  EXPECT_EQ(n, 60);
  EXPECT_EQ(threshold, 0.5);
  EXPECT_EQ(list, (std::vector<std::int64_t>{1, 2, 4}));
}

TEST(TextCorruption, ArgsTruncationsAndBitFlipsParseOrAreTyped) {
  std::size_t typed = 0;
  for (std::size_t a = 1; a < kArgv.size(); ++a) {
    for (std::size_t cut = 0; cut < kArgv[a].size(); ++cut) {
      std::vector<std::string> argv = kArgv;
      argv[a].resize(cut);
      const std::string cell =
          "arg" + std::to_string(a) + "_truncate_" + std::to_string(cut);
      const Outcome outcome = classify_args(argv, cell);
      ASSERT_NE(outcome, Outcome::kUntyped) << cell;
      if (outcome == Outcome::kTyped) ++typed;
    }
    for (std::size_t off = 0; off < kArgv[a].size(); ++off) {
      for (int bit = 0; bit < 8; ++bit) {
        std::vector<std::string> argv = kArgv;
        argv[a][off] = static_cast<char>(argv[a][off] ^ (1 << bit));
        const std::string cell = "arg" + std::to_string(a) + "_flip_" +
                                 std::to_string(off) + "_b" +
                                 std::to_string(bit);
        const Outcome outcome = classify_args(argv, cell);
        ASSERT_NE(outcome, Outcome::kUntyped) << cell;
        if (outcome == Outcome::kTyped) ++typed;
      }
    }
  }
  EXPECT_GT(typed, 0u);
}

TEST(TextCorruption, ArgsBadFlagsAreTyped) {
  const std::vector<std::vector<std::string>> bad = {
      {"prog", "positional"},
      {"prog", "-n-params=60"},
      {"prog", "--"},
      {"prog", "--=5"},
      {"prog", "--n-param=60"},          // typo: never queried
      {"prog", "--n-params"},            // bare flag where a number is due
      {"prog", "--n-params=1e3"},
      {"prog", "--n-params=60.5"},
      {"prog", "--n-params=0x10"},
      {"prog", "--n-params=9223372036854775808"},
      {"prog", "--n-params= "},
      {"prog", "--threshold=nan"},
      {"prog", "--threshold=-nan"},
      {"prog", "--threshold=inf"},
      {"prog", "--threshold=-infinity"},
      {"prog", "--threshold=1e999"},
      {"prog", "--threshold=0.5x"},
      {"prog", "--list=1,x"},
      {"prog", "--list=1;2"},
      {"prog", "--list=1.5"},
      {"prog", "--help"},
  };
  for (const auto& argv : bad) {
    EXPECT_EQ(classify_args(argv, argv[1]), Outcome::kTyped) << argv[1];
  }
  // CRLF from a script with Windows line ends reaches argv as a trailing
  // CR: a number with it does not parse whole.
  EXPECT_EQ(classify_args({"prog", "--n-params=60\r"}, "crlf"),
            Outcome::kTyped);
}

}  // namespace
