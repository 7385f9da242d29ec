// CSV writer/reader round-trips, console table rendering, ASCII charts and
// the CLI argument parser used by every bench binary.

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "io/args.hpp"
#include "io/csv.hpp"
#include "io/table.hpp"

namespace {

using namespace epismc::io;

TEST(Csv, WriteReadRoundTrip) {
  const auto path =
      std::filesystem::temp_directory_path() / "epismc_csv_test.csv";
  {
    CsvWriter w(path, {"day", "cases", "deaths"});
    w.row_values(1, 100, 2);
    w.row_values(2, 150.5, 3);
    EXPECT_EQ(w.rows_written(), 2u);
  }
  const CsvTable table = read_csv(path);
  ASSERT_EQ(table.header.size(), 3u);
  EXPECT_EQ(table.header[1], "cases");
  ASSERT_EQ(table.rows.size(), 2u);
  const auto cases = table.column_as_double("cases");
  EXPECT_DOUBLE_EQ(cases[0], 100.0);
  EXPECT_DOUBLE_EQ(cases[1], 150.5);
  EXPECT_THROW((void)table.column_index("missing"), std::out_of_range);
  std::filesystem::remove(path);
}

TEST(Csv, FieldCountEnforced) {
  const auto path =
      std::filesystem::temp_directory_path() / "epismc_csv_test2.csv";
  CsvWriter w(path, {"a", "b"});
  EXPECT_THROW(w.row({"only-one"}), std::invalid_argument);
  std::filesystem::remove(path);
}

// A one-column table whose only data row holds `cell`, read back through
// read_csv so the reported line is the file's.
std::string column_error(const std::string& body) {
  const auto path =
      std::filesystem::temp_directory_path() / "epismc_csv_bad_cell.csv";
  {
    std::ofstream out(path);
    out << body;
  }
  const CsvTable table = read_csv(path);
  std::filesystem::remove(path);
  try {
    (void)table.column_as_double("cases");
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return "";
}

TEST(Csv, ColumnAsDoubleRejectsMalformedCells) {
  struct Case {
    const char* body;
    const char* cell;
  };
  const Case cases[] = {
      {"day,cases\n1,12x\n", "'12x'"},   {"day,cases\n1,\n", "''"},
      {"day,cases\n1,nan\n", "'nan'"},   {"day,cases\n1,inf\n", "'inf'"},
      {"day,cases\n1,-inf\n", "'-inf'"}, {"day,cases\n1,1e400\n", "'1e400'"},
      {"day,cases\n1,x12\n", "'x12'"},   {"day,cases\n1,1.5.2\n", "'1.5.2'"},
  };
  for (const Case& c : cases) {
    const std::string msg = column_error(c.body);
    SCOPED_TRACE(c.body);
    ASSERT_FALSE(msg.empty()) << "accepted";
    EXPECT_NE(msg.find("'cases'"), std::string::npos) << msg;
    EXPECT_NE(msg.find("line 2"), std::string::npos) << msg;
    EXPECT_NE(msg.find(c.cell), std::string::npos) << msg;
  }
  // A ragged row names its line, counted past skipped blank lines.
  const std::string ragged = column_error("day,cases\n1,4\n\n3\n");
  EXPECT_NE(ragged.find("line 4"), std::string::npos) << ragged;
  EXPECT_NE(ragged.find("'cases'"), std::string::npos) << ragged;
  // Well-formed cells, CRLF line ends included, still read.
  EXPECT_EQ(column_error("day,cases\r\n1,12\r\n2,1e3\n3, 7\n"), "");
}

TEST(Csv, SplitLine) {
  EXPECT_EQ(split_csv_line("a,b,c").size(), 3u);
  EXPECT_EQ(split_csv_line("a,,c")[1], "");
  EXPECT_EQ(split_csv_line("a,b,").size(), 3u);
}

TEST(Table, RendersAligned) {
  Table t({"name", "value"});
  t.add_row_values("alpha", 1.5);
  t.add_row_values("b", 22);
  std::ostringstream os;
  t.print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("alpha"), std::string::npos);
  EXPECT_NE(out.find("1.500"), std::string::npos);
  EXPECT_NE(out.find("22"), std::string::npos);
  // Header separators rendered.
  EXPECT_NE(out.find("+--"), std::string::npos);
  EXPECT_THROW(t.add_row({"too", "many", "cells"}), std::invalid_argument);
}

TEST(Table, NumFormatsPrecision) {
  EXPECT_EQ(Table::num(1.23456, 2), "1.23");
  EXPECT_EQ(Table::num(2.0, 0), "2");
}

TEST(AsciiChart, ProducesExpectedDimensions) {
  std::vector<double> series;
  for (int i = 0; i < 100; ++i) series.push_back(static_cast<double>(i * i));
  const std::string chart = ascii_chart(series, 60, 10, true);
  // 10 canvas rows + axis row + legend row.
  int lines = 0;
  for (const char c : chart) lines += c == '\n' ? 1 : 0;
  EXPECT_EQ(lines, 12);
  EXPECT_NE(chart.find('#'), std::string::npos);
}

TEST(AsciiBandChart, MarksObservations) {
  const std::vector<double> lo = {1.0, 2.0, 3.0};
  const std::vector<double> mid = {2.0, 4.0, 6.0};
  const std::vector<double> hi = {4.0, 8.0, 12.0};
  const std::vector<double> obs = {2.5, 3.5, 7.0};
  const std::string chart = ascii_band_chart(lo, mid, hi, obs, 30, 8, false);
  EXPECT_TRUE(chart.find('o') != std::string::npos ||
              chart.find('@') != std::string::npos);
  EXPECT_NE(chart.find(':'), std::string::npos);
  const std::vector<double> bad = {1.0};
  EXPECT_THROW((void)ascii_band_chart(bad, mid, hi, obs, 30, 8, false),
               std::invalid_argument);
}

TEST(Args, ParsesKeysAndFlags) {
  const char* argv[] = {"prog", "--n=100", "--sigma=1.5", "--verbose",
                        "--name=test"};
  const Args args(5, argv);
  EXPECT_EQ(args.get_int("n", 0), 100);
  EXPECT_DOUBLE_EQ(args.get_double("sigma", 0.0), 1.5);
  EXPECT_TRUE(args.get_flag("verbose"));
  EXPECT_EQ(args.get_string("name", ""), "test");
  EXPECT_EQ(args.get_int("absent", -7), -7);
  EXPECT_FALSE(args.get_flag("quiet"));
  args.check_unused();
}

TEST(Args, UnknownArgumentCaught) {
  const char* argv[] = {"prog", "--typo=1"};
  const Args args(2, argv);
  (void)args.get_int("correct", 0);
  EXPECT_THROW(args.check_unused(), std::invalid_argument);
}

TEST(Args, RejectsPositional) {
  const char* argv[] = {"prog", "positional"};
  EXPECT_THROW(Args(2, argv), std::invalid_argument);
}

TEST(Args, FalseStringIsFalse) {
  const char* argv[] = {"prog", "--flag=false"};
  const Args args(2, argv);
  EXPECT_FALSE(args.get_flag("flag"));
}

TEST(Args, NumbersMustParseWhole) {
  const char* argv[] = {"prog", "--n=12abc", "--x=", "--big=99999999999999999999",
                        "--ok=7", "--r=0.25"};
  const Args args(6, argv);
  EXPECT_THROW((void)args.get_int("n", 0), std::invalid_argument);
  EXPECT_THROW((void)args.get_double("x", 0.0), std::invalid_argument);
  EXPECT_THROW((void)args.get_int("big", 0), std::invalid_argument);
  EXPECT_EQ(args.get_int("ok", 0), 7);
  EXPECT_DOUBLE_EQ(args.get_double("r", 0.0), 0.25);
}

TEST(Args, NumberListsSkipEmptyItemsAndRejectJunk) {
  const char* argv[] = {"prog", "--pops=6000,,60000,", "--bad=1,x,3"};
  const Args args(3, argv);
  EXPECT_EQ(args.get_int_list("pops", ""),
            (std::vector<std::int64_t>{6000, 60000}));
  EXPECT_EQ(args.get_double_list("absent", "0.3,0.5"),
            (std::vector<double>{0.3, 0.5}));
  EXPECT_THROW((void)args.get_double_list("bad", ""), std::invalid_argument);
}

TEST(Args, HelpThrowsAnEmptyMessageAfterTheLastQuery) {
  const char* argv[] = {"prog", "--help"};
  const Args args(2, argv);
  (void)args.get_int("n-params", 1);
  (void)args.get_flag("check");
  try {
    args.check_unused();
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(), "");
  }
  EXPECT_EQ(args.queried(), (std::set<std::string>{"check", "n-params"}));
}

}  // namespace
