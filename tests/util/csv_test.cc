#include "util/csv.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>
#include <string>
#include <vector>

#include "rng/rng.h"
#include "util/string_util.h"

namespace mcirbm {
namespace {

class CsvTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = ::testing::TempDir() + "/csv_test_" +
            std::to_string(::testing::UnitTest::GetInstance()
                               ->random_seed()) +
            ".csv";
  }
  void TearDown() override { std::remove(path_.c_str()); }

  void WriteFile(const std::string& content) {
    std::ofstream out(path_);
    out << content;
  }

  std::string path_;
};

TEST_F(CsvTest, RoundTripWithHeader) {
  ASSERT_TRUE(WriteCsv(path_, {"a", "b"}, {{1, 2}, {3, 4}}).ok());
  auto table = ReadCsv(path_, /*has_header=*/true);
  ASSERT_TRUE(table.ok());
  EXPECT_EQ(table.value().header, (std::vector<std::string>{"a", "b"}));
  ASSERT_EQ(table.value().rows.size(), 2u);
  EXPECT_DOUBLE_EQ(table.value().rows[1][0], 3);
}

TEST_F(CsvTest, RoundTripWithoutHeader) {
  ASSERT_TRUE(WriteCsv(path_, {}, {{1.5, -2.5}}).ok());
  auto table = ReadCsv(path_, /*has_header=*/false);
  ASSERT_TRUE(table.ok());
  EXPECT_TRUE(table.value().header.empty());
  ASSERT_EQ(table.value().rows.size(), 1u);
  EXPECT_DOUBLE_EQ(table.value().rows[0][1], -2.5);
}

TEST_F(CsvTest, MissingFileIsIoError) {
  auto table = ReadCsv("/nonexistent/nope.csv", true);
  ASSERT_FALSE(table.ok());
  EXPECT_EQ(table.status().code(), StatusCode::kIoError);
}

TEST_F(CsvTest, RaggedRowIsParseError) {
  WriteFile("1,2\n3\n");
  auto table = ReadCsv(path_, false);
  ASSERT_FALSE(table.ok());
  EXPECT_EQ(table.status().code(), StatusCode::kParseError);
}

TEST_F(CsvTest, NonNumericCellIsParseError) {
  WriteFile("1,abc\n");
  auto table = ReadCsv(path_, false);
  ASSERT_FALSE(table.ok());
  EXPECT_EQ(table.status().code(), StatusCode::kParseError);
}

TEST_F(CsvTest, SkipsBlankLines) {
  WriteFile("1,2\n\n3,4\n");
  auto table = ReadCsv(path_, false);
  ASSERT_TRUE(table.ok());
  EXPECT_EQ(table.value().rows.size(), 2u);
}

TEST_F(CsvTest, HandlesWindowsLineEndings) {
  WriteFile("a,b\r\n1,2\r\n");
  auto table = ReadCsv(path_, true);
  ASSERT_TRUE(table.ok());
  EXPECT_EQ(table.value().header[1], "b");
  EXPECT_DOUBLE_EQ(table.value().rows[0][1], 2);
}

TEST_F(CsvTest, ScientificNotationCells) {
  WriteFile("1e-3,2.5E2\n");
  auto table = ReadCsv(path_, false);
  ASSERT_TRUE(table.ok());
  EXPECT_DOUBLE_EQ(table.value().rows[0][0], 1e-3);
  EXPECT_DOUBLE_EQ(table.value().rows[0][1], 250);
}

// --- Cell codec: to_chars / from_chars against printf / strtod ----------

std::string Printf17(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string RoundTrip(double v) {
  std::string out;
  AppendRoundTripDouble(v, &out);
  return out;
}

std::uint64_t Bits(double v) {
  std::uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

double FromBits(std::uint64_t bits) {
  double v;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

std::vector<double> SpecialValues() {
  using limits = std::numeric_limits<double>;
  return {0.0,
          -0.0,
          1.0,
          -1.0,
          0.1,
          1e16,
          123456789012345678.0,
          1e-5,
          1e21,
          limits::min(),
          -limits::min(),
          limits::denorm_min(),
          -limits::denorm_min(),
          limits::max(),
          limits::lowest(),
          limits::epsilon(),
          limits::infinity(),
          -limits::infinity(),
          limits::quiet_NaN(),
          -limits::quiet_NaN(),
          FromBits(0x7ff0000000000001ULL),   // signalling NaN
          FromBits(0xfff8000000000123ULL)};  // negative NaN with payload
}

TEST(CsvCodecTest, WriterBytesEqualPrintfOnSpecialValues) {
  for (double v : SpecialValues()) {
    EXPECT_EQ(RoundTrip(v), Printf17(v)) << "bits " << Bits(v);
  }
}

TEST(CsvCodecTest, WriterBytesEqualPrintfOnRandomBitPatterns) {
  rng::Rng rng(17);
  for (int i = 0; i < 100000; ++i) {
    const double v = FromBits(rng.NextUint64());
    ASSERT_EQ(RoundTrip(v), Printf17(v)) << "bits " << Bits(v);
  }
}

TEST_F(CsvTest, WriteRowJoinsPrintfCells) {
  const std::vector<double> row = SpecialValues();
  ASSERT_TRUE(WriteCsv(path_, {"h"}, {row}).ok());
  std::string expected = "h\n";
  for (std::size_t i = 0; i < row.size(); ++i) {
    if (i > 0) expected += ',';
    expected += Printf17(row[i]);
  }
  expected += '\n';
  std::ifstream in(path_, std::ios::binary);
  const std::string bytes((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());
  EXPECT_EQ(bytes, expected);
}

// Random 17-digit decimals over the whole exponent range, subnormal and
// overflowing ones included, read through ReadCsv: every bit equals
// strtod's.
TEST_F(CsvTest, ReaderBitsEqualStrtodOnRandomDecimals) {
  rng::Rng rng(23);
  constexpr int kRows = 1000, kCols = 100;
  std::vector<std::string> cells;
  cells.reserve(kRows * kCols);
  std::string text;
  for (int r = 0; r < kRows; ++r) {
    for (int c = 0; c < kCols; ++c) {
      std::string cell = rng.Bernoulli(0.5) ? "-" : "";
      cell += static_cast<char>('0' + rng.UniformIndex(10));
      cell += '.';
      for (int d = 0; d < 16; ++d) {
        cell += static_cast<char>('0' + rng.UniformIndex(10));
      }
      cell += 'e' + std::to_string(static_cast<int>(rng.UniformIndex(660)) -
                                   330);
      if (c > 0) text += ',';
      text += cell;
      cells.push_back(std::move(cell));
    }
    text += '\n';
  }
  WriteFile(text);
  auto table = ReadCsv(path_, /*has_header=*/false);
  ASSERT_TRUE(table.ok()) << table.status().ToString();
  ASSERT_EQ(table.value().rows.size(), static_cast<std::size_t>(kRows));
  for (int r = 0; r < kRows; ++r) {
    for (int c = 0; c < kCols; ++c) {
      const std::string& cell = cells[r * kCols + c];
      ASSERT_EQ(Bits(table.value().rows[r][c]),
                Bits(std::strtod(cell.c_str(), nullptr)))
          << cell;
    }
  }
}

// Cells that from_chars does not read whole go to strtod and keep its
// outcome: a leading '+', hex, blanks inside quotes, overflow, underflow,
// and the non-finite spellings.
TEST_F(CsvTest, FallbackCellsKeepStrtodOutcome) {
  WriteFile("+1,0x1p3,\" 2.5 \",1e400,1e-400,-1e400,inf,-nan,nan(7)\n");
  auto table = ReadCsv(path_, /*has_header=*/false);
  ASSERT_TRUE(table.ok()) << table.status().ToString();
  const std::vector<double>& row = table.value().rows.at(0);
  const char* texts[] = {"+1",     "0x1p3", "2.5", "1e400", "1e-400",
                         "-1e400", "inf",   "-nan", "nan(7)"};
  ASSERT_EQ(row.size(), std::size(texts));
  for (std::size_t i = 0; i < row.size(); ++i) {
    EXPECT_EQ(Bits(row[i]), Bits(std::strtod(texts[i], nullptr)))
        << texts[i];
  }
  EXPECT_EQ(row[1], 8.0);
  EXPECT_EQ(row[2], 2.5);
  EXPECT_TRUE(std::isinf(row[3]));
}

TEST_F(CsvTest, MalformedCellsStayRejected) {
  for (const char* cell : {"", "1.5abc", "1 2", "\"\"", "-", "1e"}) {
    WriteFile(std::string("1,") + cell + "\n");
    auto table = ReadCsv(path_, /*has_header=*/false);
    ASSERT_FALSE(table.ok()) << "'" << cell << "'";
    EXPECT_EQ(table.status().code(), StatusCode::kParseError);
    EXPECT_NE(table.status().message().find(path_ + ":1: non-numeric cell"),
              std::string::npos)
        << table.status().message();
  }
}

// The width is checked before any cell is read: a row that is short and
// non-numeric reports as ragged.
TEST_F(CsvTest, ShortNonNumericRowIsRagged) {
  WriteFile("1,2,3\nx,y\n");
  auto table = ReadCsv(path_, /*has_header=*/false);
  ASSERT_FALSE(table.ok());
  EXPECT_NE(table.status().message().find(path_ + ":2: ragged row"),
            std::string::npos)
      << table.status().message();
}

}  // namespace
}  // namespace mcirbm
