#include <gtest/gtest.h>

#include "common/csv.h"
#include "common/random.h"
#include "common/status.h"
#include "common/string_util.h"
#include "test_util.h"

namespace semandaq::common {
namespace {

// ---------------------------------------------------------------- Status --

TEST(StatusTest, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, CarriesCodeAndMessage) {
  Status s = Status::InvalidArgument("bad thing");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.message(), "bad thing");
  EXPECT_EQ(s.ToString(), "InvalidArgument: bad thing");
}

TEST(StatusTest, AllFactoryCodes) {
  EXPECT_EQ(Status::NotFound("x").code(), StatusCode::kNotFound);
  EXPECT_EQ(Status::AlreadyExists("x").code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(Status::OutOfRange("x").code(), StatusCode::kOutOfRange);
  EXPECT_EQ(Status::FailedPrecondition("x").code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(Status::Unsatisfiable("x").code(), StatusCode::kUnsatisfiable);
  EXPECT_EQ(Status::IoError("x").code(), StatusCode::kIoError);
  EXPECT_EQ(Status::Internal("x").code(), StatusCode::kInternal);
}

TEST(ResultTest, HoldsValue) {
  Result<int> r = 7;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 7);
  EXPECT_EQ(r.ValueOr(3), 7);
}

TEST(ResultTest, HoldsError) {
  Result<int> r = Status::NotFound("nope");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(r.ValueOr(3), 3);
}

Result<int> Half(int x) {
  if (x % 2 != 0) return Status::InvalidArgument("odd");
  return x / 2;
}

Result<int> Quarter(int x) {
  SEMANDAQ_ASSIGN_OR_RETURN(int h, Half(x));
  return Half(h);
}

TEST(ResultTest, AssignOrReturnPropagates) {
  auto ok = Quarter(8);
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(*ok, 2);
  auto inner_fail = Quarter(6);  // 6/2 = 3 is odd
  EXPECT_FALSE(inner_fail.ok());
}

// ----------------------------------------------------------- StringUtil --

TEST(StringUtilTest, SplitKeepsEmptyFields) {
  auto parts = Split("a,,b,", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "");
  EXPECT_EQ(parts[2], "b");
  EXPECT_EQ(parts[3], "");
}

TEST(StringUtilTest, JoinRoundTrip) {
  std::vector<std::string> parts = {"x", "y", "z"};
  EXPECT_EQ(Join(parts, ", "), "x, y, z");
  EXPECT_EQ(Join({}, ","), "");
}

TEST(StringUtilTest, Trim) {
  EXPECT_EQ(Trim("  hi \t\n"), "hi");
  EXPECT_EQ(Trim(""), "");
  EXPECT_EQ(Trim("   "), "");
  EXPECT_EQ(Trim("x"), "x");
}

TEST(StringUtilTest, CaseConversions) {
  EXPECT_EQ(ToLower("AbC"), "abc");
  EXPECT_EQ(ToUpper("AbC"), "ABC");
  EXPECT_TRUE(EqualsIgnoreCase("ZIP", "zip"));
  EXPECT_FALSE(EqualsIgnoreCase("ZIP", "zipp"));
}

TEST(StringUtilTest, StartsEndsWith) {
  EXPECT_TRUE(StartsWith("__cfd_tableau_0", "__cfd_"));
  EXPECT_FALSE(StartsWith("cfd", "__cfd_"));
  EXPECT_TRUE(EndsWith("report.csv", ".csv"));
  EXPECT_FALSE(EndsWith("csv", "report.csv"));
}

TEST(StringUtilTest, QuoteSqlStringEscapesQuotes) {
  EXPECT_EQ(QuoteSqlString("Abe's"), "'Abe''s'");
  EXPECT_EQ(QuoteSqlString(""), "''");
  EXPECT_EQ(QuoteSqlString("B\"x", '"'), "\"B\"\"x\"");  // identifiers
}

TEST(StringUtilTest, DamerauLevenshteinBasics) {
  EXPECT_EQ(DamerauLevenshtein("", ""), 0u);
  EXPECT_EQ(DamerauLevenshtein("abc", "abc"), 0u);
  EXPECT_EQ(DamerauLevenshtein("abc", ""), 3u);
  EXPECT_EQ(DamerauLevenshtein("kitten", "sitting"), 3u);
  // Transposition counts as one edit (the Damerau extension).
  EXPECT_EQ(DamerauLevenshtein("ab", "ba"), 1u);
  EXPECT_EQ(DamerauLevenshtein("Edinburgh", "Edinbrugh"), 1u);
}

TEST(StringUtilTest, NormalizedEditDistanceRange) {
  EXPECT_DOUBLE_EQ(NormalizedEditDistance("", ""), 0.0);
  EXPECT_DOUBLE_EQ(NormalizedEditDistance("abc", "abc"), 0.0);
  EXPECT_DOUBLE_EQ(NormalizedEditDistance("abc", "xyz"), 1.0);
  const double d = NormalizedEditDistance("London", "Londom");
  EXPECT_GT(d, 0.0);
  EXPECT_LT(d, 0.5);
}

TEST(StringUtilTest, LikeMatch) {
  EXPECT_TRUE(LikeMatch("Edinburgh", "Edin%"));
  EXPECT_TRUE(LikeMatch("Edinburgh", "%burgh"));
  EXPECT_TRUE(LikeMatch("Edinburgh", "E_inburgh"));
  EXPECT_TRUE(LikeMatch("abc", "%"));
  EXPECT_TRUE(LikeMatch("", "%"));
  EXPECT_FALSE(LikeMatch("abc", "_"));
  EXPECT_FALSE(LikeMatch("abc", "abd"));
  EXPECT_TRUE(LikeMatch("a%c", "a%c"));  // '%' in text is matched by '%' run
  EXPECT_TRUE(LikeMatch("aXXXb", "a%b"));
}

TEST(StringUtilTest, ParseInt64) {
  int64_t v = 0;
  EXPECT_TRUE(ParseInt64("42", &v));
  EXPECT_EQ(v, 42);
  EXPECT_TRUE(ParseInt64("-7", &v));
  EXPECT_EQ(v, -7);
  EXPECT_FALSE(ParseInt64("", &v));
  EXPECT_FALSE(ParseInt64("12x", &v));
  EXPECT_FALSE(ParseInt64("99999999999999999999999", &v));  // overflow
}

TEST(StringUtilTest, ParseDouble) {
  double v = 0;
  EXPECT_TRUE(ParseDouble("2.5", &v));
  EXPECT_DOUBLE_EQ(v, 2.5);
  EXPECT_TRUE(ParseDouble("-1e3", &v));
  EXPECT_DOUBLE_EQ(v, -1000.0);
  EXPECT_FALSE(ParseDouble("", &v));
  EXPECT_FALSE(ParseDouble("1.2.3", &v));
}

TEST(StringUtilTest, FormatDouble) {
  EXPECT_EQ(FormatDouble(2.0), "2");
  EXPECT_EQ(FormatDouble(2.5), "2.5");
  EXPECT_EQ(FormatDouble(0.125), "0.125");
}

// ------------------------------------------------------------------ CSV --

TEST(CsvTest, ParseSimpleLine) {
  ASSERT_OK_AND_ASSIGN(auto fields, CsvParser::ParseLine("a,b,c"));
  ASSERT_EQ(fields.size(), 3u);
  EXPECT_EQ(fields[1], "b");
}

TEST(CsvTest, ParseQuotedFields) {
  ASSERT_OK_AND_ASSIGN(auto fields, CsvParser::ParseLine(R"(x,"a,b","say ""hi""")"));
  ASSERT_EQ(fields.size(), 3u);
  EXPECT_EQ(fields[1], "a,b");
  EXPECT_EQ(fields[2], "say \"hi\"");
}

TEST(CsvTest, UnterminatedQuoteFails) {
  auto r = CsvParser::ParseLine("a,\"oops");
  EXPECT_FALSE(r.ok());
}

TEST(CsvTest, DocumentSkipsBlankLinesAndHandlesCrlf) {
  ASSERT_OK_AND_ASSIGN(auto rows,
                       CsvParser::ParseDocument("a,b\r\n\r\n1,2\n\n3,4\n"));
  ASSERT_EQ(rows.size(), 3u);
  EXPECT_EQ(rows[0][0], "a");
  EXPECT_EQ(rows[2][1], "4");
}

TEST(CsvTest, QuotedNewlineInsideField) {
  ASSERT_OK_AND_ASSIGN(auto rows, CsvParser::ParseDocument("h\n\"two\nlines\"\n"));
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[1][0], "two\nlines");
}

TEST(CsvTest, FormatRoundTrip) {
  std::vector<std::string> fields = {"plain", "with,comma", "with\"quote", "nl\nx"};
  const std::string line = CsvFormatLine(fields);
  ASSERT_OK_AND_ASSIGN(auto parsed, CsvParser::ParseLine(line));
  EXPECT_EQ(parsed, fields);
}

TEST(CsvTest, FileRoundTrip) {
  const std::string path = ::testing::TempDir() + "/semandaq_csv_test.txt";
  ASSERT_OK(WriteStringToFile(path, "hello\nworld"));
  ASSERT_OK_AND_ASSIGN(std::string content, ReadFileToString(path));
  EXPECT_EQ(content, "hello\nworld");
}

TEST(CsvTest, MissingFileFails) {
  auto r = ReadFileToString("/nonexistent/semandaq/file.csv");
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kIoError);
}

// --------------------------------------------------------------- Random --

TEST(RngTest, Deterministic) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 50; ++i) {
    if (a.Next() == b.Next()) ++same;
  }
  EXPECT_LT(same, 5);
}

TEST(RngTest, NextBelowInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.NextBelow(17), 17u);
  }
}

TEST(RngTest, NextInRangeInclusive) {
  Rng rng(7);
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const int64_t v = rng.NextInRange(-2, 2);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 2);
    saw_lo |= (v == -2);
    saw_hi |= (v == 2);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    const double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, NextBoolProbability) {
  Rng rng(11);
  int hits = 0;
  for (int i = 0; i < 10000; ++i) hits += rng.NextBool(0.25) ? 1 : 0;
  EXPECT_NEAR(hits / 10000.0, 0.25, 0.03);
}

TEST(RngTest, ShufflePermutes) {
  Rng rng(13);
  std::vector<int> v = {1, 2, 3, 4, 5, 6, 7, 8};
  std::vector<int> orig = v;
  rng.Shuffle(&v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, orig);
}

TEST(ZipfTest, SkewPrefersLowRanks) {
  Rng rng(17);
  ZipfGenerator zipf(100, 1.0);
  std::vector<int> counts(100, 0);
  for (int i = 0; i < 20000; ++i) ++counts[zipf.Next(&rng)];
  EXPECT_GT(counts[0], counts[50]);
  EXPECT_GT(counts[0], 20000 / 100);  // way above uniform share
}

TEST(ZipfTest, ThetaZeroIsRoughlyUniform) {
  Rng rng(19);
  ZipfGenerator zipf(10, 0.0);
  std::vector<int> counts(10, 0);
  for (int i = 0; i < 20000; ++i) ++counts[zipf.Next(&rng)];
  for (int c : counts) EXPECT_NEAR(c, 2000, 400);
}

}  // namespace
}  // namespace semandaq::common
