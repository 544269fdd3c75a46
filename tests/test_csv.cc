#include "app/csv.h"

#include <gtest/gtest.h>

namespace histest {
namespace {

TEST(CsvTest, ParsesSingleColumn) {
  auto column = ParseCsvColumn("value\n3\n1\n4\n1\n5\n");
  ASSERT_TRUE(column.ok());
  EXPECT_EQ(column.value().values, (std::vector<size_t>{3, 1, 4, 1, 5}));
  EXPECT_EQ(column.value().domain, 6u);  // max + 1
}

TEST(CsvTest, ExtractsConfiguredColumn) {
  CsvColumnOptions options;
  options.column = 1;
  auto column = ParseCsvColumn("id,qty\n10,3\n11,7\n", options);
  ASSERT_TRUE(column.ok());
  EXPECT_EQ(column.value().values, (std::vector<size_t>{3, 7}));
}

TEST(CsvTest, NoHeaderMode) {
  CsvColumnOptions options;
  options.has_header = false;
  auto column = ParseCsvColumn("5\n6\n", options);
  ASSERT_TRUE(column.ok());
  EXPECT_EQ(column.value().values.size(), 2u);
}

TEST(CsvTest, HandlesCrlfAndBlankLines) {
  auto column = ParseCsvColumn("value\r\n2\r\n\n3\r\n");
  ASSERT_TRUE(column.ok());
  EXPECT_EQ(column.value().values, (std::vector<size_t>{2, 3}));
}

TEST(CsvTest, EnforcesDomain) {
  CsvColumnOptions options;
  options.domain = 4;
  EXPECT_FALSE(ParseCsvColumn("v\n5\n", options).ok());
  auto ok = ParseCsvColumn("v\n3\n", options);
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(ok.value().domain, 4u);
}

TEST(CsvTest, RejectsMalformedInput) {
  EXPECT_FALSE(ParseCsvColumn("").ok());
  EXPECT_FALSE(ParseCsvColumn("header\n").ok());          // no rows
  EXPECT_FALSE(ParseCsvColumn("v\nabc\n").ok());          // non-integer
  EXPECT_FALSE(ParseCsvColumn("v\n-3\n").ok());           // negative
  EXPECT_FALSE(ParseCsvColumn("v\n1.5\n").ok());          // non-integer
  CsvColumnOptions options;
  options.column = 2;
  EXPECT_FALSE(ParseCsvColumn("a,b\n1,2\n", options).ok());  // missing col
}

TEST(CsvTest, RejectsValuesThatOverflowInt64) {
  // strtoll saturates at 2^63 - 1 here; the parser must not accept that.
  auto column = ParseCsvColumn("v\n1\n99999999999999999999\n");
  ASSERT_FALSE(column.ok());
  EXPECT_EQ(column.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(column.status().message().find("line 3"), std::string::npos)
      << column.status().message();
}

TEST(CsvTest, RejectsDomainsAboveTheCap) {
  // 2^63 - 1 parses, but the derived domain 2^63 could never be allocated.
  auto derived = ParseCsvColumn("v\n9223372036854775807\n");
  ASSERT_FALSE(derived.ok());
  EXPECT_EQ(derived.status().code(), StatusCode::kOutOfRange);
  EXPECT_NE(derived.status().message().find("line 2"), std::string::npos)
      << derived.status().message();

  auto at_cap = ParseCsvColumn("v\n" + std::to_string(kMaxColumnDomain - 1));
  ASSERT_TRUE(at_cap.ok()) << at_cap.status().ToString();
  EXPECT_EQ(at_cap.value().domain, kMaxColumnDomain);

  CsvColumnOptions options;
  options.domain = kMaxColumnDomain + 1;
  auto configured = ParseCsvColumn("v\n3\n", options);
  ASSERT_FALSE(configured.ok());
  EXPECT_EQ(configured.status().code(), StatusCode::kOutOfRange);
}

TEST(CsvTest, WriteParseRoundTrip) {
  const std::vector<size_t> values = {9, 0, 7, 7};
  const std::string text = WriteCsvColumn("count", values);
  auto back = ParseCsvColumn(text);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value().values, values);
}

}  // namespace
}  // namespace histest
