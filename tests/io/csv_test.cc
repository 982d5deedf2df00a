#include "src/io/csv.h"

#include <cstdio>

#include <gtest/gtest.h>

namespace skypref {
namespace {

TEST(ParseCsvLineTest, PlainFields) {
  EXPECT_EQ(ParseCsvLine("a,b,c").value(),
            (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(ParseCsvLine("one").value(), (std::vector<std::string>{"one"}));
  EXPECT_EQ(ParseCsvLine("").value(), (std::vector<std::string>{""}));
  EXPECT_EQ(ParseCsvLine("a,,c").value(),
            (std::vector<std::string>{"a", "", "c"}));
}

TEST(ParseCsvLineTest, QuotedFields) {
  EXPECT_EQ(ParseCsvLine(R"("a,b",c)").value(),
            (std::vector<std::string>{"a,b", "c"}));
  EXPECT_EQ(ParseCsvLine(R"("say ""hi""",x)").value(),
            (std::vector<std::string>{"say \"hi\"", "x"}));
  EXPECT_EQ(ParseCsvLine(R"("")").value(), (std::vector<std::string>{""}));
}

TEST(ParseCsvLineTest, Malformed) {
  EXPECT_FALSE(ParseCsvLine(R"("unterminated)").ok());
  EXPECT_FALSE(ParseCsvLine(R"(ab"cd)").ok());
  EXPECT_FALSE(ParseCsvLine(R"("ab"cd)").ok());
}

TEST(ParseCsvLineTest, ReusedBufferTakesEachRecordsWidth) {
  std::vector<std::string> fields;
  ASSERT_TRUE(ParseCsvLine(R"(a,"b,c",d)", fields).ok());
  EXPECT_EQ(fields, (std::vector<std::string>{"a", "b,c", "d"}));
  ASSERT_TRUE(ParseCsvLine("x", fields).ok());
  EXPECT_EQ(fields, (std::vector<std::string>{"x"}));
  ASSERT_TRUE(ParseCsvLine("p,q", fields).ok());
  EXPECT_EQ(fields, (std::vector<std::string>{"p", "q"}));
  EXPECT_FALSE(ParseCsvLine(R"("open)", fields).ok());
}

TEST(ForEachCsvRecordTest, VisitsInOrderAndStopsAtTheFirstError) {
  std::vector<std::vector<std::string>> seen;
  Status status = ForEachCsvRecord(
      "a,b\n\nc\r\nstop,here\nnever\n",
      [&seen](const std::vector<std::string>& fields) {
        seen.push_back(fields);
        return fields[0] == "stop" ? Status::InvalidArgument("stop")
                                   : Status::OK();
      });
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  ASSERT_EQ(seen.size(), 3u);
  EXPECT_EQ(seen[0], (std::vector<std::string>{"a", "b"}));
  EXPECT_EQ(seen[1], (std::vector<std::string>{"c"}));
  EXPECT_EQ(seen[2], (std::vector<std::string>{"stop", "here"}));
  EXPECT_FALSE(ForEachCsvRecord("ok\n\"bad\n", [](const auto&) {
                 return Status::OK();
               }).ok());
}

TEST(ParseCsvTest, SplitsRecordsAndSkipsBlanks) {
  auto records = ParseCsv("a,b\n\nc,d\r\ne,f\n").value();
  ASSERT_EQ(records.size(), 3u);
  EXPECT_EQ(records[0], (std::vector<std::string>{"a", "b"}));
  EXPECT_EQ(records[1], (std::vector<std::string>{"c", "d"}));
  EXPECT_EQ(records[2], (std::vector<std::string>{"e", "f"}));
}

TEST(ParseCsvTest, NoTrailingNewline) {
  auto records = ParseCsv("x,y").value();
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0], (std::vector<std::string>{"x", "y"}));
}

TEST(ParseCsvTest, EmptyDocument) {
  EXPECT_TRUE(ParseCsv("").value().empty());
  EXPECT_TRUE(ParseCsv("\n\n").value().empty());
}

TEST(FormatCsvLineTest, QuotesOnlyWhenNeeded) {
  EXPECT_EQ(FormatCsvLine({"a", "b"}), "a,b");
  EXPECT_EQ(FormatCsvLine({"a,b", "c"}), "\"a,b\",c");
  EXPECT_EQ(FormatCsvLine({"say \"hi\""}), "\"say \"\"hi\"\"\"");
  EXPECT_EQ(FormatCsvLine({"line\nbreak"}), "\"line\nbreak\"");
}

TEST(FormatCsvLineTest, RoundTripsThroughParse) {
  std::vector<std::string> fields{"plain", "with,comma", "with \"quote\"",
                                  ""};
  EXPECT_EQ(ParseCsvLine(FormatCsvLine(fields)).value(), fields);
}

TEST(FileIoTest, WriteThenReadRoundTrip) {
  std::string path = ::testing::TempDir() + "/skypref_csv_test.txt";
  ASSERT_TRUE(WriteFile(path, "hello\nworld").ok());
  EXPECT_EQ(ReadFile(path).value(), "hello\nworld");
  std::remove(path.c_str());
}

TEST(FileIoTest, ReadMissingFileFails) {
  EXPECT_EQ(ReadFile("/nonexistent/skypref/file.csv").status().code(),
            StatusCode::kIOError);
}

TEST(FileIoTest, WriteToBadPathFails) {
  EXPECT_EQ(WriteFile("/nonexistent/skypref/file.csv", "x").code(),
            StatusCode::kIOError);
}

}  // namespace
}  // namespace skypref
