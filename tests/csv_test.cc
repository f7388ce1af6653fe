#include <gtest/gtest.h>

#include "csv/csv.h"

namespace lakekit::csv {
namespace {

TEST(CsvParseTest, SimpleWithHeader) {
  auto r = Parse("a,b\n1,2\n3,4\n");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->header, (std::vector<std::string>{"a", "b"}));
  ASSERT_EQ(r->records.size(), 2u);
  EXPECT_EQ(r->records[0], (std::vector<std::string>{"1", "2"}));
  EXPECT_EQ(r->records[1], (std::vector<std::string>{"3", "4"}));
}

TEST(CsvParseTest, NoTrailingNewline) {
  auto r = Parse("a,b\n1,2");
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->records.size(), 1u);
}

TEST(CsvParseTest, CrLfTolerated) {
  auto r = Parse("a,b\r\n1,2\r\n");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->records[0][1], "2");
}

TEST(CsvParseTest, QuotedFieldWithDelimiter) {
  auto r = Parse("a,b\n\"x,y\",2\n");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->records[0][0], "x,y");
}

TEST(CsvParseTest, QuotedFieldWithNewline) {
  auto r = Parse("a,b\n\"line1\nline2\",2\n");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->records[0][0], "line1\nline2");
  ASSERT_EQ(r->records.size(), 1u);
}

TEST(CsvParseTest, DoubledQuotes) {
  auto r = Parse("a\n\"she said \"\"hi\"\"\"\n");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->records[0][0], "she said \"hi\"");
}

TEST(CsvParseTest, EmptyFields) {
  auto r = Parse("a,b,c\n,,\n");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->records[0], (std::vector<std::string>{"", "", ""}));
}

TEST(CsvParseTest, NoHeaderSynthesizesColumnNames) {
  ParseOptions opts;
  opts.has_header = false;
  auto r = Parse("1,2\n3,4\n", opts);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->header, (std::vector<std::string>{"col0", "col1"}));
  EXPECT_EQ(r->records.size(), 2u);
}

TEST(CsvParseTest, CustomDelimiter) {
  ParseOptions opts;
  opts.delimiter = '\t';
  auto r = Parse("a\tb\n1\t2\n", opts);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->records[0], (std::vector<std::string>{"1", "2"}));
}

TEST(CsvParseTest, RaggedRecordIsError) {
  EXPECT_FALSE(Parse("a,b\n1\n").ok());
  EXPECT_FALSE(Parse("a,b\n1,2,3\n").ok());
}

TEST(CsvParseTest, UnterminatedQuoteIsError) {
  EXPECT_FALSE(Parse("a\n\"open\n").ok());
}

TEST(CsvParseTest, EmptyInputWithHeaderExpectedIsError) {
  EXPECT_FALSE(Parse("").ok());
}

TEST(CsvParseTest, HeaderOnlyFileIsValid) {
  auto r = Parse("a,b,c\n");
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->records.empty());
}

TEST(CsvParseTest, QuotedEmptyFieldDiffersFromNothingOnlyAtTheEnd) {
  // Mid-text, "" and an empty field are both empty strings.
  auto r = Parse("a,b\n\"\",\n");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->records[0], (std::vector<std::string>{"", ""}));
  // After the last newline, "" is a record and nothing is none.
  auto quoted = Parse("a\n\"\"");
  ASSERT_TRUE(quoted.ok());
  EXPECT_EQ(quoted->records, (std::vector<std::vector<std::string>>{{""}}));
  auto nothing = Parse("a\n");
  ASSERT_TRUE(nothing.ok());
  EXPECT_TRUE(nothing->records.empty());
}

TEST(CsvParseTest, TextAfterAClosingQuoteJoinsTheField) {
  auto r = Parse("a,b\n\"a\"b,\"x\"\"\"\n");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->records[0], (std::vector<std::string>{"ab", "x\""}));
}

TEST(CsvParseTest, BareCarriageReturnIsDropped) {
  // Outside quotes a '\r' is dropped wherever it stands; inside them it is
  // kept.
  auto r = Parse("a,b\nx\ry,\r\rz\r\n\"p\rq\",\r\n");
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->records.size(), 2u);
  EXPECT_EQ(r->records[0], (std::vector<std::string>{"xy", "z"}));
  EXPECT_EQ(r->records[1], (std::vector<std::string>{"p\rq", ""}));
}

TEST(CsvParseTest, ErrorMessagesAndPrecedence) {
  EXPECT_EQ(Parse("a,b\n1\n").status().message(),
            "CSV: record 1 has 1 fields, expected 2");
  // An empty line is a record of one empty field.
  EXPECT_EQ(Parse("a,b\n1,2\n\n3,4\n").status().message(),
            "CSV: record 2 has 1 fields, expected 2");
  // An unterminated quote outranks an earlier ragged record.
  EXPECT_EQ(Parse("a,b\n1\n\"open\n").status().message(),
            "CSV: unterminated quoted field");
  EXPECT_EQ(Parse("\r\r").status().message(),
            "CSV: empty input but header expected");
}

TEST(CsvTokenizeTest, FieldsViewTheTextOrTheGridsBuffer) {
  const std::string text = "a,b\r\nplain,\"quoted\"\r\n\"x\"\"y\",p\rq\n";
  auto grid = Tokenize(text);
  ASSERT_TRUE(grid.ok());
  EXPECT_EQ(grid->header(), (std::vector<std::string>{"a", "b"}));
  ASSERT_EQ(grid->num_records(), 2u);
  // Runs of the text are views into it; "quoted" keeps its view too.
  EXPECT_EQ(grid->field(0, 0).data(), text.data() + 5);
  EXPECT_EQ(grid->field(0, 1), "quoted");
  EXPECT_EQ(grid->field(0, 1).data(), text.data() + 12);
  // A doubled quote and an inner '\r' change the field: unescaped copies.
  EXPECT_EQ(grid->unescaped(), "x\"ypq");
}

TEST(CsvTokenizeTest, MovedGridStillReadsItsUnescapedFields) {
  const std::string text = "a,b\n\"x\"\"y\",\"a\"b\n\"1\",2\n";
  auto grid = Tokenize(text);
  ASSERT_TRUE(grid.ok());
  const char* buffer = grid->unescaped().data();
  FieldGrid moved = std::move(*grid);
  std::vector<FieldGrid> grids;
  grids.push_back(std::move(moved));
  const FieldGrid& g = grids[0];
  EXPECT_EQ(g.unescaped().data(), buffer);
  EXPECT_EQ(g.field(0, 0), "x\"y");
  EXPECT_EQ(g.field(0, 1), "ab");
  EXPECT_EQ(g.field(1, 0), "1");
  EXPECT_EQ(g.column(1).size(), 2u);
  EXPECT_EQ(g.column(1)[1], "2");
}

TEST(CsvTokenizeTest, NoHeaderKeepsTheFirstRecordAsData) {
  ParseOptions opts;
  opts.has_header = false;
  opts.delimiter = ';';
  auto grid = Tokenize("1;2\n3;4", opts);
  ASSERT_TRUE(grid.ok());
  EXPECT_EQ(grid->header(), (std::vector<std::string>{"col0", "col1"}));
  ASSERT_EQ(grid->num_records(), 2u);
  EXPECT_EQ(grid->field(0, 1), "2");
  EXPECT_EQ(grid->field(1, 0), "3");
  auto empty = Tokenize("", opts);
  ASSERT_TRUE(empty.ok());
  EXPECT_EQ(empty->num_columns(), 0u);
  EXPECT_EQ(empty->num_records(), 0u);
}

TEST(CsvWriteTest, RoundTrip) {
  CsvData data;
  data.header = {"name", "note"};
  data.records = {{"a,b", "say \"hi\""}, {"plain", "line\nbreak"}};
  std::string text = Write(data);
  auto r = Parse(text);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->header, data.header);
  EXPECT_EQ(r->records, data.records);
}

TEST(CsvWriteTest, QuoteFieldOnlyWhenNeeded) {
  EXPECT_EQ(QuoteField("plain"), "plain");
  EXPECT_EQ(QuoteField("a,b"), "\"a,b\"");
  EXPECT_EQ(QuoteField("q\"q"), "\"q\"\"q\"");
  EXPECT_EQ(QuoteField("nl\n"), "\"nl\n\"");
}

}  // namespace
}  // namespace lakekit::csv
