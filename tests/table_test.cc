#include <gtest/gtest.h>

#include "json/parser.h"
#include "table/schema.h"
#include "table/table.h"
#include "table/value.h"

namespace lakekit::table {
namespace {

TEST(ValueTest, TypesAndAccessors) {
  EXPECT_TRUE(Value::Null().is_null());
  EXPECT_EQ(Value(int64_t{5}).as_int(), 5);
  EXPECT_DOUBLE_EQ(Value(2.5).as_double(), 2.5);
  EXPECT_EQ(Value("x").as_string(), "x");
  EXPECT_TRUE(Value(true).as_bool());
  EXPECT_DOUBLE_EQ(Value(int64_t{3}).as_double(), 3.0);  // widening
}

TEST(ValueTest, CrossTypeNumericEquality) {
  EXPECT_EQ(Value(int64_t{2}), Value(2.0));
  EXPECT_NE(Value(int64_t{2}), Value(2.5));
  EXPECT_NE(Value("2"), Value(int64_t{2}));
}

TEST(ValueTest, TotalOrder) {
  EXPECT_LT(Value::Null(), Value(false));
  EXPECT_LT(Value(false), Value(true));
  EXPECT_LT(Value(true), Value(int64_t{0}));
  EXPECT_LT(Value(int64_t{1}), Value(1.5));
  EXPECT_LT(Value(2.0), Value("a"));
  EXPECT_LT(Value("a"), Value("b"));
  EXPECT_FALSE(Value::Null() < Value::Null());
}

TEST(ValueTest, HashConsistentWithEquality) {
  EXPECT_EQ(Value(int64_t{7}).Hash(), Value(7.0).Hash());
  EXPECT_EQ(Value("abc").Hash(), Value("abc").Hash());
  EXPECT_NE(Value("abc").Hash(), Value("abd").Hash());
}

TEST(ValueTest, ToString) {
  EXPECT_EQ(Value::Null().ToString(), "");
  EXPECT_EQ(Value(int64_t{12}).ToString(), "12");
  EXPECT_EQ(Value(true).ToString(), "true");
  EXPECT_EQ(Value("s").ToString(), "s");
  EXPECT_EQ(Value(2.5).ToString(), "2.5");
}

TEST(DataTypeTest, NameRoundTrip) {
  for (DataType t : {DataType::kBool, DataType::kInt64, DataType::kDouble,
                     DataType::kString}) {
    EXPECT_EQ(DataTypeFromName(DataTypeName(t)), t);
  }
}

TEST(SchemaTest, IndexLookup) {
  Schema s({{"id", DataType::kInt64, false}, {"name", DataType::kString, true}});
  EXPECT_EQ(s.num_fields(), 2u);
  EXPECT_EQ(*s.IndexOf("name"), 1u);
  EXPECT_FALSE(s.IndexOf("missing").has_value());
  EXPECT_TRUE(s.HasField("id"));
  EXPECT_EQ(s.ToString(), "id:int64,name:string");
}

TEST(TableTest, AppendAndAccess) {
  Table t("people", Schema({{"id", DataType::kInt64, false},
                            {"name", DataType::kString, true}}));
  ASSERT_TRUE(t.AppendRow({Value(int64_t{1}), Value("ada")}).ok());
  ASSERT_TRUE(t.AppendRow({Value(int64_t{2}), Value("bob")}).ok());
  EXPECT_EQ(t.num_rows(), 2u);
  EXPECT_EQ(t.num_columns(), 2u);
  EXPECT_EQ(t.at(1, 1).as_string(), "bob");
  EXPECT_EQ(t.Row(0)[0].as_int(), 1);
  EXPECT_EQ(*t.ColumnIndex("name"), 1u);
  EXPECT_FALSE(t.ColumnIndex("zzz").ok());
}

TEST(TableTest, AppendRowArityMismatch) {
  Table t("t", Schema({{"a", DataType::kInt64, true}}));
  EXPECT_FALSE(t.AppendRow({Value(1), Value(2)}).ok());
  EXPECT_EQ(t.num_rows(), 0u);
}

constexpr DataType kAllTypes[] = {DataType::kNull, DataType::kBool,
                                  DataType::kInt64, DataType::kDouble,
                                  DataType::kString};

/// A non-NULL cell of `type` (NULL for kNull).
Value CellOf(DataType type) {
  switch (type) {
    case DataType::kNull:
      return Value::Null();
    case DataType::kBool:
      return Value(true);
    case DataType::kInt64:
      return Value(int64_t{1});
    case DataType::kDouble:
      return Value(1.5);
    case DataType::kString:
      return Value("x");
  }
  return Value::Null();
}

std::string PairName(DataType field, DataType cell) {
  return "field " + std::string(DataTypeName(field)) + ", cell " +
         std::string(DataTypeName(cell));
}

TEST(TableTest, AppendRowRejectsCellsOfAnotherType) {
  for (DataType field : kAllTypes) {
    for (DataType cell : kAllTypes) {
      if (cell == DataType::kNull) continue;  // NULL fits every field
      SCOPED_TRACE(PairName(field, cell));
      // The cell under test sits in the second column, so a rejected row
      // must not leave its first cell behind.
      Table t("t", Schema({{"a", DataType::kInt64, true},
                           {"b", field, true}}));
      const Status st = t.AppendRow({Value(int64_t{7}), CellOf(cell)});
      if (cell == field) {
        ASSERT_TRUE(st.ok()) << st.ToString();
        EXPECT_EQ(t.num_rows(), 1u);
        EXPECT_EQ(t.at(0, 1), CellOf(cell));
      } else {
        EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
        EXPECT_EQ(t.num_rows(), 0u);
        EXPECT_TRUE(t.column(0).empty());
        EXPECT_TRUE(t.column(1).empty());
      }
      EXPECT_TRUE(t.AppendRow({Value(int64_t{8}), Value::Null()}).ok());
    }
  }
}

TEST(TableTest, FromColumnsChecksFieldTypesAgainstSources) {
  for (DataType source : kAllTypes) {
    Table src("src", Schema({{"c", source, true}}));
    ASSERT_TRUE(src.AppendRow({CellOf(source)}).ok());
    ASSERT_TRUE(src.AppendRow({Value::Null()}).ok());
    for (DataType field : kAllTypes) {
      SCOPED_TRACE(PairName(field, source));
      const uint32_t rows[] = {1, Table::kNullRow, 0};
      for (const uint32_t* gather : {static_cast<const uint32_t*>(nullptr),
                                     static_cast<const uint32_t*>(rows)}) {
        const size_t n = gather == nullptr ? 2 : 3;
        auto t = Table::FromColumns("t", Schema({{"f", field, true}}),
                                    {Table::ColumnSource{&src, 0, gather}}, n);
        if (field != source) {
          EXPECT_EQ(t.status().code(), StatusCode::kInvalidArgument);
          continue;
        }
        ASSERT_TRUE(t.ok()) << t.status().ToString();
        ASSERT_EQ(t->num_rows(), n);
        EXPECT_EQ(t->at(gather == nullptr ? 0 : 2, 0), CellOf(source));
        EXPECT_TRUE(t->at(1, 0).is_null());
      }
    }
  }
}

TEST(TableTest, AppendRowsFromRejectsAnotherSchema) {
  for (DataType source : kAllTypes) {
    Table src("t", Schema({{"a", source, true}}));
    ASSERT_TRUE(src.AppendRow({CellOf(source)}).ok());
    for (DataType field : kAllTypes) {
      SCOPED_TRACE(PairName(field, source));
      Table t("t", Schema({{"a", field, true}}));
      const uint32_t rows[] = {0};
      const Status st = t.AppendRowsFrom(src, rows, 1);
      if (field == source) {
        ASSERT_TRUE(st.ok()) << st.ToString();
        EXPECT_EQ(t.at(0, 0), CellOf(source));
      } else {
        EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
        EXPECT_EQ(t.num_rows(), 0u);
        EXPECT_TRUE(t.column(0).empty());
      }
    }
  }
}

TEST(TableTest, AppendRowsFromRejectsRowsPastTheSource) {
  Table src("t", Schema({{"a", DataType::kInt64, true}}));
  ASSERT_TRUE(src.AppendRow({Value(int64_t{1})}).ok());
  ASSERT_TRUE(src.AppendRow({Value(int64_t{2})}).ok());
  Table t("t", src.schema());
  EXPECT_EQ(t.AppendRowsFrom(src, nullptr, 3).code(),
            StatusCode::kInvalidArgument);
  const uint32_t past[] = {0, 2};
  EXPECT_EQ(t.AppendRowsFrom(src, past, 2).code(),
            StatusCode::kInvalidArgument);
  const uint32_t null_row[] = {Table::kNullRow};
  EXPECT_EQ(t.AppendRowsFrom(src, null_row, 1).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(t.num_rows(), 0u);
  EXPECT_TRUE(t.column(0).empty());
  const uint32_t last[] = {1};
  ASSERT_TRUE(t.AppendRowsFrom(src, last, 1).ok());
  ASSERT_TRUE(t.AppendRowsFrom(src, nullptr, 2).ok());
  EXPECT_EQ(t.num_rows(), 3u);
  EXPECT_EQ(t.at(0, 0), Value(int64_t{2}));
}

TEST(TableTest, FromColumnsRejectsMissingSourcesAndRowsPastThem) {
  Table src("src", Schema({{"a", DataType::kInt64, true}}));
  ASSERT_TRUE(src.AppendRow({Value(int64_t{1})}).ok());
  ASSERT_TRUE(src.AppendRow({Value(int64_t{2})}).ok());
  const Schema schema({{"a", DataType::kInt64, true}});
  auto gather = [&](Table::ColumnSource source, size_t n) {
    return Table::FromColumns("t", schema, {source}, n).status().code();
  };
  EXPECT_EQ(gather({nullptr, 0, nullptr}, 1), StatusCode::kInvalidArgument);
  EXPECT_EQ(gather({&src, 1, nullptr}, 1), StatusCode::kInvalidArgument);
  EXPECT_EQ(gather({&src, 0, nullptr}, 3), StatusCode::kInvalidArgument);
  const uint32_t past[] = {Table::kNullRow, 2};
  EXPECT_EQ(gather({&src, 0, past}, 2), StatusCode::kInvalidArgument);
  const uint32_t in_range[] = {Table::kNullRow, 1};
  EXPECT_EQ(gather({&src, 0, in_range}, 2), StatusCode::kOk);
  // A second column gathered through the same indexes from another table
  // is checked against that table's rows.
  Table one_row("one", src.schema());
  ASSERT_TRUE(one_row.AppendRow({Value(int64_t{3})}).ok());
  auto two = Table::FromColumns(
      "t", Schema({{"a", DataType::kInt64, true}, {"b", DataType::kInt64, true}}),
      {{&src, 0, in_range}, {&one_row, 0, in_range}}, 2);
  EXPECT_EQ(two.status().code(), StatusCode::kInvalidArgument);
}

TEST(WidenTypeTest, OneRuleForEveryPair) {
  for (DataType a : kAllTypes) {
    EXPECT_EQ(WidenType(a, a), a);
    EXPECT_EQ(WidenType(a, DataType::kNull), a);
    EXPECT_EQ(WidenType(DataType::kNull, a), a);
  }
  EXPECT_EQ(WidenType(DataType::kInt64, DataType::kDouble), DataType::kDouble);
  EXPECT_EQ(WidenType(DataType::kDouble, DataType::kInt64), DataType::kDouble);
  EXPECT_EQ(WidenType(DataType::kBool, DataType::kInt64), DataType::kString);
  EXPECT_EQ(WidenType(DataType::kDouble, DataType::kString), DataType::kString);
}

TEST(CoerceValueTest, ConvertsIntoWidenedTypes) {
  EXPECT_TRUE(CoerceValue(Value(int64_t{3}), DataType::kDouble).is_double());
  EXPECT_EQ(CoerceValue(Value(int64_t{3}), DataType::kString), Value("3"));
  EXPECT_EQ(CoerceValue(Value(true), DataType::kString), Value("true"));
  EXPECT_EQ(CoerceValue(Value(2.5), DataType::kString), Value("2.5"));
  EXPECT_TRUE(CoerceValue(Value::Null(), DataType::kString).is_null());
  // No rule narrows: the cell comes back as is, for AppendRow to reject.
  EXPECT_TRUE(CoerceValue(Value(2.5), DataType::kInt64).is_double());
}

TEST(SniffTypeTest, DetectsTypes) {
  // SniffType reads string_views, the tokenizer's fields.
  using Fields = std::vector<std::string_view>;
  EXPECT_EQ(SniffType(Fields{"1", "2", "-3"}), DataType::kInt64);
  EXPECT_EQ(SniffType(Fields{"1.5", "2"}), DataType::kDouble);
  EXPECT_EQ(SniffType(Fields{"true", "false"}), DataType::kBool);
  EXPECT_EQ(SniffType(Fields{"x", "1"}), DataType::kString);
  EXPECT_EQ(SniffType(Fields{"", ""}), DataType::kString);
  EXPECT_EQ(SniffType(Fields{"1", "", "2"}), DataType::kInt64);  // NULLs
  // A double must parse as a whole: a numeric prefix is not enough.
  EXPECT_EQ(SniffType(Fields{"3.14"}), DataType::kDouble);
  EXPECT_EQ(SniffType(Fields{"-2.5e3"}), DataType::kDouble);
  EXPECT_EQ(SniffType(Fields{"12abc"}), DataType::kString);
  EXPECT_EQ(SniffType(Fields{"abc"}), DataType::kString);
  // Past int64: decoding could not store it as an int, so it sniffs double.
  EXPECT_EQ(SniffType(Fields{"99999999999999999999", "1"}), DataType::kDouble);
  // The double parse starts at the first field that is not an int64.
  EXPECT_EQ(SniffType(Fields{"1", "2", "2.5"}), DataType::kDouble);
  EXPECT_EQ(SniffType(Fields{"1", "2", "2.5x"}), DataType::kString);
  EXPECT_EQ(SniffType(Fields{}), DataType::kString);
}

TEST(TableFromCsvTest, IntegerPastInt64IsADoubleColumn) {
  auto r = Table::FromCsv("t", "id\n99999999999999999999\n1\n");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->schema().field(0).type, DataType::kDouble);
  ASSERT_FALSE(r->at(0, 0).is_null());
  EXPECT_EQ(r->at(0, 0).as_double(), 1e20);
  EXPECT_EQ(r->at(1, 0).as_double(), 1.0);
}

TEST(TableFromCsvTest, IntegerPastInt64AfterIntsIsADoubleColumn) {
  // The 20-digit field follows fields that parse as int64: sniffing turns
  // to doubles there, and every row of the column decodes as a double.
  auto r = Table::FromCsv("t", "id,n\n1,7\n2,8\n99999999999999999999,9\n");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->schema().field(0).type, DataType::kDouble);
  EXPECT_EQ(r->schema().field(1).type, DataType::kInt64);
  EXPECT_TRUE(r->at(0, 0).is_double());
  EXPECT_EQ(r->at(0, 0).as_double(), 1.0);
  EXPECT_EQ(r->at(2, 0).as_double(), 1e20);
}

TEST(TableFromCsvTest, HeaderOnlyFileIsAnEmptyStringTable) {
  auto r = Table::FromCsv("t", "a,b\n");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->num_rows(), 0u);
  ASSERT_EQ(r->num_columns(), 2u);
  EXPECT_EQ(r->schema().field(0).type, DataType::kString);
  EXPECT_EQ(r->schema().field(1).name, "b");
}

TEST(TableFromCsvTest, UnescapedFieldsDecodeAsTheirContent) {
  // "a"b is ab; a bare '\r' outside quotes is dropped; a quoted empty
  // field and an empty one are both NULL; a quoted number is a number.
  auto r = Table::FromCsv(
      "t", "s,n\n\"a\"b,\"1\"\r\nx\ry,\"\"\n\"she said \"\"hi\"\"\",\n");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->num_rows(), 3u);
  EXPECT_EQ(r->schema().field(1).type, DataType::kInt64);
  EXPECT_EQ(r->at(0, 0), Value("ab"));
  EXPECT_EQ(r->at(0, 1), Value(int64_t{1}));
  EXPECT_EQ(r->at(1, 0), Value("xy"));
  EXPECT_TRUE(r->at(1, 1).is_null());
  EXPECT_EQ(r->at(2, 0), Value("she said \"hi\""));
  EXPECT_TRUE(r->at(2, 1).is_null());
}

TEST(TableFromCsvTest, SchemaDecodeNamesTheFirstBadFieldInRowOrder) {
  // Column b fails on row 0, column a on row 1: the error is row 0's.
  const Schema schema({{"a", DataType::kInt64, true},
                       {"b", DataType::kBool, true}});
  auto r = Table::FromCsv("t", "a,b\n1,maybe\nx,true\n", schema);
  ASSERT_EQ(r.status().code(), StatusCode::kCorruption);
  EXPECT_EQ(r.status().message(),
            "CSV field 'maybe' of column 'b' is not bool");
  auto tie = Table::FromCsv("t", "a,b\nx,maybe\n", schema);
  EXPECT_EQ(tie.status().message(), "CSV field 'x' of column 'a' is not int64");
}

TEST(TableFromCsvTest, DecodesAgainstAGivenSchema) {
  const Schema schema({{"code", DataType::kString, true},
                       {"n", DataType::kInt64, true},
                       {"ok", DataType::kBool, true}});
  auto r = Table::FromCsv("t", "code,n,ok\n007,1,true\n1.50,, false\n", schema);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->schema(), schema);
  EXPECT_EQ(r->at(0, 0), Value("007"));
  EXPECT_EQ(r->at(1, 0), Value("1.50"));
  EXPECT_EQ(r->at(0, 1), Value(int64_t{1}));
  EXPECT_TRUE(r->at(1, 1).is_null());
  EXPECT_EQ(r->at(1, 2), Value(false));
}

TEST(TableFromCsvTest, SchemaDecodeRejectsWhatDoesNotFit) {
  const Schema schema({{"a", DataType::kInt64, true},
                       {"b", DataType::kNull, true}});
  EXPECT_EQ(Table::FromCsv("t", "a,c\n1,\n", schema).status().code(),
            StatusCode::kCorruption);
  EXPECT_EQ(Table::FromCsv("t", "a\n1\n", schema).status().code(),
            StatusCode::kCorruption);
  EXPECT_EQ(Table::FromCsv("t", "a,b\nx,\n", schema).status().code(),
            StatusCode::kCorruption);
  EXPECT_EQ(Table::FromCsv("t", "a,b\n1.5,\n", schema).status().code(),
            StatusCode::kCorruption);
  EXPECT_EQ(Table::FromCsv("t", "a,b\n1,y\n", schema).status().code(),
            StatusCode::kCorruption);
  auto ok = Table::FromCsv("t", "a,b\n 1 ,\n,\n", schema);
  ASSERT_TRUE(ok.ok()) << ok.status().ToString();
  EXPECT_EQ(ok->at(0, 0), Value(int64_t{1}));
  EXPECT_TRUE(ok->at(1, 0).is_null());
}

TEST(TableFromCsvTest, TypedColumns) {
  auto r = Table::FromCsv("t", "id,score,name\n1,3.5,ada\n2,4.0,bob\n");
  ASSERT_TRUE(r.ok());
  const Table& t = *r;
  EXPECT_EQ(t.schema().field(0).type, DataType::kInt64);
  EXPECT_EQ(t.schema().field(1).type, DataType::kDouble);
  EXPECT_EQ(t.schema().field(2).type, DataType::kString);
  EXPECT_EQ(t.at(0, 0).as_int(), 1);
  EXPECT_DOUBLE_EQ(t.at(1, 1).as_double(), 4.0);
}

TEST(TableFromCsvTest, EmptyFieldsBecomeNull) {
  auto r = Table::FromCsv("t", "a,b\n1,\n,x\n");
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->at(0, 1).is_null());
  EXPECT_TRUE(r->at(1, 0).is_null());
}

TEST(TableCsvRoundTripTest, PreservesData) {
  auto t = Table::FromCsv("t", "id,name\n1,ada\n2,\"a,b\"\n");
  ASSERT_TRUE(t.ok());
  auto t2 = Table::FromCsv("t", t->ToCsv());
  ASSERT_TRUE(t2.ok());
  EXPECT_EQ(*t, *t2);
}

TEST(TableFromJsonTest, UnionSchemaAndNulls) {
  auto doc = json::Parse(
      R"([{"a": 1, "b": "x"}, {"b": "y", "c": 2.5}, {"a": 3}])");
  ASSERT_TRUE(doc.ok());
  auto r = Table::FromJson("t", *doc);
  ASSERT_TRUE(r.ok());
  const Table& t = *r;
  EXPECT_EQ(t.schema().FieldNames(),
            (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(t.num_rows(), 3u);
  EXPECT_TRUE(t.at(1, 0).is_null());   // row 2 has no "a"
  EXPECT_TRUE(t.at(2, 1).is_null());   // row 3 has no "b"
  EXPECT_EQ(t.at(2, 0).as_int(), 3);
}

TEST(TableFromJsonTest, MixedIntDoubleWidensToDouble) {
  auto doc = json::Parse(R"([{"x": 1}, {"x": 2.5}])");
  auto r = Table::FromJson("t", *doc);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->schema().field(0).type, DataType::kDouble);
  EXPECT_DOUBLE_EQ(r->at(0, 0).as_double(), 1.0);
}

TEST(TableFromJsonTest, NestedValuesFlattenToJsonStrings) {
  auto doc = json::Parse(R"([{"x": {"nested": true}}])");
  auto r = Table::FromJson("t", *doc);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->schema().field(0).type, DataType::kString);
  EXPECT_EQ(r->at(0, 0).as_string(), R"({"nested":true})");
}

TEST(TableFromJsonTest, RejectsNonArray) {
  auto doc = json::Parse(R"({"a": 1})");
  EXPECT_FALSE(Table::FromJson("t", *doc).ok());
}

TEST(TableJsonRoundTripTest, PreservesData) {
  auto t = Table::FromCsv("t", "id,name,score\n1,ada,2.5\n2,bob,\n");
  ASSERT_TRUE(t.ok());
  auto t2 = Table::FromJson("t", t->ToJson());
  ASSERT_TRUE(t2.ok());
  EXPECT_EQ(t->num_rows(), t2->num_rows());
  EXPECT_EQ(t->at(0, 1), t2->at(0, 1));
  EXPECT_TRUE(t2->at(1, 2).is_null());
}

}  // namespace
}  // namespace lakekit::table
