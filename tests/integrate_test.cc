#include <gtest/gtest.h>

#include "integrate/full_disjunction.h"
#include "integrate/mapping.h"
#include "integrate/schema_match.h"
#include "table/table.h"

namespace lakekit::integrate {
namespace {

// ---------------------------------------------------------------- matching

TEST(SchemaMatchTest, IdenticalColumnsScoreHigh) {
  auto a = table::Table::FromCsv("a", "city,pop\ndelft,100\nleiden,120\n");
  auto b = table::Table::FromCsv("b", "city,pop\ndelft,100\nhague,500\n");
  SchemaMatcher matcher;
  // Identical name (1.0) + 1/3 value overlap -> 0.5*1 + 0.5*0.33 = 0.67.
  EXPECT_GT(matcher.ColumnSimilarity(*a, 0, *b, 0), 0.6);
  // city vs pop: low.
  EXPECT_LT(matcher.ColumnSimilarity(*a, 0, *b, 1), 0.3);
}

TEST(SchemaMatchTest, MatchIsOneToOne) {
  auto a = table::Table::FromCsv("a", "city,population\ndelft,100\n");
  auto b = table::Table::FromCsv(
      "b", "city_name,population_count\ndelft,100\n");
  SchemaMatcher matcher;
  auto matches = matcher.Match(*a, *b);
  ASSERT_EQ(matches.size(), 2u);
  std::set<size_t> left;
  std::set<size_t> right;
  for (const auto& m : matches) {
    EXPECT_TRUE(left.insert(m.left_col).second);
    EXPECT_TRUE(right.insert(m.right_col).second);
  }
}

TEST(SchemaMatchTest, ValueOverlapMatchesRenamedColumn) {
  // Completely different names but identical instance values.
  auto a = table::Table::FromCsv("a", "kode\nNL\nDE\nFR\nBE\nUK\n");
  auto b = table::Table::FromCsv("b", "country\nNL\nDE\nFR\nBE\nES\n");
  SchemaMatcher matcher;
  auto matches = matcher.Match(*a, *b);
  ASSERT_EQ(matches.size(), 1u);
  EXPECT_EQ(matches[0].left_col, 0u);
  EXPECT_EQ(matches[0].right_col, 0u);
}

TEST(SchemaMatchTest, NoMatchBelowThreshold) {
  auto a = table::Table::FromCsv("a", "alpha\nx1\nx2\n");
  auto b = table::Table::FromCsv("b", "omega\ny1\ny2\n");
  SchemaMatcher matcher;
  EXPECT_TRUE(matcher.Match(*a, *b).empty());
}

// ---------------------------------------------------------------- mapping

TEST(IntegrateSchemasTest, MatchedColumnsCollapse) {
  auto a = table::Table::FromCsv("a", "city,mayor\ndelft,ada\n");
  auto b = table::Table::FromCsv("b", "city,area\ndelft,24\n");
  auto result = IntegrateSchemas({*a, *b});
  ASSERT_TRUE(result.ok());
  // city collapses; mayor + area carried over: 3 integrated columns.
  EXPECT_EQ(result->integrated.num_fields(), 3u);
  EXPECT_TRUE(result->integrated.HasField("city"));
  EXPECT_TRUE(result->integrated.HasField("mayor"));
  EXPECT_TRUE(result->integrated.HasField("area"));
  ASSERT_EQ(result->mappings.size(), 2u);
  // Both sources map their city column to the same integrated column.
  EXPECT_EQ(result->mappings[0].column_map.at(0),
            result->mappings[1].column_map.at(0));
}

TEST(IntegrateSchemasTest, EmptySourcesRejected) {
  EXPECT_FALSE(IntegrateSchemas({}).ok());
}

TEST(ApplyMappingsTest, OuterUnionWithNulls) {
  auto a = table::Table::FromCsv("a", "city,mayor\ndelft,ada\n");
  auto b = table::Table::FromCsv("b", "city,area\nleiden,22\n");
  auto integration = IntegrateSchemas({*a, *b});
  ASSERT_TRUE(integration.ok());
  auto merged = ApplyMappings({*a, *b}, *integration);
  ASSERT_TRUE(merged.ok());
  EXPECT_EQ(merged->num_rows(), 2u);
  // Row from a: area NULL; row from b: mayor NULL.
  size_t area_col = *merged->schema().IndexOf("area");
  size_t mayor_col = *merged->schema().IndexOf("mayor");
  EXPECT_TRUE(merged->at(0, area_col).is_null());
  EXPECT_TRUE(merged->at(1, mayor_col).is_null());
}

// ---------------------------------------------------------------- FD

TEST(FullDisjunctionTest, JoinableTuplesCombine) {
  // Three tables chained by shared keys — the classic FD example.
  auto a = table::Table::FromCsv("a", "city,country\ndelft,NL\n");
  auto b = table::Table::FromCsv("b", "city,population\ndelft,104000\n");
  auto c = table::Table::FromCsv("c", "country,continent\nNL,Europe\n");
  auto fd = IntegrateTables({*a, *b, *c});
  ASSERT_TRUE(fd.ok());
  // One fully-connected tuple should exist with all 4 attributes non-null.
  bool complete_found = false;
  for (size_t r = 0; r < fd->num_rows(); ++r) {
    bool complete = true;
    for (size_t col = 0; col < fd->num_columns(); ++col) {
      if (fd->at(r, col).is_null()) complete = false;
    }
    if (complete) complete_found = true;
  }
  EXPECT_TRUE(complete_found);
  // Subsumed partial tuples are gone: exactly one row remains.
  EXPECT_EQ(fd->num_rows(), 1u);
}

TEST(FullDisjunctionTest, UnjoinableTuplesStayApart) {
  auto a = table::Table::FromCsv("a", "city,country\ndelft,NL\n");
  auto b = table::Table::FromCsv("b", "city,population\nmunich,150\n");
  auto fd = IntegrateTables({*a, *b});
  ASSERT_TRUE(fd.ok());
  EXPECT_EQ(fd->num_rows(), 2u);  // nothing joins, nothing subsumes
}

TEST(FullDisjunctionTest, PartialOverlapKeepsBothConnectedAndLonely) {
  auto a = table::Table::FromCsv("a", "k,x\n1,a\n2,b\n");
  auto b = table::Table::FromCsv("b", "k,y\n1,p\n3,q\n");
  auto fd = IntegrateTables({*a, *b});
  ASSERT_TRUE(fd.ok());
  // Expected: (1,a,p) merged, (2,b,NULL), (3,NULL,q).
  EXPECT_EQ(fd->num_rows(), 3u);
  size_t complete_rows = 0;
  for (size_t r = 0; r < fd->num_rows(); ++r) {
    bool complete = true;
    for (size_t c = 0; c < fd->num_columns(); ++c) {
      if (fd->at(r, c).is_null()) complete = false;
    }
    if (complete) ++complete_rows;
  }
  EXPECT_EQ(complete_rows, 1u);
}

TEST(FullDisjunctionTest, TupleBudgetGuard) {
  // Two identical single-column tables of distinct values with an absurdly
  // low budget trigger the guard.
  std::string csv = "k\n";
  for (int i = 0; i < 50; ++i) csv += std::to_string(i) + "\n";
  auto a = table::Table::FromCsv("a", csv);
  auto b = table::Table::FromCsv("b", csv);
  FullDisjunctionOptions options;
  options.max_tuples = 10;
  auto integration = IntegrateSchemas({*a, *b});
  ASSERT_TRUE(integration.ok());
  auto fd = FullDisjunction({*a, *b}, *integration, options);
  EXPECT_FALSE(fd.ok());
}

TEST(FullDisjunctionTest, DeduplicatesIdenticalRows) {
  auto a = table::Table::FromCsv("a", "k,v\n1,x\n1,x\n");
  auto b = table::Table::FromCsv("b", "k,v\n1,x\n");
  auto fd = IntegrateTables({*a, *b});
  ASSERT_TRUE(fd.ok());
  EXPECT_EQ(fd->num_rows(), 1u);
}

// ("a\x02", "b") and ("a", "\x02b") are two tuples, so neither is dropped
// as a duplicate of the other.
TEST(FullDisjunctionTest, DistinctTuplesWithSeparatorBytesBothSurvive) {
  const table::Schema schema({{"x", table::DataType::kString, true},
                              {"y", table::DataType::kString, true}});
  table::Table a("a", schema);
  ASSERT_TRUE(a.AppendRow({table::Value("a\x02"), table::Value("b")}).ok());
  table::Table b("b", schema);
  // "\x02" "b": as one literal, "\x02b" would be the single byte 0x2b.
  ASSERT_TRUE(
      b.AppendRow({table::Value("a"), table::Value("\x02" "b")}).ok());
  auto fd = IntegrateTables({a, b});
  ASSERT_TRUE(fd.ok());
  EXPECT_EQ(fd->num_rows(), 2u);
}

}  // namespace
}  // namespace lakekit::integrate
