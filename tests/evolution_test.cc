#include <gtest/gtest.h>

#include <array>
#include <set>
#include <string>
#include <vector>

#include "common/random.h"
#include "evolution/inclusion_deps.h"
#include "evolution/schema_history.h"
#include "json/parser.h"
#include "workload/generator.h"

namespace lakekit::evolution {
namespace {

// ---------------------------------------------------------------- history

std::vector<json::Value> Docs(std::initializer_list<const char*> raws) {
  std::vector<json::Value> out;
  for (const char* raw : raws) out.push_back(*json::Parse(raw));
  return out;
}

TEST(SchemaHistoryTest, SingleVersion) {
  auto versions = SchemaHistory::ExtractVersions(Docs({
      R"({"_ts": 1, "a": 1, "b": "x"})",
      R"({"_ts": 2, "a": 2, "b": "y"})",
  }));
  ASSERT_TRUE(versions.ok());
  ASSERT_EQ(versions->size(), 1u);
  EXPECT_EQ((*versions)[0].num_documents, 2u);
  EXPECT_EQ((*versions)[0].first_ts, 1);
  EXPECT_EQ((*versions)[0].last_ts, 2);
  ASSERT_EQ((*versions)[0].properties.size(), 2u);
}

TEST(SchemaHistoryTest, VersionBoundaryOnStructureChange) {
  auto versions = SchemaHistory::ExtractVersions(Docs({
      R"({"_ts": 1, "a": 1})",
      R"({"_ts": 2, "a": 1, "b": "x"})",
      R"({"_ts": 3, "a": 2, "b": "y"})",
  }));
  ASSERT_TRUE(versions.ok());
  ASSERT_EQ(versions->size(), 2u);
  EXPECT_EQ((*versions)[0].version, 1u);
  EXPECT_EQ((*versions)[1].version, 2u);
  EXPECT_EQ((*versions)[1].num_documents, 2u);
}

TEST(SchemaHistoryTest, DocumentsSortedByTimestamp) {
  // Same structure out of order still collapses to one version.
  auto versions = SchemaHistory::ExtractVersions(Docs({
      R"({"_ts": 5, "a": 1})",
      R"({"_ts": 1, "a": 2})",
      R"({"_ts": 3, "a": 3})",
  }));
  ASSERT_TRUE(versions.ok());
  ASSERT_EQ(versions->size(), 1u);
  EXPECT_EQ((*versions)[0].first_ts, 1);
  EXPECT_EQ((*versions)[0].last_ts, 5);
}

TEST(SchemaHistoryTest, MissingTimestampRejected) {
  EXPECT_FALSE(SchemaHistory::ExtractVersions(Docs({R"({"a": 1})"})).ok());
  EXPECT_FALSE(SchemaHistory::ExtractVersions({}).ok());
}

TEST(SchemaHistoryTest, DiffDetectsAddRemove) {
  EntityTypeVersion v1;
  v1.properties = {{"a", "int"}, {"b", "string"}};
  EntityTypeVersion v2;
  v2.properties = {{"a", "int"}, {"c", "bool"}};
  auto changes = SchemaHistory::DiffVersions(v1, v2);
  // b removed (string), c added (bool) — types differ, so no rename.
  ASSERT_EQ(changes.size(), 2u);
  bool removed_b = false;
  bool added_c = false;
  for (const SchemaChange& c : changes) {
    if (c.kind == ChangeKind::kRemoveProperty && c.property == "b") {
      removed_b = true;
    }
    if (c.kind == ChangeKind::kAddProperty && c.property == "c") {
      added_c = true;
    }
  }
  EXPECT_TRUE(removed_b);
  EXPECT_TRUE(added_c);
}

TEST(SchemaHistoryTest, DiffDetectsRenameBySameType) {
  EntityTypeVersion v1;
  v1.properties = {{"name", "string"}};
  EntityTypeVersion v2;
  v2.properties = {{"full_name", "string"}};
  auto changes = SchemaHistory::DiffVersions(v1, v2);
  ASSERT_EQ(changes.size(), 1u);
  EXPECT_EQ(changes[0].kind, ChangeKind::kRenameProperty);
  EXPECT_EQ(changes[0].property, "name");
  EXPECT_EQ(changes[0].detail, "full_name");
  EXPECT_EQ(changes[0].ToString(), "rename name -> full_name");
}

TEST(SchemaHistoryTest, DiffDetectsTypeChange) {
  EntityTypeVersion v1;
  v1.properties = {{"age", "string"}};
  EntityTypeVersion v2;
  v2.properties = {{"age", "int"}};
  auto changes = SchemaHistory::DiffVersions(v1, v2);
  ASSERT_EQ(changes.size(), 1u);
  EXPECT_EQ(changes[0].kind, ChangeKind::kTypeChange);
  EXPECT_EQ(changes[0].detail, "int");
}

TEST(SchemaHistoryTest, ReconstructsPlantedEvolution) {
  auto corpus = workload::MakeEvolvingCorpus({});
  auto versions = SchemaHistory::ExtractVersions(corpus.documents);
  ASSERT_TRUE(versions.ok());
  ASSERT_EQ(versions->size(), 3u);
  auto changes = SchemaHistory::ExtractChanges(corpus.documents);
  ASSERT_TRUE(changes.ok());
  // v1->v2: add email. v2->v3: rename name->full_name, remove age.
  bool add_email = false;
  bool rename_name = false;
  bool remove_age = false;
  for (const SchemaChange& c : *changes) {
    if (c.kind == ChangeKind::kAddProperty && c.property == "email") {
      add_email = true;
    }
    if (c.kind == ChangeKind::kRenameProperty && c.property == "name" &&
        c.detail == "full_name") {
      rename_name = true;
    }
    if (c.kind == ChangeKind::kRemoveProperty && c.property == "age") {
      remove_age = true;
    }
  }
  EXPECT_TRUE(add_email);
  EXPECT_TRUE(rename_name);
  EXPECT_TRUE(remove_age);
}

// ---------------------------------------------------------------- INDs

TEST(InclusionDepsTest, HoldsInclusionExactCheck) {
  auto orders = table::Table::FromCsv("orders", "uid\n1\n2\n1\n");
  auto users = table::Table::FromCsv("users", "id\n1\n2\n3\n");
  EXPECT_TRUE(HoldsInclusion(*orders, {0}, *users, {0}));
  EXPECT_FALSE(HoldsInclusion(*users, {0}, *orders, {0}));  // 3 missing
}

TEST(InclusionDepsTest, DiscoversUnaryInd) {
  auto orders = table::Table::FromCsv("orders", "uid,total\n1,10\n2,20\n");
  auto users = table::Table::FromCsv("users", "id,name\n1,ada\n2,bob\n3,eve\n");
  auto inds = DiscoverInclusionDependencies({*orders, *users});
  bool found = false;
  for (const InclusionDependency& ind : inds) {
    if (ind.dependent_table == "orders" &&
        ind.dependent_columns == std::vector<std::string>{"uid"} &&
        ind.referenced_table == "users" &&
        ind.referenced_columns == std::vector<std::string>{"id"}) {
      found = true;
      EXPECT_EQ(ind.ToString(), "orders[uid] <= users[id]");
    }
  }
  EXPECT_TRUE(found);
}

TEST(InclusionDepsTest, DiscoversBinaryInd) {
  // (city, zip) of deliveries is included in (city, zip) of addresses, but
  // neither a cross pairing nor the reverse holds.
  auto addresses = table::Table::FromCsv(
      "addresses", "city,zip\nA,Z1\nB,Z2\nC,Z3\n");
  auto deliveries = table::Table::FromCsv(
      "deliveries", "dcity,dzip\nA,Z1\nB,Z2\n");
  IndOptions options;
  options.max_arity = 2;
  auto inds = DiscoverInclusionDependencies({*addresses, *deliveries}, options);
  bool binary_found = false;
  for (const InclusionDependency& ind : inds) {
    if (ind.arity() == 2 && ind.dependent_table == "deliveries" &&
        ind.referenced_table == "addresses") {
      binary_found = true;
      EXPECT_EQ(ind.dependent_columns,
                (std::vector<std::string>{"dcity", "dzip"}));
    }
  }
  EXPECT_TRUE(binary_found);
}

TEST(InclusionDepsTest, BinaryIndRequiresTupleLevelInclusion) {
  // Column-wise inclusion holds but tuple (2, X) never appears in ref.
  auto ref = table::Table::FromCsv("ref", "a,b\n1,X\n2,Y\n");
  auto dep = table::Table::FromCsv("dep", "a,b\n1,X\n2,X\n");
  EXPECT_TRUE(HoldsInclusion(*dep, {0}, *ref, {0}));
  EXPECT_TRUE(HoldsInclusion(*dep, {1}, *ref, {1}));
  EXPECT_FALSE(HoldsInclusion(*dep, {0, 1}, *ref, {0, 1}));
}

// A tuple's key is self-delimiting: ("a\x02", "b") is not ("a", "\x02b").
TEST(InclusionDepsTest, TupleKeysDoNotCollide) {
  const table::Schema schema({{"x", table::DataType::kString, true},
                              {"y", table::DataType::kString, true}});
  table::Table dep("dep", schema);
  ASSERT_TRUE(dep.AppendRow({table::Value("a\x02"), table::Value("b")}).ok());
  table::Table ref("ref", schema);
  // "\x02" "b": as one literal, "\x02b" would be the single byte 0x2b.
  ASSERT_TRUE(
      ref.AppendRow({table::Value("a"), table::Value("\x02" "b")}).ok());
  EXPECT_FALSE(HoldsInclusion(dep, {0, 1}, ref, {0, 1}));
}

TEST(InclusionDepsTest, MinDistinctFiltersTinyColumns) {
  auto a = table::Table::FromCsv("a", "flag\n0\n0\n");
  auto b = table::Table::FromCsv("b", "bit\n0\n1\n");
  IndOptions options;
  options.min_distinct = 2;
  auto inds = DiscoverInclusionDependencies({*a, *b}, options);
  for (const InclusionDependency& ind : inds) {
    EXPECT_NE(ind.dependent_table, "a");  // single-valued column filtered
  }
}

/// Discovery as pairwise checks: every cross-table column pair that passes
/// the distinct filter goes through HoldsInclusion, then pairs of unary
/// INDs over the same tables through the binary check. The oracle of the
/// discovery's precomputed column keys.
std::vector<std::string> OracleInds(const std::vector<table::Table>& tables,
                                    const IndOptions& options) {
  auto distinct = [](const table::Table& t, size_t col) {
    std::set<std::string> values;
    for (const table::Value& v : t.column(col)) {
      if (!v.is_null()) values.insert(v.ToString());
    }
    return values.size();
  };
  std::vector<std::string> out;
  std::vector<std::array<size_t, 4>> unary;
  for (size_t a = 0; a < tables.size(); ++a) {
    for (size_t b = 0; b < tables.size(); ++b) {
      if (a == b) continue;
      for (size_t ca = 0; ca < tables[a].num_columns(); ++ca) {
        for (size_t cb = 0; cb < tables[b].num_columns(); ++cb) {
          if (distinct(tables[a], ca) < options.min_distinct ||
              distinct(tables[b], cb) < options.min_distinct) {
            continue;
          }
          if (HoldsInclusion(tables[a], {ca}, tables[b], {cb})) {
            unary.push_back({a, ca, b, cb});
            out.push_back(tables[a].name() + "[" +
                          tables[a].schema().field(ca).name + "] <= " +
                          tables[b].name() + "[" +
                          tables[b].schema().field(cb).name + "]");
          }
        }
      }
    }
  }
  for (size_t i = 0; options.max_arity >= 2 && i < unary.size(); ++i) {
    for (size_t j = i + 1; j < unary.size(); ++j) {
      const auto& u = unary[i];
      const auto& v = unary[j];
      if (u[0] != v[0] || u[2] != v[2] || u[1] == v[1] || u[3] == v[3]) {
        continue;
      }
      if (HoldsInclusion(tables[u[0]], {u[1], v[1]}, tables[u[2]],
                         {u[3], v[3]})) {
        InclusionDependency ind{
            tables[u[0]].name(),
            {tables[u[0]].schema().field(u[1]).name,
             tables[u[0]].schema().field(v[1]).name},
            tables[u[2]].name(),
            {tables[u[2]].schema().field(u[3]).name,
             tables[u[2]].schema().field(v[3]).name}};
        out.push_back(ind.ToString());
      }
    }
  }
  return out;
}

// Seeded random tables over small, overlapping domains — ints, strings that
// spell the same digits, NULLs and empty tables — so many inclusions hold.
TEST(InclusionDepsTest, MatchesPairwiseHoldsInclusionOnRandomTables) {
  for (uint64_t seed = 1; seed <= 40; ++seed) {
    Rng rng(seed);
    std::vector<table::Table> tables;
    const size_t num_tables = 2 + rng.Below(3);
    for (size_t t = 0; t < num_tables; ++t) {
      table::Schema schema;
      const size_t cols = 1 + rng.Below(3);
      for (size_t c = 0; c < cols; ++c) {
        schema.AddField(table::Field{
            "c" + std::to_string(c),
            rng.Below(2) == 0 ? table::DataType::kInt64
                              : table::DataType::kString,
            true});
      }
      table::Table table("t" + std::to_string(t), schema);
      const size_t rows = rng.Below(4) == 0 ? 0 : 1 + rng.Below(12);
      const uint64_t domain = 2 + rng.Below(6);
      for (size_t r = 0; r < rows; ++r) {
        std::vector<table::Value> row;
        for (size_t c = 0; c < cols; ++c) {
          const int64_t v = static_cast<int64_t>(rng.Below(domain));
          if (rng.Below(10) == 0) {
            row.emplace_back();
          } else if (schema.field(c).type == table::DataType::kInt64) {
            row.emplace_back(v);
          } else {
            row.emplace_back(std::to_string(v));
          }
        }
        ASSERT_TRUE(table.AppendRow(std::move(row)).ok());
      }
      tables.push_back(std::move(table));
    }
    for (size_t min_distinct : {1, 2}) {
      IndOptions options;
      options.min_distinct = min_distinct;
      std::vector<std::string> got;
      for (const InclusionDependency& ind :
           DiscoverInclusionDependencies(tables, options)) {
        got.push_back(ind.ToString());
      }
      EXPECT_EQ(got, OracleInds(tables, options))
          << "seed " << seed << " min_distinct " << min_distinct;
    }
  }
}

}  // namespace
}  // namespace lakekit::evolution
