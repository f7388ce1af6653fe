#include <gtest/gtest.h>

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

}  // namespace
}  // namespace lakekit::evolution
