#include <gtest/gtest.h>

#include "ingest/structural_extractor.h"
#include "json/parser.h"
#include "metamodel/data_vault.h"
#include "metamodel/ekg.h"
#include "metamodel/gemms.h"
#include "metamodel/handle.h"
#include "table/table.h"

namespace lakekit::metamodel {
namespace {

MetadataUnit MakeUnit(const std::string& name) {
  MetadataUnit unit;
  unit.dataset = name;
  unit.properties["format"] = "json";
  auto doc = json::Parse(R"({"id": 1, "addr": {"city": "delft"}})");
  unit.structure = ingest::StructuralExtractor::InferJson(*doc);
  return unit;
}

// ---------------------------------------------------------------- GEMMS

TEST(GemmsModelTest, AddAndGetUnit) {
  GemmsModel model;
  ASSERT_TRUE(model.AddUnit(MakeUnit("people")).ok());
  EXPECT_TRUE(model.AddUnit(MakeUnit("people")).IsAlreadyExists());
  auto unit = model.GetUnit("people");
  ASSERT_TRUE(unit.ok());
  EXPECT_EQ((*unit)->properties.at("format"), "json");
  EXPECT_TRUE(model.GetUnit("ghost").status().IsNotFound());
  EXPECT_EQ(model.num_units(), 1u);
}

TEST(GemmsModelTest, ResolvePath) {
  MetadataUnit unit = MakeUnit("x");
  const auto* city = GemmsModel::ResolvePath(unit.structure, "root/addr/city");
  ASSERT_NE(city, nullptr);
  EXPECT_EQ(city->type, "string");
  EXPECT_EQ(GemmsModel::ResolvePath(unit.structure, "root/missing"), nullptr);
  EXPECT_EQ(GemmsModel::ResolvePath(unit.structure, "wrong/addr"), nullptr);
}

TEST(GemmsModelTest, AnnotateValidatesPath) {
  GemmsModel model;
  ASSERT_TRUE(model.AddUnit(MakeUnit("people")).ok());
  EXPECT_TRUE(
      model.Annotate("people", "root/addr/city", "schema.org/City").ok());
  EXPECT_TRUE(
      model.Annotate("people", "root/nope", "schema.org/Thing").IsNotFound());
  EXPECT_EQ(model.FindByOntologyTerm("schema.org/City"),
            (std::vector<std::string>{"people"}));
  EXPECT_TRUE(model.FindByOntologyTerm("schema.org/Nothing").empty());
}

TEST(GemmsModelTest, PropertyQueries) {
  GemmsModel model;
  ASSERT_TRUE(model.AddUnit(MakeUnit("a")).ok());
  ASSERT_TRUE(model.AddUnit(MakeUnit("b")).ok());
  ASSERT_TRUE(model.SetProperty("b", "format", "csv").ok());
  EXPECT_EQ(model.FindByProperty("format", "json"),
            (std::vector<std::string>{"a"}));
  EXPECT_EQ(model.FindByProperty("format", "csv"),
            (std::vector<std::string>{"b"}));
  EXPECT_TRUE(model.SetProperty("ghost", "k", "v").IsNotFound());
}

TEST(GemmsModelTest, UnitToJson) {
  MetadataUnit unit = MakeUnit("x");
  unit.annotations.push_back({"root/id", "schema.org/identifier"});
  json::Value v = unit.ToJson();
  EXPECT_EQ(v.GetString("dataset"), "x");
  EXPECT_TRUE(v.Get("annotations")->is_array());
}

// ---------------------------------------------------------------- HANDLE

TEST(HandleModelTest, ZonesAndMovement) {
  HandleModel model;
  auto raw = model.AddData("sensor_dump", "raw");
  EXPECT_EQ(*model.ZoneOf(raw), "raw");
  ASSERT_TRUE(model.MoveToZone(raw, "curated").ok());
  EXPECT_EQ(*model.ZoneOf(raw), "curated");
  EXPECT_EQ(model.DataInZone("curated").size(), 1u);
  EXPECT_TRUE(model.DataInZone("raw").empty());
}

TEST(HandleModelTest, MetadataAttachment) {
  HandleModel model;
  auto data = model.AddData("d", "raw");
  auto meta = model.AttachMetadata(data, "quality", json::Value("checked"));
  ASSERT_TRUE(meta.ok());
  auto all = model.MetadataOf(data);
  ASSERT_EQ(all.size(), 1u);
  EXPECT_EQ(all[0].first, "quality");
  EXPECT_EQ(all[0].second.as_string(), "checked");
  // Metadata on metadata (finer granularity).
  auto meta2 = model.AttachMetadata(*meta, "audit", json::Value("ok"));
  ASSERT_TRUE(meta2.ok());
  EXPECT_EQ(model.MetadataOf(*meta).size(), 1u);
  // Category filter.
  ASSERT_TRUE(model.AttachMetadata(data, "owner", json::Value("ada")).ok());
  EXPECT_EQ(model.MetadataOf(data, std::string("owner")).size(), 1u);
  EXPECT_EQ(model.MetadataOf(data).size(), 2u);
}

TEST(HandleModelTest, AttachToMissingItemFails) {
  HandleModel model;
  EXPECT_FALSE(model.AttachMetadata(999, "c", json::Value(1)).ok());
}

TEST(HandleModelTest, MoveNonDataItemFails) {
  HandleModel model;
  auto data = model.AddData("d", "raw");
  auto meta = model.AttachMetadata(data, "c", json::Value(1));
  EXPECT_TRUE(model.MoveToZone(*meta, "curated").IsInvalidArgument());
}

TEST(HandleModelTest, FindDataByName) {
  HandleModel model;
  auto id = model.AddData("needle", "raw");
  EXPECT_EQ(*model.FindData("needle"), id);
  EXPECT_FALSE(model.FindData("haystack").has_value());
}

TEST(HandleModelTest, GemmsUnitMapsOntoHandle) {
  HandleModel model;
  MetadataUnit unit = MakeUnit("people");
  unit.annotations.push_back({"root/id", "schema.org/identifier"});
  auto id = model.ImportGemmsUnit(unit, "raw");
  ASSERT_TRUE(id.ok());
  EXPECT_EQ(*model.ZoneOf(*id), "raw");
  EXPECT_EQ(model.MetadataOf(*id, std::string("property")).size(), 1u);
  EXPECT_EQ(model.MetadataOf(*id, std::string("structure")).size(), 1u);
  EXPECT_EQ(model.MetadataOf(*id, std::string("semantic")).size(), 1u);
}

// ---------------------------------------------------------------- EKG

// A table may hold two columns of one name; each is its own attribute.
TEST(EkgTest, RepeatedNamesAreSeparateNodes) {
  Ekg ekg;
  auto a = ekg.AddNode("orders", "id");
  auto a2 = ekg.AddNode("orders", "id");
  EXPECT_NE(a, a2);
  EXPECT_EQ(ekg.num_nodes(), 2u);
  EXPECT_EQ(*ekg.FindNode("orders", "id"), a);
  EXPECT_FALSE(ekg.FindNode("orders", "nope").has_value());
  EXPECT_EQ(ekg.GetNode(a2)->FullName(), "orders.id");
}

// Dataset "a.b"'s column "c" and dataset "a"'s column "b.c" share the
// string "a.b.c" but are two columns, so two nodes.
TEST(EkgTest, NamesWithDotsStayDistinct) {
  Ekg ekg;
  auto left = ekg.AddNode("a.b", "c");
  auto right = ekg.AddNode("a", "b.c");
  EXPECT_NE(left, right);
  EXPECT_EQ(ekg.num_nodes(), 2u);
  EXPECT_EQ(*ekg.FindNode("a.b", "c"), left);
  EXPECT_EQ(*ekg.FindNode("a", "b.c"), right);
  EXPECT_EQ(ekg.GetNode(right)->table, "a");
  EXPECT_EQ(ekg.GetNode(right)->column, "b.c");
}

TEST(EkgTest, EdgesWithWeightsAndUpdate) {
  Ekg ekg;
  auto a = ekg.AddNode("t1", "c1");
  auto b = ekg.AddNode("t2", "c2");
  ASSERT_TRUE(ekg.AddEdge(a, b, Relation::kContentSimilar, 0.8).ok());
  ASSERT_TRUE(ekg.AddEdge(b, a, Relation::kContentSimilar, 0.9).ok());
  // Undirected: the same edge was updated, not duplicated.
  EXPECT_EQ(ekg.num_edges(), 1u);
  auto neighbors = ekg.Neighbors(a, Relation::kContentSimilar);
  ASSERT_EQ(neighbors.size(), 1u);
  EXPECT_DOUBLE_EQ(neighbors[0].second, 0.9);
}

// HashCombine(1, 70) == HashCombine(2, 3): an edge keyed by a hash of its
// pair would take the second edge for an update of the first.
TEST(EkgTest, DistinctPairsKeepTheirOwnEdges) {
  Ekg ekg;
  for (int i = 0; i < 70; ++i) ekg.AddNode("t" + std::to_string(i), "c");
  ASSERT_TRUE(ekg.AddEdge(1, 70, Relation::kSchemaSimilar, 0.5).ok());
  ASSERT_TRUE(ekg.AddEdge(2, 3, Relation::kSchemaSimilar, 0.9).ok());
  EXPECT_EQ(ekg.num_edges(), 2u);
  EXPECT_EQ(ekg.Neighbors(1, Relation::kSchemaSimilar),
            (std::vector<std::pair<Ekg::NodeId, double>>{{70, 0.5}}));
  EXPECT_EQ(ekg.Neighbors(3, Relation::kSchemaSimilar),
            (std::vector<std::pair<Ekg::NodeId, double>>{{2, 0.9}}));
}

TEST(EkgTest, SelfEdgeRejected) {
  Ekg ekg;
  auto a = ekg.AddNode("t", "c");
  EXPECT_FALSE(ekg.AddEdge(a, a, Relation::kPkFk, 1.0).ok());
}

TEST(EkgTest, EdgeToUnknownNodeRejected) {
  Ekg ekg;
  auto a = ekg.AddNode("t", "c");
  EXPECT_TRUE(ekg.AddEdge(a, a + 1, Relation::kPkFk, 1.0).IsNotFound());
  EXPECT_TRUE(ekg.AddEdge(0, a, Relation::kPkFk, 1.0).IsNotFound());
  EXPECT_EQ(ekg.num_edges(), 0u);
  EXPECT_TRUE(ekg.Neighbors(a + 1, Relation::kPkFk).empty());
  EXPECT_TRUE(ekg.Neighbors(0, Relation::kPkFk).empty());
}

TEST(EkgTest, NeighborsFilteredByRelationAndWeight) {
  Ekg ekg;
  auto a = ekg.AddNode("t", "a");
  auto b = ekg.AddNode("t", "b");
  auto c = ekg.AddNode("t", "c");
  ASSERT_TRUE(ekg.AddEdge(a, b, Relation::kContentSimilar, 0.9).ok());
  ASSERT_TRUE(ekg.AddEdge(a, c, Relation::kContentSimilar, 0.2).ok());
  ASSERT_TRUE(ekg.AddEdge(a, c, Relation::kPkFk, 1.0).ok());
  EXPECT_EQ(ekg.Neighbors(a, Relation::kContentSimilar).size(), 2u);
  EXPECT_EQ(ekg.Neighbors(a, Relation::kContentSimilar, 0.5).size(), 1u);
  EXPECT_EQ(ekg.Neighbors(a, Relation::kPkFk).size(), 1u);
  // Sorted by weight descending.
  auto sorted = ekg.Neighbors(a, Relation::kContentSimilar);
  EXPECT_DOUBLE_EQ(sorted[0].second, 0.9);
}

TEST(EkgTest, PathQueries) {
  Ekg ekg;
  auto a = ekg.AddNode("t1", "x");
  auto b = ekg.AddNode("t2", "x");
  auto c = ekg.AddNode("t3", "x");
  auto d = ekg.AddNode("t4", "x");
  ASSERT_TRUE(ekg.AddEdge(a, b, Relation::kContentSimilar, 0.9).ok());
  ASSERT_TRUE(ekg.AddEdge(b, c, Relation::kContentSimilar, 0.9).ok());
  auto path = ekg.FindPath(a, c, Relation::kContentSimilar);
  EXPECT_EQ(path, (std::vector<Ekg::NodeId>{a, b, c}));
  EXPECT_TRUE(ekg.FindPath(a, d, Relation::kContentSimilar).empty());
  // Hop limit.
  EXPECT_TRUE(ekg.FindPath(a, c, Relation::kContentSimilar, 1).empty());
  EXPECT_EQ(ekg.FindPath(a, a, Relation::kContentSimilar).size(), 1u);
}

TEST(EkgTest, HyperedgesGroupTableColumns) {
  Ekg ekg;
  auto a = ekg.AddNode("orders", "id");
  auto b = ekg.AddNode("orders", "total");
  auto c = ekg.AddNode("users", "id");
  ekg.AddHyperedge("table:orders", {a, b});
  ekg.AddHyperedge("table:users", {c});
  EXPECT_EQ(ekg.HyperedgeNodes("table:orders"),
            (std::vector<Ekg::NodeId>{a, b}));
  EXPECT_EQ(ekg.HyperedgesOf(a).size(), 1u);
  EXPECT_TRUE(ekg.HyperedgeNodes("table:ghost").empty());
  EXPECT_EQ(ekg.num_hyperedges(), 2u);
}

// ---------------------------------------------------------------- vault

TEST(DataVaultTest, DeriveFromKeyedTables) {
  auto orders = table::Table::FromCsv(
      "orders", "order_id,user_id,total\n1,10,9.5\n2,11,3.0\n3,10,7.5\n");
  auto users =
      table::Table::FromCsv("users", "user_id,name\n10,ada\n11,bob\n");
  std::vector<TableRelation> relations{
      {"orders", "user_id", "users", "user_id"}};
  auto model = DeriveDataVault({*orders, *users}, relations);
  ASSERT_TRUE(model.ok());
  ASSERT_EQ(model->hubs.size(), 2u);
  EXPECT_NE(model->FindHub("hub_orders"), nullptr);
  EXPECT_EQ(model->FindHub("hub_orders")->business_key, "order_id");
  EXPECT_EQ(model->FindHub("hub_users")->business_key, "user_id");
  ASSERT_EQ(model->links.size(), 1u);
  EXPECT_EQ(model->links[0].hub_names,
            (std::vector<std::string>{"hub_orders", "hub_users"}));
  auto sats = model->SatellitesOf("hub_orders");
  ASSERT_EQ(sats.size(), 1u);
  EXPECT_EQ(sats[0]->attributes,
            (std::vector<std::string>{"user_id", "total"}));
}

TEST(DataVaultTest, KeylessTablesDoNotFormHubs) {
  auto logs = table::Table::FromCsv("logs", "level,msg\nINFO,a\nINFO,a\n");
  auto model = DeriveDataVault({*logs}, {});
  EXPECT_FALSE(model.ok());  // no hub derivable at all
}

TEST(DataVaultTest, RelationToKeylessTableSkipped) {
  auto users = table::Table::FromCsv("users", "id,name\n1,ada\n");
  auto logs = table::Table::FromCsv("logs", "level,msg\nINFO,a\nINFO,a\n");
  std::vector<TableRelation> relations{{"logs", "level", "users", "id"}};
  auto model = DeriveDataVault({*users, *logs}, relations);
  ASSERT_TRUE(model.ok());
  EXPECT_EQ(model->hubs.size(), 1u);
  EXPECT_TRUE(model->links.empty());
}

TEST(DataVaultTest, ToStringMentionsAllElements) {
  auto users = table::Table::FromCsv("users", "id,name\n1,ada\n");
  auto model = DeriveDataVault({*users}, {});
  ASSERT_TRUE(model.ok());
  std::string s = model->ToString();
  EXPECT_NE(s.find("hub_users"), std::string::npos);
  EXPECT_NE(s.find("sat_users"), std::string::npos);
}

}  // namespace
}  // namespace lakekit::metamodel
