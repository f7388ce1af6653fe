#include <gtest/gtest.h>

#include <filesystem>

#include "core/data_lake.h"
#include "workload/generator.h"

namespace lakekit::core {
namespace {

namespace fs = std::filesystem;

/// End-to-end integration tests over the DataLake facade: one ingest ->
/// maintain -> explore pass through all three tiers of the architecture.
class DataLakeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = (fs::temp_directory_path() /
            ("lakekit_core_" + std::string(::testing::UnitTest::GetInstance()
                                               ->current_test_info()
                                               ->name())))
               .string();
    fs::remove_all(dir_);
    auto lake = DataLake::Open(dir_);
    ASSERT_TRUE(lake.ok());
    lake_ = std::make_unique<DataLake>(std::move(*lake));
  }
  void TearDown() override { fs::remove_all(dir_); }

  std::string dir_;
  std::unique_ptr<DataLake> lake_;
};

TEST_F(DataLakeTest, IngestCsvRoutesToRelationalStore) {
  IngestOptions options;
  options.owner = "ada";
  options.tags = {"demo"};
  const std::string bytes = "id,total\n1,9.5\n2,3.25\n";
  auto entry = lake_->IngestFile("orders", "orders.csv", bytes, options);
  ASSERT_TRUE(entry.ok());
  EXPECT_EQ(entry->format, "csv");
  EXPECT_EQ(entry->num_records, 2u);
  EXPECT_EQ(entry->owner, "ada");
  EXPECT_EQ(entry->schema, "id:int64,total:double");
  auto loc = lake_->polystore().Lookup("orders");
  ASSERT_TRUE(loc.ok());
  EXPECT_EQ(loc->store, storage::StoreKind::kRelational);
  // The stored table is the one decode of the bytes, under the dataset name.
  auto stored = lake_->polystore().relational().GetTable(loc->locator);
  ASSERT_TRUE(stored.ok());
  auto expected = table::Table::FromCsv("orders", bytes);
  ASSERT_TRUE(expected.ok());
  EXPECT_EQ((*stored)->name(), "orders");
  EXPECT_EQ(**stored, *expected);
}

TEST_F(DataLakeTest, IngestJsonRoutesToDocumentStore) {
  // A whole-file array, a single object and NDJSON each store one document
  // per record the catalog counts.
  const struct {
    const char* name;
    const char* filename;
    const char* content;
    size_t records;
  } kInputs[] = {
      {"events", "events.json",
       R"([{"kind":"click","n":1},{"kind":"view","n":2}])", 2},
      {"config", "config.json", R"({"mode":"fast","retries":3})", 1},
      {"stream", "stream.json",
       "{\"e\":1}\n{\"e\":2}\n{\"e\":3}\n", 3},
  };
  for (const auto& in : kInputs) {
    SCOPED_TRACE(in.name);
    auto entry = lake_->IngestFile(in.name, in.filename, in.content);
    ASSERT_TRUE(entry.ok()) << entry.status().ToString();
    EXPECT_EQ(entry->format, "json");
    EXPECT_EQ(entry->num_records, in.records);
    auto loc = lake_->polystore().Lookup(in.name);
    ASSERT_TRUE(loc.ok());
    EXPECT_EQ(loc->store, storage::StoreKind::kDocument);
    EXPECT_EQ(lake_->polystore().documents().Count(loc->locator),
              entry->num_records);
  }
}

TEST_F(DataLakeTest, IngestLogRoutesToObjectStore) {
  auto entry = lake_->IngestFile(
      "serverlog", "server.log",
      "2024-01-01 INFO boot\n2024-01-01 WARN slow\n");
  ASSERT_TRUE(entry.ok());
  EXPECT_EQ(entry->format, "log");
  auto loc = lake_->polystore().Lookup("serverlog");
  ASSERT_TRUE(loc.ok());
  EXPECT_EQ(loc->store, storage::StoreKind::kObject);
}

TEST_F(DataLakeTest, DuplicateIngestFails) {
  ASSERT_TRUE(lake_->IngestFile("x", "x.csv", "a\n1\n").ok());
  EXPECT_FALSE(lake_->IngestFile("x", "x.csv", "a\n1\n").ok());

  // A refused re-ingest leaves the dataset it collides with untouched, in
  // every backend: no documents added, no bytes overwritten, no orphan
  // table.
  storage::Polystore& ps = lake_->polystore();
  ASSERT_TRUE(
      lake_->IngestFile("docs", "docs.json", R"([{"k":1},{"k":2}])").ok());
  EXPECT_TRUE(lake_->IngestFile("docs", "docs.json", R"([{"k":3}])")
                  .status()
                  .IsAlreadyExists());
  EXPECT_EQ(ps.documents().Count("docs"), 2u);

  const std::string log = "2024-01-01 INFO boot\n";
  ASSERT_TRUE(lake_->IngestFile("applog", "x.log", log).ok());
  auto loc = ps.Lookup("applog");
  ASSERT_TRUE(loc.ok());
  EXPECT_TRUE(lake_->IngestFile("applog", "x.log", "2024-01-02 WARN new\n")
                  .status()
                  .IsAlreadyExists());
  auto bytes = ps.objects().Get(loc->locator);
  ASSERT_TRUE(bytes.ok());
  EXPECT_EQ(*bytes, log);

  const size_t tables = ps.relational().num_tables();
  EXPECT_TRUE(lake_->IngestFile("applog", "applog.csv", "a,b\n1,2\n")
                  .status()
                  .IsAlreadyExists());
  EXPECT_EQ(ps.relational().num_tables(), tables);
  EXPECT_EQ(lake_->catalog().Get("applog")->format, "log");
}

TEST_F(DataLakeTest, IngestRecordsProvenance) {
  IngestOptions options;
  options.owner = "ada";
  ASSERT_TRUE(lake_->IngestFile("d", "d.csv", "a\n1\n", options).ok());
  auto agents = lake_->provenance().AgentsOf("d");
  ASSERT_EQ(agents.size(), 1u);
  EXPECT_EQ(agents[0], "ada");
}

TEST_F(DataLakeTest, DiscoveryPipelineFindsPlantedJoins) {
  workload::JoinableLakeOptions options;
  options.num_tables = 12;
  options.rows_per_table = 80;
  options.num_planted_pairs = 4;
  auto lake_data = workload::MakeJoinableLake(options);
  for (auto& t : lake_data.tables) {
    ASSERT_TRUE(lake_->IngestTable(std::move(t)).ok());
  }
  // Discovery before indexing fails cleanly.
  EXPECT_FALSE(lake_->FindJoinableTables("table0", 3).ok());
  ASSERT_TRUE(lake_->BuildDiscoveryIndexes().ok());
  size_t found = 0;
  for (const auto& pair : lake_data.planted) {
    auto matches = lake_->FindJoinableTables(pair.table_a, 3);
    ASSERT_TRUE(matches.ok());
    for (const auto& m : *matches) {
      if (m.table_name == pair.table_b) ++found;
    }
  }
  EXPECT_GE(found, lake_data.planted.size() - 1);
  // JOSIE column-level path.
  const auto& pair = lake_data.planted[0];
  auto columns = lake_->FindJoinableColumns(pair.table_a, pair.column_a, 3);
  ASSERT_TRUE(columns.ok());
  ASSERT_FALSE(columns->empty());
  EXPECT_EQ(lake_->corpus()->sketch((*columns)[0].column).table_name,
            pair.table_b);
}

TEST_F(DataLakeTest, UnionableDiscoveryAcrossGroups) {
  workload::UnionableLakeOptions options;
  options.num_groups = 2;
  options.tables_per_group = 3;
  options.rows_per_table = 50;
  auto lake_data = workload::MakeUnionableLake(options);
  for (auto& t : lake_data.tables) {
    ASSERT_TRUE(lake_->IngestTable(std::move(t)).ok());
  }
  ASSERT_TRUE(lake_->BuildDiscoveryIndexes().ok());
  auto matches = lake_->FindUnionableTables("union_table0", 2);
  ASSERT_TRUE(matches.ok());
  ASSERT_EQ(matches->size(), 2u);
  for (const auto& m : *matches) {
    EXPECT_EQ(lake_data.group_of[(*lake_->corpus()->TableIndex(m.table_name))],
              0u);
  }
}

TEST_F(DataLakeTest, IntegrationRecordsProvenance) {
  ASSERT_TRUE(lake_
                  ->IngestFile("towns_a", "a.csv",
                               "city,mayor\ndelft,ada\nleiden,bob\n")
                  .ok());
  ASSERT_TRUE(lake_
                  ->IngestFile("towns_b", "b.csv",
                               "city,population\ndelft,104000\nhague,552000\n")
                  .ok());
  auto merged = lake_->IntegrateDatasets({"towns_a", "towns_b"});
  ASSERT_TRUE(merged.ok());
  EXPECT_GE(merged->num_rows(), 2u);
  EXPECT_TRUE(merged->schema().HasField("city"));
  auto upstream = lake_->provenance().Upstream(merged->name());
  EXPECT_EQ(upstream.size(), 2u);
}

TEST_F(DataLakeTest, DependencyDiscoveryAndCleaning) {
  workload::DirtyTableOptions options;
  options.num_rows = 200;
  options.num_violations = 8;
  auto dirty = workload::MakeDirtyTable(options);
  ASSERT_TRUE(lake_->IngestTable(dirty.table).ok());
  auto fds = lake_->DiscoverDependencies("dirty");
  ASSERT_TRUE(fds.ok());
  bool city_zip = false;
  for (const auto& fd : *fds) {
    if (fd.lhs == std::vector<std::string>{"city"} && fd.rhs == "zip") {
      city_zip = true;
    }
  }
  EXPECT_TRUE(city_zip);
  auto dirty_tuples = lake_->FindDirtyTuples("dirty");
  ASSERT_TRUE(dirty_tuples.ok());
  EXPECT_FALSE(dirty_tuples->empty());
}

TEST_F(DataLakeTest, FederatedQueryAcrossIngestedSources) {
  ASSERT_TRUE(lake_
                  ->IngestFile("people", "people.csv",
                               "name,city\nada,delft\nbob,leiden\n")
                  .ok());
  ASSERT_TRUE(
      lake_
          ->IngestFile("cities", "cities.json",
                       R"([{"city":"delft","country":"NL"},)"
                       R"({"city":"leiden","country":"NL"}])")
          .ok());
  auto out = lake_->Query(
      "SELECT name, country FROM people JOIN cities ON people.city = "
      "cities.city ORDER BY name");
  ASSERT_TRUE(out.ok());
  ASSERT_EQ(out->num_rows(), 2u);
  EXPECT_EQ(out->at(0, 0).as_string(), "ada");
  EXPECT_EQ(out->at(0, 1).as_string(), "NL");
}

TEST_F(DataLakeTest, CatalogSearchFindsIngestedDatasets) {
  IngestOptions options;
  options.description = "airline departure delays 2024";
  ASSERT_TRUE(
      lake_->IngestFile("flights", "flights.csv", "f,d\nBA1,5\n", options)
          .ok());
  ASSERT_TRUE(lake_->IngestFile("other", "other.csv", "a\n1\n").ok());
  auto hits = lake_->Search("departure");
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].name, "flights");
  EXPECT_EQ(lake_->num_datasets(), 2u);
}

TEST_F(DataLakeTest, ReopenSeesCatalog) {
  ASSERT_TRUE(lake_->IngestFile("persist", "p.csv", "a\n1\n").ok());
  lake_.reset();
  auto reopened = DataLake::Open(dir_);
  ASSERT_TRUE(reopened.ok());
  // Catalog persists (KV-store backed); polystore relational content is
  // in-memory, so only metadata survives — the catalog still knows the
  // dataset.
  auto entry = reopened->catalog().Get("persist");
  ASSERT_TRUE(entry.ok());
  EXPECT_EQ(entry->schema, "a:int64");
}

}  // namespace
}  // namespace lakekit::core
