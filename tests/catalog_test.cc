#include <gtest/gtest.h>

#include <filesystem>

#include "catalog/catalog.h"
#include "json/parser.h"
#include "json/writer.h"
#include "storage/kv_store.h"

namespace lakekit::catalog {
namespace {

namespace fs = std::filesystem;

class CatalogTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = (fs::temp_directory_path() /
            ("lakekit_catalog_" + std::string(::testing::UnitTest::GetInstance()
                                                  ->current_test_info()
                                                  ->name())))
               .string();
    fs::remove_all(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  static DatasetEntry MakeEntry(const std::string& name) {
    DatasetEntry e;
    e.name = name;
    e.path = "lake/" + name + ".csv";
    e.format = "csv";
    e.size_bytes = 1024;
    e.num_records = 10;
    e.schema = "id:int64,name:string";
    e.description = "test dataset about " + name;
    e.tags = {"test", name};
    e.owner = "ada";
    e.project = "demo";
    return e;
  }

  std::string dir_;
};

TEST_F(CatalogTest, RegisterAndGet) {
  auto catalog = Catalog::Open(dir_);
  ASSERT_TRUE(catalog.ok());
  ASSERT_TRUE(catalog->Register(MakeEntry("flights")).ok());
  auto e = catalog->Get("flights");
  ASSERT_TRUE(e.ok());
  EXPECT_EQ(e->name, "flights");
  EXPECT_EQ(e->version, 1u);
  EXPECT_GT(e->created_at, 0);
  EXPECT_EQ(e->created_at, e->updated_at);
}

TEST_F(CatalogTest, DuplicateRegisterFails) {
  auto catalog = Catalog::Open(dir_);
  ASSERT_TRUE(catalog->Register(MakeEntry("x")).ok());
  EXPECT_TRUE(catalog->Register(MakeEntry("x")).IsAlreadyExists());
}

TEST_F(CatalogTest, EmptyNameRejected) {
  auto catalog = Catalog::Open(dir_);
  EXPECT_TRUE(catalog->Register(DatasetEntry{}).IsInvalidArgument());
}

TEST_F(CatalogTest, UpdateBumpsVersionKeepsCreation) {
  auto catalog = Catalog::Open(dir_);
  ASSERT_TRUE(catalog->Register(MakeEntry("x")).ok());
  auto v1 = catalog->Get("x");
  DatasetEntry updated = MakeEntry("x");
  updated.description = "updated";
  ASSERT_TRUE(catalog->Update(updated).ok());
  auto v2 = catalog->Get("x");
  ASSERT_TRUE(v2.ok());
  EXPECT_EQ(v2->version, 2u);
  EXPECT_EQ(v2->created_at, v1->created_at);
  EXPECT_GT(v2->updated_at, v1->updated_at);
  EXPECT_EQ(v2->description, "updated");
}

TEST_F(CatalogTest, UpdateMissingDatasetFails) {
  auto catalog = Catalog::Open(dir_);
  EXPECT_TRUE(catalog->Update(MakeEntry("ghost")).IsNotFound());
}

TEST_F(CatalogTest, VersionHistory) {
  auto catalog = Catalog::Open(dir_);
  ASSERT_TRUE(catalog->Register(MakeEntry("x")).ok());
  for (int i = 0; i < 3; ++i) {
    DatasetEntry e = MakeEntry("x");
    e.description = "rev " + std::to_string(i);
    ASSERT_TRUE(catalog->Update(e).ok());
  }
  auto history = catalog->History("x");
  ASSERT_TRUE(history.ok());
  ASSERT_EQ(history->size(), 4u);
  EXPECT_EQ((*history)[0].version, 1u);
  EXPECT_EQ((*history)[3].version, 4u);
  auto v2 = catalog->GetVersion("x", 2);
  ASSERT_TRUE(v2.ok());
  EXPECT_EQ(v2->description, "rev 0");
}

TEST_F(CatalogTest, PersistsAcrossReopen) {
  {
    auto catalog = Catalog::Open(dir_);
    ASSERT_TRUE(catalog->Register(MakeEntry("persisted")).ok());
  }
  auto reopened = Catalog::Open(dir_);
  ASSERT_TRUE(reopened.ok());
  auto e = reopened->Get("persisted");
  ASSERT_TRUE(e.ok());
  EXPECT_EQ(e->owner, "ada");
  // Clock continues monotonically after reopen.
  ASSERT_TRUE(reopened->Register(MakeEntry("later")).ok());
  EXPECT_GT(reopened->Get("later")->created_at, e->created_at);
}

TEST_F(CatalogTest, RemoveErasesHistory) {
  auto catalog = Catalog::Open(dir_);
  ASSERT_TRUE(catalog->Register(MakeEntry("x")).ok());
  ASSERT_TRUE(catalog->Update(MakeEntry("x")).ok());
  ASSERT_TRUE(catalog->Remove("x").ok());
  EXPECT_TRUE(catalog->Get("x").status().IsNotFound());
  EXPECT_TRUE(catalog->History("x").status().IsNotFound());
  EXPECT_TRUE(catalog->Remove("x").IsNotFound());
}

// A dataset's history holds its own records only, not those of a dataset
// whose name continues it with '/', live and after a reopen.
TEST_F(CatalogTest, HistoryAndRemoveKeepNestedNamesApart) {
  const auto versions = [](const Result<std::vector<DatasetEntry>>& h) {
    std::vector<std::pair<std::string, uint64_t>> out;
    if (h.ok()) {
      for (const DatasetEntry& e : *h) out.emplace_back(e.name, e.version);
    }
    return out;
  };
  using Versions = std::vector<std::pair<std::string, uint64_t>>;
  {
    auto catalog = Catalog::Open(dir_);
    ASSERT_TRUE(catalog.ok());
    ASSERT_TRUE(catalog->Register(MakeEntry("a")).ok());
    ASSERT_TRUE(catalog->Register(MakeEntry("a/b")).ok());
    ASSERT_TRUE(catalog->Update(MakeEntry("a/b")).ok());
    EXPECT_EQ(versions(catalog->History("a")), (Versions{{"a", 1}}));
    EXPECT_EQ(versions(catalog->History("a/b")),
              (Versions{{"a/b", 1}, {"a/b", 2}}));
    ASSERT_TRUE(catalog->Remove("a").ok());
    EXPECT_TRUE(catalog->History("a").status().IsNotFound());
    EXPECT_TRUE(catalog->Get("a/b").ok());
    EXPECT_EQ(versions(catalog->History("a/b")),
              (Versions{{"a/b", 1}, {"a/b", 2}}));
  }
  auto reopened = Catalog::Open(dir_);
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ(reopened->ListDatasets(), std::vector<std::string>{"a/b"});
  EXPECT_TRUE(reopened->History("a").status().IsNotFound());
  EXPECT_EQ(versions(reopened->History("a/b")),
            (Versions{{"a/b", 1}, {"a/b", 2}}));
  EXPECT_EQ(reopened->GetVersion("a/b", 2)->version, 2u);
}

TEST_F(CatalogTest, ListDatasetsSorted) {
  auto catalog = Catalog::Open(dir_);
  ASSERT_TRUE(catalog->Register(MakeEntry("zebra")).ok());
  ASSERT_TRUE(catalog->Register(MakeEntry("alpha")).ok());
  EXPECT_EQ(catalog->ListDatasets(),
            (std::vector<std::string>{"alpha", "zebra"}));
  EXPECT_EQ(catalog->num_datasets(), 2u);
}

TEST_F(CatalogTest, SearchOverNameDescriptionTags) {
  auto catalog = Catalog::Open(dir_);
  DatasetEntry flights = MakeEntry("flights");
  flights.description = "airline departure delays";
  DatasetEntry med = MakeEntry("patients");
  med.tags = {"medical"};
  ASSERT_TRUE(catalog->Register(flights).ok());
  ASSERT_TRUE(catalog->Register(med).ok());
  EXPECT_EQ(catalog->Search("delays").size(), 1u);
  EXPECT_EQ(catalog->Search("DELAYS").size(), 1u);  // case-insensitive
  EXPECT_EQ(catalog->Search("medical").size(), 1u);
  EXPECT_EQ(catalog->Search("patients").size(), 1u);
  EXPECT_EQ(catalog->Search("nonexistent").size(), 0u);

  // Content keywords, as the profiler extracts them from a log.
  DatasetEntry log = MakeEntry("serverlog");
  auto content = json::Parse(
      R"({"keywords":["connection","fetching","shard","timeout","while"]})");
  ASSERT_TRUE(content.ok());
  log.content = *content;
  ASSERT_TRUE(catalog->Register(log).ok());
  auto hits = catalog->Search("Timeout");
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].name, "serverlog");
}

TEST_F(CatalogTest, FindByTagAndOwner) {
  auto catalog = Catalog::Open(dir_);
  DatasetEntry a = MakeEntry("a");
  a.owner = "ada";
  DatasetEntry b = MakeEntry("b");
  b.owner = "bob";
  b.tags = {"test", "special"};
  ASSERT_TRUE(catalog->Register(a).ok());
  ASSERT_TRUE(catalog->Register(b).ok());
  EXPECT_EQ(catalog->FindByOwner("ada").size(), 1u);
  EXPECT_EQ(catalog->FindByOwner("bob").size(), 1u);
  EXPECT_EQ(catalog->FindByTag("special").size(), 1u);
  EXPECT_EQ(catalog->FindByTag("test").size(), 2u);
}

/// An answer as its serialized entries, so two catalogs compare exactly.
std::vector<std::string> Serialized(const std::vector<DatasetEntry>& entries) {
  std::vector<std::string> out;
  for (const DatasetEntry& e : entries) out.push_back(json::Write(e.ToJson()));
  return out;
}

// Each mutation is one committed batch: the clock, the current entry and
// the history record (or, for Remove, every deletion). A copy of the store
// reopened after a Register, an Update and a Remove reads back the same
// entries, histories and versions, and stamps the next registration as the
// live catalog does.
TEST_F(CatalogTest, ReopenAfterEachMutationMatchesTheLiveCatalog) {
  auto live = Catalog::Open(dir_);
  ASSERT_TRUE(live.ok());
  const std::string copy = dir_ + "_copy";
  auto expect_same = [&](const std::vector<std::string>& names) {
    // The live store stays open; its committed files are copied, as a crash
    // right after the last mutation would leave them.
    fs::remove_all(copy);
    fs::copy(dir_, copy, fs::copy_options::recursive);
    auto reopened = Catalog::Open(copy);
    ASSERT_TRUE(reopened.ok());
    EXPECT_EQ(reopened->ListDatasets(), live->ListDatasets());
    for (const std::string& name : names) {
      SCOPED_TRACE(name);
      Result<DatasetEntry> a = live->Get(name);
      Result<DatasetEntry> b = reopened->Get(name);
      ASSERT_EQ(a.ok(), b.ok());
      if (a.ok()) {
        EXPECT_EQ(json::Write(a->ToJson()), json::Write(b->ToJson()));
      }
      auto ha = live->History(name);
      auto hb = reopened->History(name);
      ASSERT_EQ(ha.ok(), hb.ok());
      if (!ha.ok()) continue;
      EXPECT_EQ(Serialized(*ha), Serialized(*hb));
      for (const DatasetEntry& e : *ha) {
        auto va = live->GetVersion(name, e.version);
        auto vb = reopened->GetVersion(name, e.version);
        ASSERT_TRUE(va.ok());
        ASSERT_TRUE(vb.ok());
        EXPECT_EQ(json::Write(va->ToJson()), json::Write(vb->ToJson()));
      }
    }
    ASSERT_TRUE(reopened->Register(MakeEntry("probe")).ok());
    ASSERT_TRUE(live->Register(MakeEntry("probe")).ok());
    EXPECT_EQ(reopened->Get("probe")->created_at,
              live->Get("probe")->created_at);
    ASSERT_TRUE(live->Remove("probe").ok());
  };

  ASSERT_TRUE(live->Register(MakeEntry("a")).ok());
  ASSERT_TRUE(live->Register(MakeEntry("b")).ok());
  expect_same({"a", "b"});

  DatasetEntry a2 = MakeEntry("a");
  a2.description = "rev 2";
  ASSERT_TRUE(live->Update(a2).ok());
  EXPECT_EQ(live->Get("a")->created_at, 1);
  EXPECT_EQ(live->Get("a")->updated_at, 4);  // 3 went to the probe
  EXPECT_EQ(live->History("a")->size(), 2u);
  expect_same({"a", "b", "probe"});

  ASSERT_TRUE(live->Remove("a").ok());
  EXPECT_TRUE(live->History("a").status().IsNotFound());
  EXPECT_TRUE(live->GetVersion("a", 1).status().IsNotFound());
  expect_same({"a", "b"});
  ASSERT_TRUE(live->Update(MakeEntry("b")).ok());
  expect_same({"a", "b"});
  fs::remove_all(copy);
}

// The in-memory entries are what the store holds: after a mix of
// registrations, updates, removals and a refused duplicate, a catalog
// reopened from disk answers every read exactly as the live one does.
TEST_F(CatalogTest, ReopenedCatalogAnswersLikeTheLiveOne) {
  auto live = Catalog::Open(dir_);
  ASSERT_TRUE(live.ok());
  for (const char* name : {"flights", "patients", "serverlog", "zebra"}) {
    ASSERT_TRUE(live->Register(MakeEntry(name)).ok());
  }
  DatasetEntry log = MakeEntry("serverlog");
  log.owner = "bob";
  log.tags = {"ops", "Logs"};
  log.content = *json::Parse(R"({"keywords":["Timeout","shard"],"n":1.5})");
  ASSERT_TRUE(live->Update(log).ok());
  DatasetEntry dup = MakeEntry("flights");
  dup.description = "must not replace the first registration";
  EXPECT_TRUE(live->Register(dup).IsAlreadyExists());
  ASSERT_TRUE(live->Remove("zebra").ok());
  DatasetEntry again = MakeEntry("zebra");
  again.owner = "cy";
  ASSERT_TRUE(live->Register(again).ok());
  ASSERT_TRUE(live->Remove("patients").ok());

  auto reopened = Catalog::Open(dir_);
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ(reopened->ListDatasets(), live->ListDatasets());
  EXPECT_EQ(live->ListDatasets(),
            (std::vector<std::string>{"flights", "serverlog", "zebra"}));
  EXPECT_EQ(reopened->num_datasets(), live->num_datasets());
  for (const char* name : {"flights", "patients", "serverlog", "zebra", "x"}) {
    SCOPED_TRACE(name);
    Result<DatasetEntry> a = live->Get(name);
    Result<DatasetEntry> b = reopened->Get(name);
    ASSERT_EQ(a.ok(), b.ok());
    if (a.ok()) {
      EXPECT_EQ(json::Write(a->ToJson()), json::Write(b->ToJson()));
    } else {
      EXPECT_TRUE(a.status().IsNotFound());
      EXPECT_TRUE(b.status().IsNotFound());
    }
  }
  EXPECT_EQ(live->Get("flights")->description, "test dataset about flights");
  // Needles inside one field, across the separator between two, in
  // content keywords, in tags, and nowhere.
  for (const char* keyword :
       {"FLIGHTS", "dataset about", "flights test", "timeout", "logs", "ops",
        "int64", "", "nothing-like-this"}) {
    SCOPED_TRACE(keyword);
    EXPECT_EQ(Serialized(reopened->Search(keyword)),
              Serialized(live->Search(keyword)));
  }
  EXPECT_EQ(live->Search("timeout").size(), 1u);
  for (const char* tag : {"test", "ops", "Logs", "logs", "zebra"}) {
    EXPECT_EQ(Serialized(reopened->FindByTag(tag)),
              Serialized(live->FindByTag(tag)));
  }
  for (const char* owner : {"ada", "bob", "cy", "nobody"}) {
    EXPECT_EQ(Serialized(reopened->FindByOwner(owner)),
              Serialized(live->FindByOwner(owner)));
  }
  EXPECT_EQ(live->FindByOwner("ada").size(), 1u);
}

// One current entry that does not parse costs that entry alone: the catalog
// opens, Get and Update return the parse error, the searches skip it, the
// name stays taken, and Remove deletes it.
TEST_F(CatalogTest, UnparsableEntryIsSkippedNotFatal) {
  {
    auto catalog = Catalog::Open(dir_);
    ASSERT_TRUE(catalog.ok());
    ASSERT_TRUE(catalog->Register(MakeEntry("good")).ok());
  }
  {
    auto store = storage::KvStore::Open(dir_);
    ASSERT_TRUE(store.ok());
    ASSERT_TRUE((*store)->Put("ds/garbled", "not json {").ok());
    ASSERT_TRUE((*store)->Put("ds/nameless", "{}").ok());
  }
  auto catalog = Catalog::Open(dir_);
  ASSERT_TRUE(catalog.ok()) << catalog.status().ToString();
  for (const char* name : {"garbled", "nameless"}) {
    SCOPED_TRACE(name);
    EXPECT_EQ(catalog->Get(name).status().code(), StatusCode::kCorruption);
    EXPECT_EQ(catalog->Update(MakeEntry(name)).code(),
              StatusCode::kCorruption);
    EXPECT_TRUE(catalog->Register(MakeEntry(name)).IsAlreadyExists());
  }
  EXPECT_EQ(catalog->ListDatasets(),
            (std::vector<std::string>{"garbled", "good", "nameless"}));
  EXPECT_EQ(catalog->num_datasets(), 3u);
  std::vector<DatasetEntry> all = catalog->Search("");
  ASSERT_EQ(all.size(), 1u);
  EXPECT_EQ(all[0].name, "good");
  EXPECT_EQ(catalog->FindByTag("test").size(), 1u);
  EXPECT_EQ(catalog->FindByOwner("ada").size(), 1u);

  ASSERT_TRUE(catalog->Remove("garbled").ok());
  EXPECT_TRUE(catalog->Get("garbled").status().IsNotFound());
  ASSERT_TRUE(catalog->Register(MakeEntry("garbled")).ok());
  EXPECT_EQ(catalog->Search("garbled").size(), 1u);
}

// A stored clock that is not a number is Corruption, not a process abort.
TEST_F(CatalogTest, UnparsableClockIsCorruption) {
  {
    auto catalog = Catalog::Open(dir_);
    ASSERT_TRUE(catalog.ok());
    ASSERT_TRUE(catalog->Register(MakeEntry("good")).ok());
  }
  for (const char* clock :
       {"not-a-number", "", "12x", "99999999999999999999"}) {
    SCOPED_TRACE(clock);
    {
      auto store = storage::KvStore::Open(dir_);
      ASSERT_TRUE(store.ok());
      ASSERT_TRUE((*store)->Put("meta/clock", clock).ok());
    }
    EXPECT_EQ(Catalog::Open(dir_).status().code(), StatusCode::kCorruption);
  }
}

TEST_F(CatalogTest, JsonRoundTripPreservesAllCategories) {
  DatasetEntry e = MakeEntry("full");
  e.sources = {"upstream1", "upstream2"};
  e.producing_job = "etl_daily";
  e.content = *json::Parse(R"({"keywords":["flight","delay"]})");
  e.created_at = 5;
  e.updated_at = 9;
  e.version = 3;
  auto round = DatasetEntry::FromJson(e.ToJson());
  ASSERT_TRUE(round.ok());
  EXPECT_EQ(round->name, e.name);
  EXPECT_EQ(round->sources, e.sources);
  EXPECT_EQ(round->producing_job, e.producing_job);
  EXPECT_EQ(round->content, e.content);
  EXPECT_EQ(round->version, 3u);
  EXPECT_EQ(round->created_at, 5);
}

TEST_F(CatalogTest, FromJsonRejectsGarbage) {
  EXPECT_FALSE(DatasetEntry::FromJson(*json::Parse("[1,2]")).ok());
  EXPECT_FALSE(DatasetEntry::FromJson(*json::Parse("{}")).ok());
}

}  // namespace
}  // namespace lakekit::catalog
