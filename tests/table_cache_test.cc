// Tests for the scan acceleration layer (DESIGN.md §9): the decoded-table
// cache, generation-keyed invalidation through the polystore and object
// store, the cache-hit fast path bypassing the circuit breaker, and
// zone-map morsel pruning through the federated engine.

#include "query/table_cache.h"

#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/memory_budget.h"
#include "query/federation.h"
#include "query/source.h"
#include "query/zone_map.h"
#include "storage/polystore.h"
#include "table/table.h"

namespace lakekit::query {
namespace {

using storage::Polystore;
using table::Table;
using table::Value;

/// Fresh temp directory per test (removed afterwards) for the polystore's
/// object tier.
class PolystoreGenerationTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("lakekit_cache_test_" +
            std::string(::testing::UnitTest::GetInstance()
                            ->current_test_info()
                            ->name()));
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string Path(const std::string& sub) const {
    return (dir_ / sub).string();
  }

  std::filesystem::path dir_;
};

Table People() {
  return *Table::FromCsv(
      "people",
      "id,name,age,city\n1,ada,36,delft\n2,bob,41,leiden\n3,eve,29,delft\n"
      "4,dan,,leiden\n");
}

/// A read-only in-memory source with an explicit per-dataset generation —
/// the minimal mutable TableSource.
class VersionedSource : public TableSource {
 public:
  void Set(const std::string& name, Table t) {
    tables_.insert_or_assign(name, std::move(t));
    ++generations_[name];
  }

  Result<Table> ReadAsTable(std::string_view name) override {
    auto it = tables_.find(std::string(name));
    if (it == tables_.end()) {
      return Status::NotFound("no dataset '" + std::string(name) + "'");
    }
    return it->second;
  }

  uint64_t Generation(std::string_view name) override {
    auto it = generations_.find(std::string(name));
    return it == generations_.end() ? 0 : it->second;
  }

 private:
  std::map<std::string, Table> tables_;
  std::map<std::string, uint64_t> generations_;
};

TEST(TableCacheTest, PutThenFindSameGeneration) {
  TableCache cache;
  EXPECT_FALSE(cache.Find("people", 1));
  TableCache::Entry put = cache.Put("people", 1, People());
  ASSERT_TRUE(put);
  EXPECT_EQ(put->table.num_rows(), 4u);
  // Zone map built at admission: one chunk (4 rows < kMorselSize), all
  // columns covered.
  EXPECT_EQ(put->zones.num_chunks(), 1u);
  EXPECT_EQ(put->zones.num_columns(), put->table.num_columns());
  TableCache::Entry found = cache.Find("people", 1);
  ASSERT_TRUE(found);
  EXPECT_TRUE(found->table == put->table);
}

TEST(TableCacheTest, DifferentGenerationMisses) {
  TableCache cache;
  cache.Put("people", 1, People());
  EXPECT_TRUE(cache.Find("people", 1));
  EXPECT_FALSE(cache.Find("people", 2));
  // Names that share a digit-boundary with the generation must not alias:
  // ("t", 12) vs ("t1", 2).
  cache.Put("t", 12, People());
  EXPECT_FALSE(cache.Find("t1", 2));
}

TEST(TableCacheTest, ChargeIsBoundedByCapacity) {
  TableCacheOptions options;
  options.capacity_bytes = 4096;
  options.shards = 1;
  TableCache cache(options);
  for (int i = 0; i < 64; ++i) {
    cache.Put("d" + std::to_string(i), 0, People());
  }
  EXPECT_LE(cache.stats().charge, options.capacity_bytes);
  EXPECT_GT(cache.stats().evictions, 0u);
}

TEST(TableCacheTest, FullBudgetedCacheEvictsRatherThanDeclining) {
  // One shard with room for four entries, under a process budget a hundred
  // times its capacity. Capacity is the LRU's to enforce: twenty
  // generations of one dataset are all admitted and the dead ones evicted,
  // rather than admissions being declined once the shard is full.
  const size_t entry = table::EstimateTableBytes(People()) +
                       ZoneMap::Build(People()).memory_bytes();
  TableCacheOptions options;
  options.capacity_bytes = 4 * entry + entry / 2;
  options.shards = 1;
  MemoryBudget budget(100 * options.capacity_bytes);
  options.process_budget = &budget;
  TableCache cache(options);
  size_t admitted = 0;
  for (uint64_t generation = 1; generation <= 20; ++generation) {
    if (cache.Put("people", generation, People())) ++admitted;
  }
  EXPECT_EQ(admitted, 20u);
  EXPECT_EQ(cache.stats().evictions, 16u);
  EXPECT_LE(cache.stats().charge, options.capacity_bytes);
  EXPECT_EQ(budget.used(), cache.account().used());
}

TEST_F(PolystoreGenerationTest, StoreAndBumpAdvanceGeneration) {
  auto opened = Polystore::Open(Path("lake"));
  ASSERT_TRUE(opened.ok());
  Polystore& store = *opened;
  const uint64_t before = store.generation("people");
  ASSERT_TRUE(store.StoreTable("people", People()).ok());
  const uint64_t after_store = store.generation("people");
  EXPECT_NE(before, after_store);
  store.BumpGeneration("people");
  EXPECT_NE(after_store, store.generation("people"));
}

TEST_F(PolystoreGenerationTest, DirectObjectWriteChangesGeneration) {
  auto opened = Polystore::Open(Path("lake"));
  ASSERT_TRUE(opened.ok());
  Polystore& store = *opened;
  ASSERT_TRUE(
      store.StoreObject("logs", "raw/logs.csv", "id,msg\n1,boot\n").ok());
  const uint64_t before = store.generation("logs");
  // A write issued straight against the object tier — no polystore-level
  // bump — must still change the generation via the per-key etag.
  ASSERT_TRUE(store.objects().Put("raw/logs.csv", "id,msg\n1,boot\n2,up\n")
                  .ok());
  EXPECT_NE(before, store.generation("logs"));
}

// HashCombine(63, 58) == HashCombine(64, 60): a generation hashed from the
// bump count and the etag would repeat after one more bump and two more
// writes, and the engine would serve the scan it cached before them.
TEST_F(PolystoreGenerationTest, GenerationNeverRepeatsAcrossBumpsAndWrites) {
  auto opened = Polystore::Open(Path("lake"));
  ASSERT_TRUE(opened.ok());
  Polystore& store = *opened;
  ASSERT_TRUE(store.StoreObject("d", "raw/d.csv", "x\n0\n").ok());
  for (int x = 1; x <= 57; ++x) {
    ASSERT_TRUE(
        store.objects().Put("raw/d.csv", "x\n" + std::to_string(x) + "\n")
            .ok());
  }
  ASSERT_EQ(store.objects().etag("raw/d.csv"), 58u);
  for (int i = 0; i < 63; ++i) store.BumpGeneration("d");
  TableCache cache;
  FederatedEngineOptions options;
  options.table_cache = &cache;
  FederatedEngine engine(&store, options);
  Result<Table> before = engine.Query("SELECT x FROM d");
  ASSERT_TRUE(before.ok());
  EXPECT_EQ(before->column(0)[0], Value(int64_t{57}));

  store.BumpGeneration("d");
  ASSERT_TRUE(store.objects().Put("raw/d.csv", "x\n199\n").ok());
  ASSERT_TRUE(store.objects().Put("raw/d.csv", "x\n200\n").ok());
  FederationStats stats;
  Result<Table> after = engine.Query("SELECT x FROM d", {.stats_out = &stats});
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(stats.cache_hits, 0u);
  EXPECT_EQ(after->column(0)[0], Value(int64_t{200}));
}

/// Engine + cache over a VersionedSource wrapped in a FlakySource, so tests
/// can count physical reads and script failures.
struct CachedRig {
  explicit CachedRig(size_t cache_bytes = 64u << 20) {
    source.Set("people", People());
    flaky = std::make_unique<FlakySource>(&source);
    TableCacheOptions copts;
    copts.capacity_bytes = cache_bytes;
    cache = std::make_unique<TableCache>(copts);
    FederatedEngineOptions options;
    options.retry.max_attempts = 1;
    options.breaker.failure_threshold = 2;
    options.table_cache = cache.get();
    engine = std::make_unique<FederatedEngine>(flaky.get(), options);
  }

  VersionedSource source;
  std::unique_ptr<FlakySource> flaky;
  std::unique_ptr<TableCache> cache;
  std::unique_ptr<FederatedEngine> engine;
};

constexpr const char* kPeopleSql = "SELECT name FROM people WHERE age > 30";

TEST(FederatedCacheTest, WarmScanSkipsSourceRead) {
  CachedRig rig;
  FederationStats cold;
  Result<Table> r1 = rig.engine->Query(kPeopleSql, {.stats_out = &cold});
  ASSERT_TRUE(r1.ok());
  EXPECT_EQ(cold.cache_hits, 0u);
  EXPECT_EQ(cold.cache_misses, 1u);
  EXPECT_EQ(rig.flaky->reads("people"), 1u);

  FederationStats warm;
  Result<Table> r2 = rig.engine->Query(kPeopleSql, {.stats_out = &warm});
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(warm.cache_hits, 1u);
  EXPECT_EQ(warm.cache_misses, 0u);
  // The physical read count did not move: the scan never reached the
  // source.
  EXPECT_EQ(rig.flaky->reads("people"), 1u);
  // Same bytes either way.
  EXPECT_TRUE(*r1 == *r2);
}

TEST(FederatedCacheTest, WarmSelectStarCopiesOutOfThePinnedEntry) {
  CachedRig rig;
  ASSERT_TRUE(rig.engine->Query("SELECT * FROM people").ok());  // warm
  // The result is the cached table itself: each query gets its own copy
  // and the entry stays intact for the next one.
  for (int i = 0; i < 2; ++i) {
    FederationStats stats;
    Result<Table> r =
        rig.engine->Query("SELECT * FROM people", {.stats_out = &stats});
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(stats.cache_hits, 1u);
    EXPECT_TRUE(*r == People());
  }
}

TEST(FederatedCacheTest, CacheHitBypassesBreakerAndFaults) {
  CachedRig rig;
  ASSERT_TRUE(rig.engine->Query(kPeopleSql).ok());  // warm
  // Every future read of the source fails hard. A cache-served query must
  // neither fail nor trip the breaker, because no read is ever admitted.
  SourceFaultProfile profile;
  profile.fail_next = 1000;
  rig.flaky->SetProfile("people", profile);
  for (int i = 0; i < 5; ++i) {
    FederationStats stats;
    Result<Table> r = rig.engine->Query(kPeopleSql, {.stats_out = &stats});
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(stats.cache_hits, 1u);
    EXPECT_EQ(stats.breaker_rejections, 0u);
  }
  EXPECT_EQ(rig.engine->breaker_state("people"),
            CircuitBreaker::State::kClosed);
  EXPECT_EQ(rig.flaky->injected_failures("people"), 0u);
}

TEST(FederatedCacheTest, WriteInvalidatesCachedScan) {
  CachedRig rig;
  FederationStats cold;
  ASSERT_TRUE(rig.engine->Query(kPeopleSql, {.stats_out = &cold}).ok());
  EXPECT_EQ(cold.cache_misses, 1u);

  // Overwrite the dataset: the generation bump makes the old entry
  // unreachable, so the next query re-reads and sees the new rows.
  Table next = *Table::FromCsv("people",
                               "id,name,age,city\n9,zoe,52,delft\n");
  rig.source.Set("people", std::move(next));
  FederationStats stats;
  Result<Table> r = rig.engine->Query(kPeopleSql, {.stats_out = &stats});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(stats.cache_hits, 0u);
  EXPECT_EQ(stats.cache_misses, 1u);
  ASSERT_EQ(r->num_rows(), 1u);
  EXPECT_EQ(r->column(0)[0], Value("zoe"));
  EXPECT_EQ(rig.flaky->reads("people"), 2u);
}

TEST_F(PolystoreGenerationTest, WriteInvalidatesThroughEngine) {
  auto opened = Polystore::Open(Path("lake"));
  ASSERT_TRUE(opened.ok());
  Polystore& store = *opened;
  ASSERT_TRUE(store.StoreTable("people", People()).ok());
  TableCache cache;
  FederatedEngineOptions options;
  options.table_cache = &cache;
  FederatedEngine engine(&store, options);

  FederationStats cold;
  ASSERT_TRUE(engine.Query(kPeopleSql, {.stats_out = &cold}).ok());
  EXPECT_EQ(cold.cache_misses, 1u);
  FederationStats warm;
  ASSERT_TRUE(engine.Query(kPeopleSql, {.stats_out = &warm}).ok());
  EXPECT_EQ(warm.cache_hits, 1u);

  // Replace the backing table. ReplaceTable bypasses the polystore's
  // ingestion path, so the writer bumps the generation explicitly.
  Table next = *Table::FromCsv("people",
                               "id,name,age,city\n9,zoe,52,delft\n");
  ASSERT_TRUE(store.relational().ReplaceTable(std::move(next)).ok());
  store.BumpGeneration("people");

  FederationStats after;
  Result<Table> r = engine.Query(kPeopleSql, {.stats_out = &after});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(after.cache_hits, 0u);
  ASSERT_EQ(r->num_rows(), 1u);
  EXPECT_EQ(r->column(0)[0], Value("zoe"));
}

TEST(FederatedCacheTest, SelectiveScanPrunesMorsels) {
  // A clustered table spanning many morsels: id ascends, so each morsel's
  // [min, max] id range is tight and a point predicate rules most out.
  CachedRig rig;
  table::Schema schema;
  schema.AddField({"id", table::DataType::kInt64});
  Table nums("nums", schema);
  constexpr size_t kRows = 5 * kMorselSize;
  for (size_t i = 0; i < kRows; ++i) {
    ASSERT_TRUE(nums.AppendRow({Value(static_cast<int64_t>(i))}).ok());
  }
  rig.source.Set("nums", std::move(nums));

  const std::string sql = "SELECT id FROM nums WHERE id = 3";
  FederationStats cold;
  Result<Table> r = rig.engine->Query(sql, {.stats_out = &cold});
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->num_rows(), 1u);
  // Zones exist from admission, so even the cold scan prunes: only the
  // first morsel can contain id 3.
  EXPECT_EQ(cold.morsels_pruned, 4u);

  FederationStats warm;
  Result<Table> r2 = rig.engine->Query(sql, {.stats_out = &warm});
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(warm.cache_hits, 1u);
  EXPECT_EQ(warm.morsels_pruned, 4u);
  EXPECT_TRUE(*r == *r2);
}

}  // namespace
}  // namespace lakekit::query
