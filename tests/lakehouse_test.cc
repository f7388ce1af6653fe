#include <gtest/gtest.h>

#include <filesystem>

#include "lakehouse/delta_log.h"
#include "lakehouse/delta_table.h"
#include "query/expr.h"
#include "storage/object_store.h"

#include "common/status.h"

namespace lakekit::lakehouse {
namespace {

namespace fs = std::filesystem;

class LakehouseTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = (fs::temp_directory_path() /
            ("lakekit_lh_" + std::string(::testing::UnitTest::GetInstance()
                                             ->current_test_info()
                                             ->name())))
               .string();
    fs::remove_all(dir_);
    auto store = storage::ObjectStore::Open(dir_);
    ASSERT_TRUE(store.ok());
    store_ = std::make_unique<storage::ObjectStore>(std::move(*store));
  }
  void TearDown() override { fs::remove_all(dir_); }

  static table::Schema OrdersSchema() {
    return table::Schema({{"id", table::DataType::kInt64, true},
                          {"item", table::DataType::kString, true},
                          {"qty", table::DataType::kInt64, true}});
  }

  static table::Table OrdersRows(int base, int n) {
    table::Table t("orders", OrdersSchema());
    for (int i = 0; i < n; ++i) {
      LAKEKIT_CHECK_OK(t.AppendRow({table::Value(int64_t{base + i}),
                         table::Value("item" + std::to_string(base + i)),
                         table::Value(int64_t{(base + i) % 7})}));
    }
    return t;
  }

  std::string dir_;
  std::unique_ptr<storage::ObjectStore> store_;
};

// ---------------------------------------------------------------- log

TEST_F(LakehouseTest, EmptyLogHasNoVersion) {
  DeltaLog log(store_.get(), "tables/none");
  auto latest = log.LatestVersion();
  ASSERT_TRUE(latest.ok());
  EXPECT_EQ(*latest, -1);
  EXPECT_FALSE(log.GetSnapshot().ok());
}

TEST_F(LakehouseTest, CommitAndSnapshot) {
  DeltaLog log(store_.get(), "tables/t");
  Commit c0;
  c0.operation = "CREATE";
  c0.metadata = TableMetadata{"t", "a:int64"};
  ASSERT_TRUE(log.TryCommit(c0, -1).ok());
  Commit c1;
  c1.operation = "APPEND";
  c1.adds.push_back(AddFile{"tables/t/part-0.csv", 100});
  auto v1 = log.TryCommit(c1, 0);
  ASSERT_TRUE(v1.ok());
  EXPECT_EQ(*v1, 1);
  auto snapshot = log.GetSnapshot();
  ASSERT_TRUE(snapshot.ok());
  EXPECT_EQ(snapshot->version, 1);
  EXPECT_EQ(snapshot->metadata.schema, "a:int64");
  ASSERT_EQ(snapshot->files.size(), 1u);
}

TEST_F(LakehouseTest, RemoveShadowsAdd) {
  DeltaLog log(store_.get(), "tables/t");
  Commit c0;
  c0.operation = "CREATE";
  c0.metadata = TableMetadata{"t", "a:int64"};
  c0.adds.push_back(AddFile{"p1", 10});
  ASSERT_TRUE(log.TryCommit(c0, -1).ok());
  Commit c1;
  c1.operation = "OVERWRITE";
  c1.removes.push_back(RemoveFile{"p1"});
  c1.adds.push_back(AddFile{"p2", 20});
  ASSERT_TRUE(log.TryCommit(c1, 0).ok());
  auto snapshot = log.GetSnapshot();
  ASSERT_TRUE(snapshot.ok());
  ASSERT_EQ(snapshot->files.size(), 1u);
  EXPECT_EQ(snapshot->files[0].path, "p2");
  // Time travel to version 0 still sees p1.
  auto old = log.GetSnapshot(0);
  ASSERT_TRUE(old.ok());
  EXPECT_EQ(old->files[0].path, "p1");
}

TEST_F(LakehouseTest, AppendRebasePastConcurrentCommit) {
  DeltaLog writer_a(store_.get(), "tables/t");
  DeltaLog writer_b(store_.get(), "tables/t");
  Commit create;
  create.operation = "CREATE";
  create.metadata = TableMetadata{"t", "a:int64"};
  ASSERT_TRUE(writer_a.TryCommit(create, -1).ok());

  // Both writers read version 0, then both append.
  Commit append_a;
  append_a.operation = "APPEND";
  append_a.adds.push_back(AddFile{"pa", 1});
  Commit append_b;
  append_b.operation = "APPEND";
  append_b.adds.push_back(AddFile{"pb", 1});
  auto va = writer_a.TryCommit(append_a, 0);
  auto vb = writer_b.TryCommit(append_b, 0);  // loses race, rebases
  ASSERT_TRUE(va.ok());
  ASSERT_TRUE(vb.ok());
  EXPECT_EQ(*va, 1);
  EXPECT_EQ(*vb, 2);
  auto snapshot = writer_a.GetSnapshot();
  EXPECT_EQ(snapshot->files.size(), 2u);
}

TEST_F(LakehouseTest, ConflictingOverwriteAborts) {
  DeltaLog writer_a(store_.get(), "tables/t");
  DeltaLog writer_b(store_.get(), "tables/t");
  Commit create;
  create.operation = "CREATE";
  create.metadata = TableMetadata{"t", "a:int64"};
  create.adds.push_back(AddFile{"p0", 1});
  ASSERT_TRUE(writer_a.TryCommit(create, -1).ok());
  // A appends at version 0; B tries to overwrite based on version 0.
  Commit append;
  append.operation = "APPEND";
  append.adds.push_back(AddFile{"p1", 1});
  ASSERT_TRUE(writer_a.TryCommit(append, 0).ok());
  Commit overwrite;
  overwrite.operation = "OVERWRITE";
  overwrite.removes.push_back(RemoveFile{"p0"});
  overwrite.adds.push_back(AddFile{"p2", 1});
  Status s = writer_b.TryCommit(overwrite, 0).status();
  EXPECT_TRUE(s.IsAborted());
}

TEST_F(LakehouseTest, CheckpointPreservesSnapshots) {
  DeltaLog log(store_.get(), "tables/t");
  Commit create;
  create.operation = "CREATE";
  create.metadata = TableMetadata{"t", "a:int64"};
  ASSERT_TRUE(log.TryCommit(create, -1).ok());
  for (int i = 0; i < 10; ++i) {
    Commit append;
    append.operation = "APPEND";
    append.adds.push_back(AddFile{"p" + std::to_string(i), 1});
    ASSERT_TRUE(log.TryCommit(append, i).ok());
  }
  auto before = log.GetSnapshot();
  ASSERT_TRUE(before.ok());
  ASSERT_TRUE(log.WriteCheckpoint(before->version).ok());
  auto after = log.GetSnapshot();
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after->version, before->version);
  EXPECT_EQ(after->files.size(), before->files.size());
  EXPECT_EQ(after->metadata.schema, before->metadata.schema);
  // Commits after the checkpoint still apply.
  Commit append;
  append.operation = "APPEND";
  append.adds.push_back(AddFile{"p_post", 1});
  ASSERT_TRUE(log.TryCommit(append, after->version).ok());
  EXPECT_EQ(log.GetSnapshot()->files.size(), before->files.size() + 1);
}

TEST_F(LakehouseTest, HistoryListsOperations) {
  DeltaLog log(store_.get(), "tables/t");
  Commit create;
  create.operation = "CREATE";
  create.metadata = TableMetadata{"t", "a:int64"};
  ASSERT_TRUE(log.TryCommit(create, -1).ok());
  Commit append;
  append.operation = "APPEND";
  append.adds.push_back(AddFile{"p", 1});
  ASSERT_TRUE(log.TryCommit(append, 0).ok());
  auto history = log.History();
  ASSERT_TRUE(history.ok());
  EXPECT_EQ(*history, (std::vector<std::string>{"CREATE", "APPEND"}));
}

// ---------------------------------------------------------------- table

TEST_F(LakehouseTest, CreateAppendRead) {
  auto t = DeltaTable::Create(store_.get(), "orders", OrdersSchema());
  ASSERT_TRUE(t.ok());
  ASSERT_TRUE(t->Append(OrdersRows(0, 5)).ok());
  ASSERT_TRUE(t->Append(OrdersRows(5, 5)).ok());
  auto data = t->Read();
  ASSERT_TRUE(data.ok());
  EXPECT_EQ(data->num_rows(), 10u);
  EXPECT_EQ(*t->Version(), 2);
}

TEST_F(LakehouseTest, CreateTwiceFails) {
  ASSERT_TRUE(DeltaTable::Create(store_.get(), "t", OrdersSchema()).ok());
  EXPECT_TRUE(DeltaTable::Create(store_.get(), "t", OrdersSchema())
                  .status()
                  .IsAlreadyExists());
}

TEST_F(LakehouseTest, SchemaMismatchRejected) {
  auto t = DeltaTable::Create(store_.get(), "orders", OrdersSchema());
  ASSERT_TRUE(t.ok());
  auto wrong = table::Table::FromCsv("x", "a,b\n1,2\n");
  EXPECT_TRUE(t->Append(*wrong).IsInvalidArgument());
}

TEST_F(LakehouseTest, TimeTravelReadsOldVersions) {
  auto t = DeltaTable::Create(store_.get(), "orders", OrdersSchema());
  ASSERT_TRUE(t.ok());
  ASSERT_TRUE(t->Append(OrdersRows(0, 3)).ok());   // v1
  ASSERT_TRUE(t->Append(OrdersRows(10, 4)).ok());  // v2
  ASSERT_TRUE(t->Overwrite(OrdersRows(100, 2)).ok());  // v3
  EXPECT_EQ(t->Read(1)->num_rows(), 3u);
  EXPECT_EQ(t->Read(2)->num_rows(), 7u);
  EXPECT_EQ(t->Read(3)->num_rows(), 2u);
  EXPECT_EQ(t->Read()->num_rows(), 2u);
  EXPECT_FALSE(t->Read(99).ok());
}

TEST_F(LakehouseTest, DeleteWhereRewritesFiles) {
  auto t = DeltaTable::Create(store_.get(), "orders", OrdersSchema());
  ASSERT_TRUE(t.ok());
  ASSERT_TRUE(t->Append(OrdersRows(0, 14)).ok());
  // Delete rows with qty = 0 (ids 0, 7 in 0..13).
  auto pred = query::Expr::Compare(
      query::CmpOp::kEq, query::Expr::Column("qty"),
      query::Expr::Literal(table::Value(int64_t{0})));
  ASSERT_TRUE(t->DeleteWhere(*pred).ok());
  auto data = t->Read();
  ASSERT_TRUE(data.ok());
  EXPECT_EQ(data->num_rows(), 12u);
  size_t qty = *data->schema().IndexOf("qty");
  for (size_t r = 0; r < data->num_rows(); ++r) {
    EXPECT_NE(data->at(r, qty).as_int(), 0);
  }
  // Deleted rows remain visible in the pre-delete version.
  EXPECT_EQ(t->Read(1)->num_rows(), 14u);
}

/// Part files decode against the table's schema, not by re-sniffing: a
/// string column of numeric-looking codes keeps its exact spelling, and a
/// delete matches it by that spelling.
TEST_F(LakehouseTest, StringColumnKeepsNumericLookingCodes) {
  const table::Schema schema({{"code", table::DataType::kString, true},
                              {"price", table::DataType::kDouble, true}});
  auto t = DeltaTable::Create(store_.get(), "codes", schema);
  ASSERT_TRUE(t.ok());
  table::Table rows("codes", schema);
  ASSERT_TRUE(rows.AppendRow({table::Value("007"), table::Value(2.0)}).ok());
  ASSERT_TRUE(rows.AppendRow({table::Value("1.50"), table::Value(3.5)}).ok());
  ASSERT_TRUE(rows.AppendRow({table::Value(" 42"), table::Value(1.0)}).ok());
  ASSERT_TRUE(t->Append(rows).ok());

  auto data = t->Read();
  ASSERT_TRUE(data.ok());
  EXPECT_EQ(data->schema(), schema);
  ASSERT_EQ(data->num_rows(), 3u);
  EXPECT_EQ(data->at(0, 0), table::Value("007"));
  EXPECT_EQ(data->at(1, 0), table::Value("1.50"));
  EXPECT_EQ(data->at(2, 0), table::Value(" 42"));
  EXPECT_TRUE(data->at(0, 1).is_double());  // "2" in the part file

  auto pred = query::Expr::Compare(query::CmpOp::kEq,
                                   query::Expr::Column("code"),
                                   query::Expr::Literal(table::Value("007")));
  ASSERT_TRUE(t->DeleteWhere(*pred).ok());
  auto after = t->Read();
  ASSERT_TRUE(after.ok());
  ASSERT_EQ(after->num_rows(), 2u);
  EXPECT_EQ(after->at(0, 0), table::Value("1.50"));
  EXPECT_EQ(after->at(1, 0), table::Value(" 42"));
}

TEST_F(LakehouseTest, DeleteWithNoMatchesIsNoop) {
  auto t = DeltaTable::Create(store_.get(), "orders", OrdersSchema());
  ASSERT_TRUE(t.ok());
  ASSERT_TRUE(t->Append(OrdersRows(0, 3)).ok());
  auto pred = query::Expr::Compare(
      query::CmpOp::kEq, query::Expr::Column("qty"),
      query::Expr::Literal(table::Value(int64_t{999})));
  ASSERT_TRUE(t->DeleteWhere(*pred).ok());
  EXPECT_EQ(*t->Version(), 1);  // no commit happened
}

// Only rows whose predicate is true are deleted: a NULL verdict keeps the
// row, as a false one does.
TEST_F(LakehouseTest, DeleteKeepsRowsWhosePredicateIsNull) {
  auto t = DeltaTable::Create(store_.get(), "orders", OrdersSchema());
  ASSERT_TRUE(t.ok());
  table::Table rows("orders", OrdersSchema());
  ASSERT_TRUE(rows.AppendRow({table::Value(int64_t{1}), table::Value("a"),
                              table::Value(int64_t{0})})
                  .ok());
  ASSERT_TRUE(rows.AppendRow({table::Value(int64_t{2}), table::Value("b"),
                              table::Value::Null()})
                  .ok());
  ASSERT_TRUE(rows.AppendRow({table::Value(int64_t{3}), table::Value("c"),
                              table::Value(int64_t{5})})
                  .ok());
  ASSERT_TRUE(t->Append(rows).ok());
  auto pred = query::Expr::Compare(
      query::CmpOp::kEq, query::Expr::Column("qty"),
      query::Expr::Literal(table::Value(int64_t{0})));
  ASSERT_TRUE(t->DeleteWhere(*pred).ok());
  auto after = t->Read();
  ASSERT_TRUE(after.ok());
  ASSERT_EQ(after->num_rows(), 2u);
  EXPECT_EQ(after->at(0, 0), table::Value(int64_t{2}));
  EXPECT_TRUE(after->at(0, 2).is_null());
  EXPECT_EQ(after->at(1, 0), table::Value(int64_t{3}));
}

// A predicate that fails on a part (arithmetic on a string column) fails
// the delete, and no version is committed.
TEST_F(LakehouseTest, DeleteWhosePredicateErrorsCommitsNothing) {
  auto t = DeltaTable::Create(store_.get(), "orders", OrdersSchema());
  ASSERT_TRUE(t.ok());
  ASSERT_TRUE(t->Append(OrdersRows(0, 3)).ok());
  auto pred = query::Expr::Compare(
      query::CmpOp::kEq,
      query::Expr::Arith(query::ArithOp::kAdd, query::Expr::Column("item"),
                         query::Expr::Literal(table::Value(int64_t{1}))),
      query::Expr::Literal(table::Value(int64_t{2})));
  EXPECT_TRUE(t->DeleteWhere(*pred).IsInvalidArgument());
  EXPECT_EQ(*t->Version(), 1);
  EXPECT_EQ(t->Read()->num_rows(), 3u);
}

TEST_F(LakehouseTest, OpenExistingTable) {
  {
    auto t = DeltaTable::Create(store_.get(), "orders", OrdersSchema());
    ASSERT_TRUE(t.ok());
    ASSERT_TRUE(t->Append(OrdersRows(0, 4)).ok());
  }
  auto reopened = DeltaTable::Open(store_.get(), "orders");
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ(reopened->schema(), OrdersSchema());
  EXPECT_EQ(reopened->Read()->num_rows(), 4u);
  ASSERT_TRUE(reopened->Append(OrdersRows(4, 2)).ok());
  EXPECT_EQ(reopened->Read()->num_rows(), 6u);
}

TEST_F(LakehouseTest, CheckpointedTableStillTimeTravels) {
  auto t = DeltaTable::Create(store_.get(), "orders", OrdersSchema());
  ASSERT_TRUE(t.ok());
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(t->Append(OrdersRows(i * 10, 2)).ok());
  }
  ASSERT_TRUE(t->Checkpoint().ok());
  EXPECT_EQ(t->Read()->num_rows(), 10u);
  EXPECT_EQ(t->Read(2)->num_rows(), 4u);  // pre-checkpoint version
}

// A `_last_checkpoint` pointer that does not parse counts as absent: every
// commit is replayed, so reads at any version stay exact.
TEST_F(LakehouseTest, UnparsableCheckpointPointerReplaysTheLog) {
  auto t = DeltaTable::Create(store_.get(), "orders", OrdersSchema());
  ASSERT_TRUE(t.ok());
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(t->Append(OrdersRows(i * 10, 2)).ok());
  }
  ASSERT_TRUE(t->Checkpoint().ok());
  ASSERT_TRUE(t->Append(OrdersRows(30, 2)).ok());
  for (const char* pointer : {"garbage", "", "3x"}) {
    SCOPED_TRACE(pointer);
    ASSERT_TRUE(
        store_->Put("tables/orders/_delta_log/_last_checkpoint", pointer).ok());
    auto reopened = DeltaTable::Open(store_.get(), "orders");
    ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
    EXPECT_EQ(reopened->Read()->num_rows(), 8u);
    EXPECT_EQ(reopened->Read(2)->num_rows(), 4u);
  }
}

TEST_F(LakehouseTest, HistoryAfterMixedOperations) {
  auto t = DeltaTable::Create(store_.get(), "orders", OrdersSchema());
  ASSERT_TRUE(t.ok());
  ASSERT_TRUE(t->Append(OrdersRows(0, 2)).ok());
  ASSERT_TRUE(t->Overwrite(OrdersRows(5, 1)).ok());
  auto history = t->History();
  ASSERT_TRUE(history.ok());
  EXPECT_EQ(*history,
            (std::vector<std::string>{"CREATE", "APPEND", "OVERWRITE"}));
}

TEST(SchemaSignatureTest, RoundTrip) {
  table::Schema s({{"a", table::DataType::kInt64, true},
                   {"b", table::DataType::kString, true}});
  auto parsed = SchemaFromSignature(s.ToString());
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(*parsed, s);
  EXPECT_FALSE(SchemaFromSignature("garbage-without-colon").ok());
}

}  // namespace
}  // namespace lakekit::lakehouse
