#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <string>
#include <string_view>

#include "json/parser.h"
#include "query/expr.h"
#include "query/federation.h"
#include "query/operators.h"
#include "query/source.h"
#include "query/sql.h"
#include "storage/polystore.h"

namespace lakekit::query {
namespace {

using table::Table;
using table::Value;

Table People() {
  return *Table::FromCsv(
      "people",
      "id,name,age,city\n1,ada,36,delft\n2,bob,41,leiden\n3,eve,29,delft\n"
      "4,dan,,leiden\n");
}

Table Cities() {
  return *Table::FromCsv("cities",
                         "city,country\ndelft,NL\nleiden,NL\naachen,DE\n");
}

// ---------------------------------------------------------------- expr

TEST(ExprTest, LiteralAndColumn) {
  Table t = People();
  auto row = t.Row(0);
  EXPECT_EQ(Expr::Literal(Value(int64_t{7}))->Eval(t.schema(), row)->as_int(),
            7);
  EXPECT_EQ(Expr::Column("name")->Eval(t.schema(), row)->as_string(), "ada");
  EXPECT_FALSE(Expr::Column("ghost")->Eval(t.schema(), row).ok());
}

TEST(ExprTest, ComparisonsAndNullPropagation) {
  Table t = People();
  auto pred = Expr::Compare(CmpOp::kGt, Expr::Column("age"),
                            Expr::Literal(Value(int64_t{30})));
  EXPECT_TRUE(pred->Eval(t.schema(), t.Row(0))->as_bool());   // 36 > 30
  EXPECT_FALSE(pred->Eval(t.schema(), t.Row(2))->as_bool());  // 29 > 30
  EXPECT_TRUE(pred->Eval(t.schema(), t.Row(3))->is_null());   // NULL age
  EXPECT_FALSE(*EvalPredicate(*pred, t.schema(), t.Row(3)));
}

TEST(ExprTest, ThreeValuedLogic) {
  Table t = People();
  auto null_cmp = Expr::Compare(CmpOp::kGt, Expr::Column("age"),
                                Expr::Literal(Value(int64_t{0})));
  auto true_lit = Expr::Literal(Value(true));
  auto false_lit = Expr::Literal(Value(false));
  auto row = t.Row(3);  // NULL age
  // NULL AND false = false; NULL OR true = true; NULL AND true = NULL.
  EXPECT_FALSE(Expr::Logical(LogicalOp::kAnd, null_cmp, false_lit)
                   ->Eval(t.schema(), row)
                   ->as_bool());
  EXPECT_TRUE(Expr::Logical(LogicalOp::kOr, null_cmp, true_lit)
                  ->Eval(t.schema(), row)
                  ->as_bool());
  EXPECT_TRUE(Expr::Logical(LogicalOp::kAnd, null_cmp, true_lit)
                  ->Eval(t.schema(), row)
                  ->is_null());
}

TEST(ExprTest, ArithmeticAndDivision) {
  Table t = People();
  auto row = t.Row(0);
  auto doubled = Expr::Arith(ArithOp::kMul, Expr::Column("age"),
                             Expr::Literal(Value(int64_t{2})));
  EXPECT_EQ(doubled->Eval(t.schema(), row)->as_int(), 72);
  auto div0 = Expr::Arith(ArithOp::kDiv, Expr::Column("age"),
                          Expr::Literal(Value(int64_t{0})));
  EXPECT_TRUE(div0->Eval(t.schema(), row)->is_null());
  auto bad = Expr::Arith(ArithOp::kAdd, Expr::Column("name"),
                         Expr::Literal(Value(int64_t{1})));
  EXPECT_FALSE(bad->Eval(t.schema(), row).ok());
}

TEST(ExprTest, IsNullAndNot) {
  Table t = People();
  auto is_null = Expr::IsNull(Expr::Column("age"));
  EXPECT_FALSE(is_null->Eval(t.schema(), t.Row(0))->as_bool());
  EXPECT_TRUE(is_null->Eval(t.schema(), t.Row(3))->as_bool());
  auto negated = Expr::Not(is_null);
  EXPECT_TRUE(negated->Eval(t.schema(), t.Row(0))->as_bool());
}

TEST(ExprTest, CollectColumnsAndToString) {
  auto e = Expr::Logical(
      LogicalOp::kAnd,
      Expr::Compare(CmpOp::kEq, Expr::Column("a"), Expr::Literal(Value(1))),
      Expr::Compare(CmpOp::kLt, Expr::Column("b"),
                    Expr::Literal(Value("x"))));
  std::vector<std::string> columns;
  e->CollectColumns(&columns);
  EXPECT_EQ(columns, (std::vector<std::string>{"a", "b"}));
  EXPECT_EQ(e->ToString(), "((a = 1) AND (b < 'x'))");
}

// ---------------------------------------------------------------- operators

TEST(OperatorsTest, Filter) {
  auto pred = Expr::Compare(CmpOp::kEq, Expr::Column("city"),
                            Expr::Literal(Value("delft")));
  auto out = Filter(People(), *pred);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->num_rows(), 2u);
}

TEST(OperatorsTest, Project) {
  auto out = Project(People(), {"name", "id"});
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->num_columns(), 2u);
  EXPECT_EQ(out->schema().field(0).name, "name");
  EXPECT_FALSE(Project(People(), {"ghost"}).ok());
}

TEST(OperatorsTest, InnerJoin) {
  auto out = HashJoin(People(), Cities(), "city", "city");
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->num_rows(), 4u);  // all people have a city match
  // Collided column names suffixed.
  EXPECT_TRUE(out->schema().HasField("city"));
  EXPECT_TRUE(out->schema().HasField("city_r"));
  EXPECT_TRUE(out->schema().HasField("country"));
}

TEST(OperatorsTest, LeftJoinKeepsUnmatched) {
  auto people = *Table::FromCsv("p", "name,city\nada,delft\nzed,mars\n");
  auto out = HashJoin(people, Cities(), "city", "city", JoinType::kLeft);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->num_rows(), 2u);
  size_t country = *out->schema().IndexOf("country");
  EXPECT_EQ(out->at(0, country).as_string(), "NL");
  EXPECT_TRUE(out->at(1, country).is_null());
}

TEST(OperatorsTest, NullKeysNeverJoin) {
  auto left = *Table::FromCsv("l", "k,v\n,1\nx,2\n");
  auto right = *Table::FromCsv("r", "k,w\n,9\nx,8\n");
  auto out = HashJoin(left, right, "k", "k");
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->num_rows(), 1u);  // only x joins
}

TEST(OperatorsTest, AggregateGlobal) {
  auto out = Aggregate(People(), {},
                       {{AggFn::kCount, "", "n"},
                        {AggFn::kAvg, "age", "avg_age"},
                        {AggFn::kMin, "age", "min_age"},
                        {AggFn::kMax, "age", "max_age"}});
  ASSERT_TRUE(out.ok());
  ASSERT_EQ(out->num_rows(), 1u);
  EXPECT_EQ(out->at(0, 0).as_int(), 4);
  EXPECT_NEAR(out->at(0, 1).as_double(), (36 + 41 + 29) / 3.0, 1e-9);
  EXPECT_EQ(out->at(0, 2).as_int(), 29);
  EXPECT_EQ(out->at(0, 3).as_int(), 41);
}

TEST(OperatorsTest, AggregateGrouped) {
  auto out =
      Aggregate(People(), {"city"}, {{AggFn::kCount, "", "n"}});
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->num_rows(), 2u);
  // First-seen group order: delft then leiden.
  EXPECT_EQ(out->at(0, 0).as_string(), "delft");
  EXPECT_EQ(out->at(0, 1).as_int(), 2);
  EXPECT_EQ(out->at(1, 1).as_int(), 2);
}

TEST(OperatorsTest, AggregateEmptyInputGlobalRow) {
  auto empty = *Table::FromCsv("e", "x\n");
  auto out = Aggregate(empty, {}, {{AggFn::kCount, "", "n"},
                                   {AggFn::kSum, "x", "s"}});
  ASSERT_TRUE(out.ok());
  ASSERT_EQ(out->num_rows(), 1u);
  EXPECT_EQ(out->at(0, 0).as_int(), 0);
  EXPECT_TRUE(out->at(0, 1).is_null());
}

TEST(OperatorsTest, SortAndLimit) {
  auto sorted = Sort(People(), "age", /*ascending=*/false);
  ASSERT_TRUE(sorted.ok());
  EXPECT_EQ(sorted->at(0, 1).as_string(), "bob");  // age 41 first
  // Ascending puts NULL first.
  auto asc = Sort(People(), "age", true);
  EXPECT_TRUE(asc->at(0, 2).is_null());
  auto limited = Limit(*sorted, 2);
  EXPECT_EQ(limited.num_rows(), 2u);
}

// ---------------------------------------------------------------- SQL

TableResolver FixtureResolver() {
  return [](const std::string& name) -> Result<Table> {
    if (name == "people") return People();
    if (name == "cities") return Cities();
    return Status::NotFound("no table " + name);
  };
}

TEST(SqlTest, SelectStar) {
  auto out = RunSql("SELECT * FROM people", FixtureResolver());
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->num_rows(), 4u);
  EXPECT_EQ(out->num_columns(), 4u);
}

TEST(SqlTest, WhereAndProjection) {
  auto out = RunSql(
      "SELECT name FROM people WHERE city = 'delft' AND age > 30",
      FixtureResolver());
  ASSERT_TRUE(out.ok());
  ASSERT_EQ(out->num_rows(), 1u);
  EXPECT_EQ(out->at(0, 0).as_string(), "ada");
}

TEST(SqlTest, OrPrecedence) {
  auto out = RunSql(
      "SELECT name FROM people WHERE city = 'leiden' OR city = 'delft' AND "
      "age < 30",
      FixtureResolver());
  ASSERT_TRUE(out.ok());
  // AND binds tighter: leiden(2) + delft&&age<30 (eve) = 3 rows.
  EXPECT_EQ(out->num_rows(), 3u);
}

TEST(SqlTest, IsNullPredicate) {
  auto out = RunSql("SELECT name FROM people WHERE age IS NULL",
                    FixtureResolver());
  ASSERT_TRUE(out.ok());
  ASSERT_EQ(out->num_rows(), 1u);
  EXPECT_EQ(out->at(0, 0).as_string(), "dan");
  auto not_null = RunSql("SELECT name FROM people WHERE age IS NOT NULL",
                         FixtureResolver());
  EXPECT_EQ(not_null->num_rows(), 3u);
}

TEST(SqlTest, JoinQuery) {
  auto out = RunSql(
      "SELECT name, country FROM people JOIN cities ON people.city = "
      "cities.city WHERE country = 'NL' ORDER BY name",
      FixtureResolver());
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->num_rows(), 4u);
  EXPECT_EQ(out->at(0, 0).as_string(), "ada");
}

TEST(SqlTest, GroupByWithAggregates) {
  auto out = RunSql(
      "SELECT city, COUNT(*) AS n, AVG(age) AS mean_age FROM people GROUP "
      "BY city ORDER BY n DESC",
      FixtureResolver());
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->num_rows(), 2u);
  EXPECT_TRUE(out->schema().HasField("n"));
  EXPECT_TRUE(out->schema().HasField("mean_age"));
}

TEST(SqlTest, OrderByDescAndLimit) {
  auto out = RunSql("SELECT name FROM people ORDER BY age DESC LIMIT 2",
                    FixtureResolver());
  ASSERT_TRUE(out.ok());
  ASSERT_EQ(out->num_rows(), 2u);
  EXPECT_EQ(out->at(0, 0).as_string(), "bob");
  EXPECT_EQ(out->at(1, 0).as_string(), "ada");
}

TEST(SqlTest, ArithmeticInWhere) {
  auto out = RunSql("SELECT name FROM people WHERE age * 2 > 80",
                    FixtureResolver());
  ASSERT_TRUE(out.ok());
  ASSERT_EQ(out->num_rows(), 1u);
  EXPECT_EQ(out->at(0, 0).as_string(), "bob");
}

TEST(SqlTest, ParseErrors) {
  EXPECT_FALSE(ParseSql("SELEC * FROM t").ok());
  EXPECT_FALSE(ParseSql("SELECT * FORM t").ok());
  EXPECT_FALSE(ParseSql("SELECT * FROM t WHERE").ok());
  EXPECT_FALSE(ParseSql("SELECT * FROM t garbage").ok());
  EXPECT_FALSE(ParseSql("SELECT SUM(*) FROM t").ok());
  EXPECT_FALSE(ParseSql("").ok());
  // LIMIT takes a non-negative integer that fits a size_t.
  for (const char* sql : {"SELECT * FROM t LIMIT 99999999999999999999999",
                          "SELECT * FROM t LIMIT -1",
                          "SELECT * FROM t LIMIT 1.5"}) {
    EXPECT_TRUE(ParseSql(sql).status().IsInvalidArgument()) << sql;
  }
  EXPECT_EQ(*ParseSql("SELECT * FROM t LIMIT 18446744073709551615")->limit,
            SIZE_MAX);
}

TEST(SqlTest, UnknownTableAndColumn) {
  EXPECT_FALSE(RunSql("SELECT * FROM ghost", FixtureResolver()).ok());
  EXPECT_FALSE(
      RunSql("SELECT ghost FROM people", FixtureResolver()).ok());
}

/// The SqlTest fixture tables as a federated engine's source.
class FixtureSource : public TableSource {
 public:
  Result<Table> ReadAsTable(std::string_view name) override {
    return FixtureResolver()(std::string(name));
  }
};

TEST(SqlTest, RunSqlMatchesFederatedEngine) {
  FixtureSource source;
  FederatedEngine engine(&source);
  // Every conjunct here pushes to the source whose columns it names; the
  // last join pushes to both sides.
  const std::string both_sides =
      "SELECT name, country FROM people JOIN cities ON people.city = "
      "cities.city WHERE country = 'NL' AND age > 30 AND name != 'ada'";
  for (const std::string& sql : {
           std::string("SELECT * FROM people"),
           std::string("SELECT name FROM people WHERE city = 'delft' AND "
                       "age > 30"),
           std::string("SELECT name FROM people WHERE city = 'leiden' OR "
                       "city = 'delft' AND age < 30"),
           std::string("SELECT name FROM people WHERE age IS NULL"),
           std::string("SELECT name FROM people WHERE age IS NOT NULL"),
           std::string("SELECT name, country FROM people JOIN cities ON "
                       "people.city = cities.city WHERE country = 'NL' "
                       "ORDER BY name"),
           std::string("SELECT city, COUNT(*) AS n, AVG(age) AS mean_age "
                       "FROM people GROUP BY city ORDER BY n DESC"),
           std::string("SELECT name FROM people ORDER BY age DESC LIMIT 2"),
           std::string("SELECT name FROM people WHERE age * 2 > 80"),
           both_sides}) {
    Result<Table> direct = RunSql(sql, FixtureResolver());
    FederationStats stats;
    Result<Table> federated =
        engine.Query(sql, QueryOptions{.stats_out = &stats});
    ASSERT_TRUE(direct.ok()) << sql << ": " << direct.status().ToString();
    ASSERT_TRUE(federated.ok()) << sql;
    EXPECT_TRUE(*direct == *federated) << sql;
    EXPECT_EQ(stats.residual_conjuncts, 0u) << sql;
    if (sql == both_sides) {
      EXPECT_EQ(stats.pushed_conjuncts, 3u);
      EXPECT_EQ(federated->num_rows(), 1u);  // bob
    }
  }
}

std::string Repeat(std::string_view unit, size_t n) {
  std::string out;
  out.reserve(unit.size() * n);
  for (size_t i = 0; i < n; ++i) out += unit;
  return out;
}

TEST(SqlTest, DeepExpressionsAreInvalidArgument) {
  FixtureSource source;
  FederatedEngine engine(&source);
  const std::string select = "SELECT name FROM people WHERE ";
  // Far past the limit, any recursion over these shapes would overflow the
  // stack: the first two while parsing, the flat chains while compiling or
  // evaluating them.
  const std::string shapes[] = {
      select + std::string(5000, '(') + "age > 30" + std::string(5000, ')'),
      select + Repeat("NOT ", 200000) + "age > 30",
      select + "age > 30" + Repeat(" AND age > 30", 10000),
      select + "age" + Repeat(" + 1", 10000) + " > 30",
  };
  for (const std::string& sql : shapes) {
    SCOPED_TRACE(sql.substr(0, 48));
    EXPECT_TRUE(ParseSql(sql).status().IsInvalidArgument());
    EXPECT_TRUE(RunSql(sql, FixtureResolver()).status().IsInvalidArgument());
    EXPECT_TRUE(engine.Query(sql).status().IsInvalidArgument());
  }
  // A bushy WHERE within the depth limit whose conjuncts would be rebuilt
  // into a chain deeper than it.
  const std::string group =
      "(age > 30" + Repeat(" AND age > 30", kMaxExprDepth / 2) + ")";
  const std::string bushy = select + group + " AND " + group + " AND " + group;
  ASSERT_TRUE(ParseSql(bushy).ok());
  EXPECT_TRUE(RunSql(bushy, FixtureResolver()).status().IsInvalidArgument());
  EXPECT_TRUE(engine.Query(bushy).status().IsInvalidArgument());
}

TEST(SqlTest, ExpressionsAtTheDepthLimitRun) {
  FixtureSource source;
  FederatedEngine engine(&source);
  const std::string select = "SELECT name FROM people WHERE ";
  // `age > 30` is two deep; each NOT, AND or + adds one level.
  static_assert(kMaxExprDepth % 2 == 0, "the NOT chain must cancel out");
  const std::string at_limit[] = {
      select + Repeat("NOT ", kMaxExprDepth - 2) + "age > 30",
      select + "age > 30" + Repeat(" AND age > 30", kMaxExprDepth - 2),
      select + "age" + Repeat(" + 0", kMaxExprDepth - 2) + " > 30",
      select + std::string(kMaxExprDepth, '(') + "age > 30" +
          std::string(kMaxExprDepth, ')'),
  };
  for (const std::string& sql : at_limit) {
    SCOPED_TRACE(sql.substr(0, 48));
    Result<Table> direct = RunSql(sql, FixtureResolver());
    ASSERT_TRUE(direct.ok()) << direct.status().ToString();
    EXPECT_EQ(direct->num_rows(), 2u);  // ada, bob
    Result<Table> federated = engine.Query(sql);
    ASSERT_TRUE(federated.ok()) << federated.status().ToString();
    EXPECT_TRUE(*direct == *federated);
  }
  // One level more is refused.
  const std::string too_deep[] = {
      select + Repeat("NOT ", kMaxExprDepth - 1) + "age > 30",
      select + "age > 30" + Repeat(" AND age > 30", kMaxExprDepth - 1),
      select + "age" + Repeat(" + 0", kMaxExprDepth - 1) + " > 30",
      select + std::string(kMaxExprDepth + 1, '(') + "age > 30" +
          std::string(kMaxExprDepth + 1, ')'),
  };
  for (const std::string& sql : too_deep) {
    SCOPED_TRACE(sql.substr(0, 48));
    EXPECT_TRUE(ParseSql(sql).status().IsInvalidArgument());
  }
}

// ---------------------------------------------------------------- federated

class FederationTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = (std::filesystem::temp_directory_path() / "lakekit_fed_test")
               .string();
    std::filesystem::remove_all(dir_);
    auto ps = storage::Polystore::Open(dir_);
    ASSERT_TRUE(ps.ok());
    polystore_ =
        std::make_unique<storage::Polystore>(std::move(*ps));
    // A relational table, a document collection, and a raw CSV object —
    // one dataset per store kind.
    ASSERT_TRUE(polystore_->StoreTable("people", People()).ok());
    std::vector<json::Value> docs;
    docs.push_back(*json::Parse(R"({"city":"delft","country":"NL"})"));
    docs.push_back(*json::Parse(R"({"city":"leiden","country":"NL"})"));
    docs.push_back(*json::Parse(R"({"city":"aachen","country":"DE"})"));
    ASSERT_TRUE(polystore_->StoreDocuments("cities", std::move(docs)).ok());
    ASSERT_TRUE(polystore_
                    ->StoreObject("raw_events", "landing/events.csv",
                                  "city,clicks\ndelft,10\nleiden,20\n")
                    .ok());
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string dir_;
  std::unique_ptr<storage::Polystore> polystore_;
};

TEST_F(FederationTest, QueryAcrossStores) {
  FederatedEngine engine(polystore_.get());
  auto out = engine.Query(
      "SELECT name, country FROM people JOIN cities ON people.city = "
      "cities.city WHERE country = 'NL'");
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->num_rows(), 4u);
}

TEST_F(FederationTest, ObjectStoreDatasetQueryable) {
  FederatedEngine engine(polystore_.get());
  auto out = engine.Query("SELECT clicks FROM raw_events WHERE city = 'delft'");
  ASSERT_TRUE(out.ok());
  ASSERT_EQ(out->num_rows(), 1u);
  EXPECT_EQ(out->at(0, 0).as_int(), 10);
}

TEST_F(FederationTest, PushdownReducesShippedRows) {
  FederatedEngine engine(polystore_.get());
  FederationStats pushed;
  auto with = engine.Query("SELECT name FROM people WHERE city = 'delft'",
                           QueryOptions{.stats_out = &pushed});
  ASSERT_TRUE(with.ok());
  FederationStats unpushed;
  auto without = engine.Query(
      "SELECT name FROM people WHERE city = 'delft'",
      QueryOptions{.enable_pushdown = false, .stats_out = &unpushed});
  ASSERT_TRUE(without.ok());
  EXPECT_EQ(with->num_rows(), without->num_rows());
  EXPECT_EQ(pushed.pushed_conjuncts, 1u);
  EXPECT_EQ(unpushed.pushed_conjuncts, 0u);
  EXPECT_LT(pushed.rows_shipped, unpushed.rows_shipped);
}

TEST_F(FederationTest, EachSourceReadExactlyOnce) {
  FederatedEngine engine(polystore_.get());
  // Join query: one polystore read per source (no separate schema-probe
  // read), and rows_scanned counts each source's rows exactly once.
  FederationStats join;
  ASSERT_TRUE(engine
                  .Query("SELECT name, country FROM people JOIN cities ON "
                         "people.city = cities.city WHERE country = 'NL'",
                         QueryOptions{.stats_out = &join})
                  .ok());
  EXPECT_EQ(join.source_reads, 2u);
  EXPECT_EQ(join.rows_scanned, 7u);  // 4 people + 3 cities

  // Single-source query: one read.
  FederationStats single;
  ASSERT_TRUE(engine
                  .Query("SELECT name FROM people WHERE age > 30",
                         QueryOptions{.stats_out = &single})
                  .ok());
  EXPECT_EQ(single.source_reads, 1u);
  EXPECT_EQ(single.rows_scanned, 4u);
}

TEST_F(FederationTest, PushdownShrinksJoinInputs) {
  FederatedEngine engine(polystore_.get());
  const std::string sql =
      "SELECT name FROM people JOIN cities ON people.city = cities.city "
      "WHERE country = 'NL' AND age > 30";
  FederationStats with;
  ASSERT_TRUE(engine.Query(sql, QueryOptions{.stats_out = &with}).ok());
  FederationStats without;
  ASSERT_TRUE(
      engine
          .Query(sql, QueryOptions{.enable_pushdown = false,
                                   .stats_out = &without})
          .ok());
  EXPECT_LT(with.join_input_rows, without.join_input_rows);
}

TEST(ConjunctsTest, SplitAndCombine) {
  auto a = Expr::Compare(CmpOp::kEq, Expr::Column("x"),
                         Expr::Literal(Value(1)));
  auto b = Expr::Compare(CmpOp::kEq, Expr::Column("y"),
                         Expr::Literal(Value(2)));
  auto c = Expr::Compare(CmpOp::kEq, Expr::Column("z"),
                         Expr::Literal(Value(3)));
  auto combined =
      Expr::Logical(LogicalOp::kAnd, Expr::Logical(LogicalOp::kAnd, a, b), c);
  std::vector<ExprPtr> conjuncts;
  SplitConjuncts(combined, &conjuncts);
  EXPECT_EQ(conjuncts.size(), 3u);
  // OR is not split.
  conjuncts.clear();
  SplitConjuncts(Expr::Logical(LogicalOp::kOr, a, b), &conjuncts);
  EXPECT_EQ(conjuncts.size(), 1u);
  EXPECT_EQ(CombineConjuncts({}), nullptr);
  EXPECT_EQ(CombineConjuncts({a}), a);
}

}  // namespace
}  // namespace lakekit::query
