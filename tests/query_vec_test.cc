#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "common/random.h"
#include "common/thread_pool.h"
#include "query/expr.h"
#include "query/operators.h"
#include "query/reference_ops.h"
#include "query/vec.h"
#include "query/zone_map.h"
#include "table/table.h"

// Differential test suite for the vectorized query engine: the morsel-
// parallel operators in query/operators.h must be *bit-identical* — schema,
// row order, and the exact bits of every double — to the row-at-a-time
// interpreter in query/reference_ops.h, for any thread count. Runs under
// the same sanitizer configuration as the rest of the suite, so the
// 8-thread runs double as a race check under TSan.

namespace lakekit::query {
namespace {

using table::DataType;
using table::Field;
using table::Schema;
using table::Table;
using table::Value;

// ---------------------------------------------------------------- helpers

/// Bit-exact cell equality: same dynamic type and, for doubles, the same
/// bit pattern (distinguishes 0.0 from -0.0 and any two NaN payloads).
bool CellBitsEqual(const Value& a, const Value& b) {
  if (a.type() != b.type()) return false;
  switch (a.type()) {
    case DataType::kNull:
      return true;
    case DataType::kBool:
      return a.as_bool() == b.as_bool();
    case DataType::kInt64:
      return a.as_int() == b.as_int();
    case DataType::kDouble:
      return std::bit_cast<uint64_t>(a.as_double()) ==
             std::bit_cast<uint64_t>(b.as_double());
    case DataType::kString:
      return a.as_string() == b.as_string();
  }
  return false;
}

::testing::AssertionResult BitIdentical(const Table& a, const Table& b) {
  if (!(a.schema() == b.schema())) {
    return ::testing::AssertionFailure()
           << "schema mismatch: " << a.schema().ToString() << " vs "
           << b.schema().ToString();
  }
  if (a.num_rows() != b.num_rows()) {
    return ::testing::AssertionFailure()
           << "row count mismatch: " << a.num_rows() << " vs " << b.num_rows();
  }
  for (size_t r = 0; r < a.num_rows(); ++r) {
    for (size_t c = 0; c < a.num_columns(); ++c) {
      if (!CellBitsEqual(a.at(r, c), b.at(r, c))) {
        return ::testing::AssertionFailure()
               << "cell (" << r << ", " << c << ") differs: "
               << a.at(r, c).ToString() << " vs " << b.at(r, c).ToString();
      }
    }
  }
  return ::testing::AssertionSuccess();
}

/// A random value of the given type, drawn from deliberately nasty pools:
/// ints straddling 2^53, doubles including -0.0 / huge / NaN, strings
/// including "" / numeric look-alikes / '\x01'-'\x02' bytes (the old
/// group-key separator).
Value RandomTypedValue(Rng& rng, DataType type) {
  switch (type) {
    case DataType::kNull:
      return Value::Null();
    case DataType::kBool:
      return Value(rng.Below(2) == 0);
    case DataType::kInt64:
      // Kept small so random arithmetic never overflows int64 (signed
      // overflow is UB; the asan preset runs UBSan). The 2^53 comparison
      // and summation semantics get dedicated arithmetic-free tests below.
      return Value(rng.Between(-50, 50));
    case DataType::kDouble: {
      switch (rng.Below(8)) {
        case 0:
          return Value(0.0);
        case 1:
          return Value(-0.0);
        case 2:
          return Value(1e300);
        case 3:
          return Value(std::nan(""));
        default:
          return Value(static_cast<double>(rng.Between(-40, 40)) + 0.25);
      }
    }
    case DataType::kString: {
      static const char* kPool[] = {"",  "1",  "2.0",    "true",
                                    "a", "bb", "\x01",   "\x02",
                                    "a\x01" "b",          "a\x02" "b"};
      const size_t n = sizeof(kPool) / sizeof(kPool[0]);
      if (rng.Below(4) == 0) return Value(rng.NextWord(3));
      return Value(std::string(kPool[rng.Below(n)]));
    }
  }
  return Value::Null();
}

DataType RandomLaneType(Rng& rng) {
  static const DataType kTypes[] = {DataType::kBool, DataType::kInt64,
                                    DataType::kDouble, DataType::kString};
  return kTypes[rng.Below(4)];
}

/// A fuzzed table: 1-4 columns of random schema types, ~15% NULLs.
Table FuzzTable(Rng& rng, size_t rows, const std::string& name) {
  Schema schema;
  const size_t cols = 1 + rng.Below(4);
  for (size_t c = 0; c < cols; ++c) {
    schema.AddField(Field{"c" + std::to_string(c), RandomLaneType(rng), true});
  }
  Table t(name, schema);
  t.Reserve(rows);
  for (size_t r = 0; r < rows; ++r) {
    std::vector<Value> row;
    row.reserve(cols);
    for (size_t c = 0; c < cols; ++c) {
      if (rng.Below(100) < 15) {
        row.push_back(Value::Null());
      } else {
        row.push_back(RandomTypedValue(rng, schema.field(c).type));
      }
    }
    EXPECT_TRUE(t.AppendRow(std::move(row)).ok());
  }
  return t;
}

/// A random expression over the table's columns: comparisons, three-valued
/// logic, arithmetic, NOT, IS NULL, literals of every type.
ExprPtr RandomExpr(Rng& rng, const std::vector<std::string>& cols,
                   int depth) {
  if (depth <= 0 || rng.Below(4) == 0) {
    if (!cols.empty() && rng.Below(3) != 0) {
      return Expr::Column(cols[rng.Below(cols.size())]);
    }
    DataType t = rng.Below(8) == 0 ? DataType::kNull : RandomLaneType(rng);
    return Expr::Literal(RandomTypedValue(rng, t));
  }
  switch (rng.Below(5)) {
    case 0: {
      static const CmpOp kCmp[] = {CmpOp::kEq, CmpOp::kNe, CmpOp::kLt,
                                   CmpOp::kLe, CmpOp::kGt, CmpOp::kGe};
      return Expr::Compare(kCmp[rng.Below(6)],
                           RandomExpr(rng, cols, depth - 1),
                           RandomExpr(rng, cols, depth - 1));
    }
    case 1:
      return Expr::Logical(rng.Below(2) == 0 ? LogicalOp::kAnd : LogicalOp::kOr,
                           RandomExpr(rng, cols, depth - 1),
                           RandomExpr(rng, cols, depth - 1));
    case 2: {
      static const ArithOp kArith[] = {ArithOp::kAdd, ArithOp::kSub,
                                       ArithOp::kMul, ArithOp::kDiv};
      return Expr::Arith(kArith[rng.Below(4)], RandomExpr(rng, cols, depth - 1),
                         RandomExpr(rng, cols, depth - 1));
    }
    case 3:
      return Expr::Not(RandomExpr(rng, cols, depth - 1));
    default:
      return Expr::IsNull(RandomExpr(rng, cols, depth - 1));
  }
}

ExecOptions PoolOpts(ThreadPool* pool) {
  ExecOptions opts;
  opts.pool = pool;
  return opts;
}

/// Runs one operator through the reference interpreter and the vectorized
/// engine on a 1-thread and an 8-thread pool, asserting ok-ness parity and
/// bit-identical tables on success. Error *codes* are not compared: when a
/// query has several independent error sites the engines may surface
/// different ones, but they must agree on whether the query fails.
template <typename RefFn, typename VecFn>
void ExpectSameOutcome(const char* what, RefFn ref_fn, VecFn vec_fn,
                       ThreadPool* serial, ThreadPool* wide) {
  Result<Table> ref = ref_fn();
  Result<Table> v1 = vec_fn(PoolOpts(serial));
  Result<Table> v8 = vec_fn(PoolOpts(wide));
  ASSERT_EQ(ref.ok(), v1.ok()) << what << ": serial ok-ness diverges";
  ASSERT_EQ(ref.ok(), v8.ok()) << what << ": parallel ok-ness diverges";
  if (!ref.ok()) return;
  EXPECT_TRUE(BitIdentical(*ref, *v1)) << what << " (serial)";
  EXPECT_TRUE(BitIdentical(*v1, *v8)) << what << " (parallel vs serial)";
}

std::vector<AggSpec> RandomAggs(Rng& rng, const Table& t) {
  std::vector<AggSpec> aggs;
  aggs.push_back(AggSpec{AggFn::kCount, "", "n"});  // COUNT(*)
  const size_t n = 1 + rng.Below(3);
  static const AggFn kFns[] = {AggFn::kCount, AggFn::kSum, AggFn::kAvg,
                               AggFn::kMin, AggFn::kMax};
  for (size_t i = 0; i < n; ++i) {
    AggSpec spec;
    spec.fn = kFns[rng.Below(5)];
    spec.column =
        t.schema().field(rng.Below(t.num_columns())).name;
    spec.alias = "a" + std::to_string(i);
    aggs.push_back(spec);
  }
  return aggs;
}

// ---------------------------------------------------------------- tests

/// The headline differential: >= 100 randomized tables through every
/// operator, vectorized (1 and 8 threads) vs the interpreter.
TEST(QueryVecDifferentialTest, RandomizedTablesMatchReference) {
  ThreadPool serial(1);
  ThreadPool wide(8);
  // Sizes cross the morsel boundary (2048) so multi-morsel merge paths run.
  const size_t kSizes[] = {0, 1, 2, 7, 33, 100, 512, 2048, 2049, 4500};
  for (uint64_t seed = 0; seed < 110; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed * 7919 + 1);
    const size_t rows = kSizes[seed % 10];
    Table t = FuzzTable(rng, rows, "fuzz");
    std::vector<std::string> cols = t.schema().FieldNames();

    // Filter: three random predicates per table.
    for (int i = 0; i < 3; ++i) {
      ExprPtr pred = RandomExpr(rng, cols, 3);
      SCOPED_TRACE("filter " + pred->ToString());
      ExpectSameOutcome(
          "Filter", [&] { return reference::Filter(t, *pred); },
          [&](const ExecOptions& o) { return Filter(t, *pred, o); }, &serial,
          &wide);
    }

    // Project: random column subset (duplicates allowed).
    std::vector<std::string> proj;
    for (size_t i = 0, n = 1 + rng.Below(cols.size()); i < n; ++i) {
      proj.push_back(cols[rng.Below(cols.size())]);
    }
    ExpectSameOutcome(
        "Project", [&] { return reference::Project(t, proj); },
        [&](const ExecOptions&) { return Project(t, proj); }, &serial, &wide);

    // Sort: every column, both directions (stability + NULL placement).
    for (const std::string& c : cols) {
      for (bool asc : {true, false}) {
        ExpectSameOutcome(
            "Sort", [&] { return reference::Sort(t, c, asc); },
            [&](const ExecOptions&) { return Sort(t, c, asc); }, &serial,
            &wide);
      }
    }

    // Limit: below, at, and beyond the row count.
    for (size_t n : {size_t{0}, rows / 2, rows, rows + 3}) {
      EXPECT_TRUE(BitIdentical(reference::Limit(t, n), Limit(t, n)));
    }

    // Aggregate: global and grouped by a random column subset.
    std::vector<AggSpec> aggs = RandomAggs(rng, t);
    std::vector<std::string> group_by;
    if (rng.Below(4) != 0) {
      for (size_t i = 0, n = 1 + rng.Below(2); i < n && i < cols.size(); ++i) {
        group_by.push_back(cols[i]);
      }
    }
    ExpectSameOutcome(
        "Aggregate",
        [&] { return reference::Aggregate(t, group_by, aggs); },
        [&](const ExecOptions& o) { return Aggregate(t, group_by, aggs, o); },
        &serial, &wide);

    // HashJoin: small right side drawn from the same value pools so keys
    // actually collide; inner and left.
    Table right = FuzzTable(rng, rng.Below(64), "rhs");
    const std::string lcol = cols[rng.Below(cols.size())];
    const std::string rcol =
        right.schema().field(rng.Below(right.num_columns())).name;
    for (JoinType jt : {JoinType::kInner, JoinType::kLeft}) {
      ExpectSameOutcome(
          "HashJoin",
          [&] { return reference::HashJoin(t, right, lcol, rcol, jt); },
          [&](const ExecOptions& o) {
            return HashJoin(t, right, lcol, rcol, jt, o);
          },
          &serial, &wide);
    }
  }
}

TEST(QueryVecEdgeTest, ZeroRowInputs) {
  ThreadPool serial(1);
  ThreadPool wide(8);
  Table empty = *Table::FromCsv("empty", "a,b\n");
  ExprPtr pred = Expr::Compare(CmpOp::kGt, Expr::Column("a"),
                               Expr::Literal(Value(int64_t{0})));
  auto filtered = Filter(empty, *pred, {&wide});
  ASSERT_TRUE(filtered.ok());
  EXPECT_EQ(filtered->num_rows(), 0u);
  // An unknown column over zero rows succeeds, exactly like the row-at-a-
  // time interpreter (which never evaluates the predicate).
  ExprPtr ghost = Expr::Compare(CmpOp::kGt, Expr::Column("ghost"),
                                Expr::Literal(Value(int64_t{0})));
  EXPECT_EQ(Filter(empty, *ghost, {&serial}).ok(),
            reference::Filter(empty, *ghost).ok());

  auto joined = HashJoin(empty, empty, "a", "a", JoinType::kInner, {&wide});
  ASSERT_TRUE(joined.ok());
  EXPECT_EQ(joined->num_rows(), 0u);

  // Global aggregate over zero rows: one row, SUM/AVG NULL, COUNT 0.
  auto agg = Aggregate(empty, {},
                       {AggSpec{AggFn::kCount, "", "n"},
                        AggSpec{AggFn::kSum, "a", "s"}},
                       {&wide});
  ASSERT_TRUE(agg.ok());
  ASSERT_EQ(agg->num_rows(), 1u);
  EXPECT_EQ(agg->at(0, 0).as_int(), 0);
  EXPECT_TRUE(agg->at(0, 1).is_null());
  // Grouped aggregate over zero rows: zero groups.
  auto grouped =
      Aggregate(empty, {"a"}, {AggSpec{AggFn::kCount, "", "n"}}, {&wide});
  ASSERT_TRUE(grouped.ok());
  EXPECT_EQ(grouped->num_rows(), 0u);
}

TEST(QueryVecEdgeTest, AllNullInputs) {
  ThreadPool wide(8);
  Schema schema;
  schema.AddField(Field{"k", DataType::kInt64, true});
  schema.AddField(Field{"v", DataType::kDouble, true});
  Table t("nulls", schema);
  for (int r = 0; r < 10; ++r) {
    ASSERT_TRUE(t.AppendRow({Value::Null(), Value::Null()}).ok());
  }
  ExprPtr pred = Expr::Compare(CmpOp::kGt, Expr::Column("k"),
                               Expr::Literal(Value(int64_t{0})));
  auto filtered = Filter(t, *pred, {&wide});
  ASSERT_TRUE(filtered.ok());
  EXPECT_EQ(filtered->num_rows(), 0u);  // NULL predicate excludes

  // NULL keys never join, so even NULL = NULL produces no matches.
  auto inner = HashJoin(t, t, "k", "k", JoinType::kInner, {&wide});
  ASSERT_TRUE(inner.ok());
  EXPECT_EQ(inner->num_rows(), 0u);
  auto left = HashJoin(t, t, "k", "k", JoinType::kLeft, {&wide});
  ASSERT_TRUE(left.ok());
  EXPECT_EQ(left->num_rows(), 10u);

  // All-NULL aggregation input: one NULL group; SUM/MIN NULL, COUNT(v) 0.
  auto agg = Aggregate(t, {"k"},
                       {AggSpec{AggFn::kCount, "v", "n"},
                        AggSpec{AggFn::kSum, "v", "s"},
                        AggSpec{AggFn::kMin, "v", "m"}},
                       {&wide});
  ASSERT_TRUE(agg.ok());
  ASSERT_EQ(agg->num_rows(), 1u);
  EXPECT_TRUE(agg->at(0, 0).is_null());
  EXPECT_EQ(agg->at(0, 1).as_int(), 0);
  EXPECT_TRUE(agg->at(0, 2).is_null());
  EXPECT_TRUE(agg->at(0, 3).is_null());
}

TEST(QueryVecEdgeTest, SortIsStableAndNullsFirst) {
  Schema schema;
  schema.AddField(Field{"k", DataType::kInt64, true});
  schema.AddField(Field{"seq", DataType::kInt64, true});
  Table t("dups", schema);
  // Keys 2,1,2,NULL,1,2 with a sequence column marking input order.
  const int64_t keys[] = {2, 1, 2, -1, 1, 2};
  for (int64_t i = 0; i < 6; ++i) {
    Value k = keys[i] < 0 ? Value::Null() : Value(keys[i]);
    ASSERT_TRUE(t.AppendRow({k, Value(i)}).ok());
  }
  auto sorted = Sort(t, "k", /*ascending=*/true);
  ASSERT_TRUE(sorted.ok());
  // NULL first, then 1s and 2s each in input order.
  const int64_t want_seq[] = {3, 1, 4, 0, 2, 5};
  for (size_t r = 0; r < 6; ++r) {
    EXPECT_EQ(sorted->at(r, 1).as_int(), want_seq[r]) << "row " << r;
  }
}

TEST(QueryVecEdgeTest, LimitBeyondRowCount) {
  Table t = *Table::FromCsv("t", "a\n1\n2\n3\n");
  EXPECT_EQ(Limit(t, 99).num_rows(), 3u);
  EXPECT_EQ(Limit(t, 3).num_rows(), 3u);
  EXPECT_EQ(Limit(t, 0).num_rows(), 0u);
}

/// Regression (group-key encoding): the old implementation keyed groups on
/// ToString() values joined with '\x02', which collapsed int 1 with string
/// "1" and made strings containing the separator ambiguous across columns.
TEST(QueryVecRegressionTest, AggregateKeysDoNotCollide) {
  ThreadPool wide(8);
  Schema schema;
  schema.AddField(Field{"x", DataType::kString, true});
  schema.AddField(Field{"y", DataType::kString, true});
  Table t("collide", schema);
  // Two rows whose concatenated encodings are identical but whose key
  // vectors differ.
  ASSERT_TRUE(t.AppendRow({Value(std::string("a\x02") + "b"), Value("c")}).ok());
  ASSERT_TRUE(t.AppendRow({Value("a"), Value(std::string("b\x02") + "c")}).ok());
  ASSERT_TRUE(t.AppendRow({Value("1"), Value("z")}).ok());
  for (const ExecOptions& opts : {ExecOptions{}, PoolOpts(&wide)}) {
    auto agg =
        Aggregate(t, {"x", "y"}, {AggSpec{AggFn::kCount, "", "n"}}, opts);
    ASSERT_TRUE(agg.ok());
    EXPECT_EQ(agg->num_rows(), 3u);  // all three rows are distinct groups
    for (size_t r = 0; r < agg->num_rows(); ++r) {
      EXPECT_EQ(agg->at(r, 2).as_int(), 1) << "group " << r;
    }
  }
  // The reference interpreter agrees (the fix landed in both engines).
  auto ref = reference::Aggregate(t, {"x", "y"},
                                  {AggSpec{AggFn::kCount, "", "n"}});
  ASSERT_TRUE(ref.ok());
  EXPECT_EQ(ref->num_rows(), 3u);
}

/// Regression (SUM widening): int64 sums used to accumulate in double,
/// silently losing integer precision past 2^53.
TEST(QueryVecRegressionTest, SumOverInt64StaysExact) {
  ThreadPool wide(8);
  constexpr int64_t kBig = int64_t{1} << 53;  // 2^53: doubles skip odd values
  Schema schema;
  schema.AddField(Field{"v", DataType::kInt64, true});
  Table t("big", schema);
  ASSERT_TRUE(t.AppendRow({Value(kBig)}).ok());
  ASSERT_TRUE(t.AppendRow({Value(int64_t{1})}).ok());
  auto agg = Aggregate(t, {}, {AggSpec{AggFn::kSum, "v", "s"}}, {&wide});
  ASSERT_TRUE(agg.ok());
  ASSERT_EQ(agg->schema().field(0).type, DataType::kInt64);
  ASSERT_TRUE(agg->at(0, 0).is_int());
  EXPECT_EQ(agg->at(0, 0).as_int(), kBig + 1);  // not representable as double

  // A double cannot enter the int64 column, so the sum stays exact.
  EXPECT_EQ(t.AppendRow({Value(0.5)}).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(t.num_rows(), 2u);
}

/// Regression (SUM output type): SUM over a bool or string column declares a
/// double field, so its value is a double 0.0 — not an int64 0 — in both
/// engines. SUM over no values stays NULL.
TEST(QueryVecRegressionTest, SumOverBoolOrStringIsDouble) {
  ThreadPool serial(1);
  ThreadPool wide(8);
  Schema schema;
  schema.AddField(Field{"b", DataType::kBool, true});
  schema.AddField(Field{"s", DataType::kString, true});
  Table t("flags", schema);
  ASSERT_TRUE(t.AppendRow({Value(true), Value("7")}).ok());
  ASSERT_TRUE(t.AppendRow({Value(false), Value::Null()}).ok());
  const std::vector<AggSpec> aggs = {AggSpec{AggFn::kSum, "b", "sb"},
                                     AggSpec{AggFn::kSum, "s", "ss"}};
  ExpectSameOutcome(
      "Aggregate", [&] { return reference::Aggregate(t, {}, aggs); },
      [&](const ExecOptions& o) { return Aggregate(t, {}, aggs, o); },
      &serial, &wide);
  for (const Result<Table>& out :
       {reference::Aggregate(t, {}, aggs), Aggregate(t, {}, aggs, {&wide})}) {
    ASSERT_TRUE(out.ok());
    for (size_t c = 0; c < 2; ++c) {
      EXPECT_EQ(out->schema().field(c).type, DataType::kDouble);
      ASSERT_TRUE(out->at(0, c).is_double()) << out->at(0, c).ToString();
      EXPECT_EQ(out->at(0, c).as_double(), 0.0);
    }
  }
  Table empty("empty", schema);
  for (const Result<Table>& out : {reference::Aggregate(empty, {}, aggs),
                                   Aggregate(empty, {}, aggs, {&wide})}) {
    ASSERT_TRUE(out.ok());
    EXPECT_TRUE(out->at(0, 0).is_null());
    EXPECT_TRUE(out->at(0, 1).is_null());
  }
}

/// Int64 values past 2^53 compare *by double* (Value semantics: 2^53 and
/// 2^53+1 are equal, hash equal, and sort as duplicates). The vectorized
/// engine must reproduce this everywhere it short-cuts through typed lanes:
/// filter comparisons, sort keys, group keys, join keys. Comparison-only —
/// no arithmetic — so nothing can overflow.
TEST(QueryVecDifferentialTest, HugeInt64sUseDoubleComparisonSemantics) {
  ThreadPool serial(1);
  ThreadPool wide(8);
  constexpr int64_t kBig = int64_t{1} << 53;
  Schema schema;
  schema.AddField(Field{"v", DataType::kInt64, true});
  Table t("big", schema);
  const int64_t vals[] = {kBig,     kBig + 1, kBig - 1, -kBig, -kBig - 1,
                          kBig + 1, 3,        -3,       0,     kBig};
  for (int64_t v : vals) {
    ASSERT_TRUE(t.AppendRow({Value(v)}).ok());
  }
  ExprPtr pred = Expr::Compare(CmpOp::kGe, Expr::Column("v"),
                               Expr::Literal(Value(kBig + 1)));
  ExpectSameOutcome(
      "Filter", [&] { return reference::Filter(t, *pred); },
      [&](const ExecOptions& o) { return Filter(t, *pred, o); }, &serial,
      &wide);
  ExpectSameOutcome(
      "Sort", [&] { return reference::Sort(t, "v", true); },
      [&](const ExecOptions&) { return Sort(t, "v", true); }, &serial, &wide);
  const std::vector<AggSpec> aggs = {AggSpec{AggFn::kCount, "", "n"},
                                     AggSpec{AggFn::kMin, "v", "lo"}};
  ExpectSameOutcome(
      "Aggregate", [&] { return reference::Aggregate(t, {"v"}, aggs); },
      [&](const ExecOptions& o) { return Aggregate(t, {"v"}, aggs, o); },
      &serial, &wide);
  ExpectSameOutcome(
      "HashJoin",
      [&] {
        return reference::HashJoin(t, t, "v", "v", JoinType::kInner);
      },
      [&](const ExecOptions& o) {
        return HashJoin(t, t, "v", "v", JoinType::kInner, o);
      },
      &serial, &wide);
}

/// Double summation must be bit-identical across thread counts: partials
/// are merged in morsel order regardless of which thread computed them.
TEST(QueryVecDeterminismTest, ParallelDoubleSumsAreBitIdentical) {
  ThreadPool serial(1);
  ThreadPool wide(8);
  Rng rng(1234);
  Schema schema;
  schema.AddField(Field{"g", DataType::kInt64, true});
  schema.AddField(Field{"v", DataType::kDouble, true});
  Table t("sums", schema);
  const size_t rows = 3 * kMorselSize + 17;  // multiple uneven morsels
  t.Reserve(rows);
  for (size_t r = 0; r < rows; ++r) {
    ASSERT_TRUE(t.AppendRow({Value(rng.Between(0, 5)),
                             Value(rng.NextDouble() * 1e6 - 5e5)})
                    .ok());
  }
  const std::vector<AggSpec> aggs = {AggSpec{AggFn::kSum, "v", "s"},
                                     AggSpec{AggFn::kAvg, "v", "m"}};
  auto a = Aggregate(t, {"g"}, aggs, {&serial});
  auto b = Aggregate(t, {"g"}, aggs, {&wide});
  auto ref = reference::Aggregate(t, {"g"}, aggs);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_TRUE(ref.ok());
  EXPECT_TRUE(BitIdentical(*a, *b));
  EXPECT_TRUE(BitIdentical(*ref, *a));
}

// --------------------------------------------------------------- zone maps

/// The pruning differential: Filter with a zone map must agree with the
/// reference interpreter on ok-ness and bits for random tables and
/// predicates — including predicates whose evaluation errors (arithmetic on
/// strings, NOT on numbers) and chunks containing NaN. Pruning that skipped
/// an erroring morsel, or trusted a NaN-poisoned range, would diverge here.
TEST(ZoneMapDifferentialTest, PrunedFilterMatchesReference) {
  ThreadPool serial(1);
  ThreadPool wide(8);
  // Sizes chosen to exercise multi-chunk maps (kMorselSize = 2048) and the
  // ragged final chunk.
  const size_t kSizes[] = {0, 1, 100, 2048, 2049, 4500, 6144};
  size_t pruned_total = 0;
  for (uint64_t seed = 0; seed < 70; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed * 104729 + 3);
    Table t = FuzzTable(rng, kSizes[seed % 7], "fuzz");
    const ZoneMap zones = ZoneMap::Build(t);
    ASSERT_EQ(zones.num_chunks(), NumMorsels(t.num_rows()));
    std::vector<std::string> cols = t.schema().FieldNames();
    for (int i = 0; i < 4; ++i) {
      ExprPtr pred = RandomExpr(rng, cols, 3);
      SCOPED_TRACE("pred " + pred->ToString());
      Result<Table> ref = reference::Filter(t, *pred);
      for (ThreadPool* pool : {&serial, &wide}) {
        FilterExecStats stats;
        Result<Table> got =
            Filter(t, *pred, &zones, PoolOpts(pool), &stats);
        ASSERT_EQ(ref.ok(), got.ok()) << "ok-ness diverges under pruning";
        if (ref.ok()) {
          EXPECT_TRUE(BitIdentical(*ref, *got));
        }
        pruned_total += stats.morsels_pruned;
      }
    }
  }
  // The sweep must actually exercise the pruned path, not just fall back
  // to kMaybe everywhere.
  EXPECT_GT(pruned_total, 0u);
}

TEST(ZoneMapTest, BuildComputesPerChunkStats) {
  Schema schema;
  schema.AddField(Field{"id", DataType::kInt64, true});
  schema.AddField(Field{"x", DataType::kDouble, true});
  Table t("zt", schema);
  const size_t rows = kMorselSize + 10;
  for (size_t r = 0; r < rows; ++r) {
    ASSERT_TRUE(t.AppendRow({Value(static_cast<int64_t>(r)),
                             r == 5 ? Value::Null() : Value(1.5)})
                    .ok());
  }
  const ZoneMap zones = ZoneMap::Build(t);
  ASSERT_EQ(zones.num_chunks(), 2u);
  ASSERT_EQ(zones.num_columns(), 2u);
  const ZoneStats& id0 = zones.stats(0, 0);
  EXPECT_EQ(id0.min, Value(int64_t{0}));
  EXPECT_EQ(id0.max, Value(static_cast<int64_t>(kMorselSize - 1)));
  EXPECT_EQ(id0.null_count, 0u);
  EXPECT_TRUE(id0.has_values);
  const ZoneStats& x0 = zones.stats(0, 1);
  EXPECT_EQ(x0.null_count, 1u);
  const ZoneStats& id1 = zones.stats(1, 0);
  EXPECT_EQ(id1.min, Value(static_cast<int64_t>(kMorselSize)));
  EXPECT_EQ(id1.row_count, 10u);
}

TEST(ZoneMapTest, Int64BoundsAreExactPast2To53) {
  // 2^53 and 2^53 + 1 are one double; their bounds are still exact.
  constexpr int64_t k2To53 = int64_t{1} << 53;
  Schema schema;
  schema.AddField(Field{"up", DataType::kInt64, true});
  schema.AddField(Field{"down", DataType::kInt64, true});
  Table t("big", schema);
  ASSERT_TRUE(t.AppendRow({Value(k2To53), Value(k2To53 + 1)}).ok());
  ASSERT_TRUE(t.AppendRow({Value(k2To53 + 1), Value(k2To53)}).ok());
  const ZoneMap zones = ZoneMap::Build(t);
  ASSERT_EQ(zones.num_chunks(), 1u);
  const ZoneStats& up = zones.stats(0, 0);
  EXPECT_EQ(up.min.as_int(), k2To53);
  EXPECT_EQ(up.max.as_int(), k2To53 + 1);
  const ZoneStats& down = zones.stats(0, 1);
  EXPECT_EQ(down.min.as_int(), k2To53);
  EXPECT_EQ(down.max.as_int(), k2To53 + 1);
}

TEST(ZoneMapTest, ClusteredPredicatePrunesAndSelectsWholesale) {
  Schema schema;
  schema.AddField(Field{"id", DataType::kInt64, true});
  Table t("ids", schema);
  const size_t rows = 4 * kMorselSize;
  for (size_t r = 0; r < rows; ++r) {
    ASSERT_TRUE(t.AppendRow({Value(static_cast<int64_t>(r))}).ok());
  }
  const ZoneMap zones = ZoneMap::Build(t);
  ThreadPool serial(1);

  // Point predicate: only chunk 0 can match; 3 of 4 morsels pruned.
  ExprPtr point = Expr::Compare(CmpOp::kEq, Expr::Column("id"),
                                Expr::Literal(Value(int64_t{7})));
  FilterExecStats stats;
  Result<Table> r1 = Filter(t, *point, &zones, PoolOpts(&serial), &stats);
  ASSERT_TRUE(r1.ok());
  EXPECT_EQ(r1->num_rows(), 1u);
  EXPECT_EQ(stats.morsels_total, 4u);
  EXPECT_EQ(stats.morsels_pruned, 3u);

  // Always-true predicate: every morsel selected without evaluation.
  ExprPtr all = Expr::Compare(CmpOp::kGe, Expr::Column("id"),
                              Expr::Literal(Value(int64_t{0})));
  FilterExecStats all_stats;
  Result<Table> r2 = Filter(t, *all, &zones, PoolOpts(&serial), &all_stats);
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(r2->num_rows(), rows);
  EXPECT_EQ(all_stats.morsels_selected, 4u);
  EXPECT_EQ(all_stats.morsels_pruned, 0u);
  EXPECT_TRUE(BitIdentical(*reference::Filter(t, *all), *r2));
}

TEST(ZoneMapTest, NaNChunkIsNeverPruned) {
  Schema schema;
  schema.AddField(Field{"x", DataType::kDouble, true});
  Table t("nan", schema);
  ASSERT_TRUE(t.AppendRow({Value(1.0)}).ok());
  ASSERT_TRUE(t.AppendRow({Value(std::nan(""))}).ok());
  ASSERT_TRUE(t.AppendRow({Value(3.0)}).ok());
  const ZoneMap zones = ZoneMap::Build(t);
  EXPECT_TRUE(zones.stats(0, 0).unordered);
  // x > 100 looks always-false by [min, max], but the NaN row makes the
  // range untrusted: the chunk must be evaluated, and the result must
  // match the reference exactly.
  ExprPtr pred = Expr::Compare(CmpOp::kGt, Expr::Column("x"),
                               Expr::Literal(Value(100.0)));
  ThreadPool serial(1);
  FilterExecStats stats;
  Result<Table> got = Filter(t, *pred, &zones, PoolOpts(&serial), &stats);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(stats.morsels_pruned, 0u);
  EXPECT_TRUE(BitIdentical(*reference::Filter(t, *pred), *got));
}

TEST(ZoneMapTest, ErroringPredicateIsNotPruned) {
  Schema schema;
  schema.AddField(Field{"s", DataType::kString, true});
  Table t("strs", schema);
  ASSERT_TRUE(t.AppendRow({Value("a")}).ok());
  const ZoneMap zones = ZoneMap::Build(t);
  // s + 1 errors on every row; the zone map must not "prune away" the
  // error (the range of an arithmetic node is unknown and poisoned).
  ExprPtr pred = Expr::Compare(
      CmpOp::kGt,
      Expr::Arith(ArithOp::kAdd, Expr::Column("s"),
                  Expr::Literal(Value(int64_t{1}))),
      Expr::Literal(Value(int64_t{0})));
  ThreadPool serial(1);
  Result<Table> got = Filter(t, *pred, &zones, PoolOpts(&serial), nullptr);
  Result<Table> ref = reference::Filter(t, *pred);
  EXPECT_EQ(ref.ok(), got.ok());
  EXPECT_FALSE(got.ok());
}

TEST(ZoneMapTest, MismatchedZoneMapIsIgnored) {
  Schema schema;
  schema.AddField(Field{"id", DataType::kInt64, true});
  Table t("ids", schema);
  for (int r = 0; r < 10; ++r) {
    ASSERT_TRUE(t.AppendRow({Value(static_cast<int64_t>(r))}).ok());
  }
  Table other("other", schema);  // zero rows: zone map cannot line up
  const ZoneMap stale = ZoneMap::Build(other);
  ExprPtr pred = Expr::Compare(CmpOp::kLt, Expr::Column("id"),
                               Expr::Literal(Value(int64_t{3})));
  ThreadPool serial(1);
  FilterExecStats stats;
  Result<Table> got = Filter(t, *pred, &stale, PoolOpts(&serial), &stats);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got->num_rows(), 3u);
  EXPECT_EQ(stats.morsels_pruned, 0u);
  EXPECT_EQ(stats.morsels_selected, 0u);
}

}  // namespace
}  // namespace lakekit::query
