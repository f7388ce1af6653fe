#ifndef LAKEKIT_QUERY_VEC_H_
#define LAKEKIT_QUERY_VEC_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "common/result.h"
#include "query/expr.h"
#include "table/schema.h"
#include "table/table.h"
#include "table/value.h"

namespace lakekit::query {

/// Vectorized execution core (DESIGN.md §7).
///
/// The row-at-a-time interpreter (`query/reference_ops.h`) pays a
/// `std::variant` dispatch plus a `std::vector<Value>` materialization per
/// cell. The vectorized engine instead processes *morsels* of `kMorselSize`
/// rows at a time: each expression node is compiled once against the schema
/// (column indexes and lane types resolved up front), and evaluation runs
/// tight per-column loops over typed lanes — a Table's cells always hold
/// their field's type, so a column always loads into its schema type's
/// lane. Predicates produce *selection vectors* — sorted row indexes — that
/// operators gather column-wise, so accepted rows are never materialized as
/// row vectors.

/// Rows per morsel. Fixed (not tunable) because the floating-point
/// aggregation order — and therefore the bit pattern of SUM/AVG over double
/// columns — is defined in terms of per-morsel partials merged in morsel
/// order (see DESIGN.md §7: determinism contract).
inline constexpr size_t kMorselSize = 2048;

/// A selection vector: ascending absolute row indexes into the input table.
/// uint32 keys the engine to tables under 2^32 rows, which also halves the
/// gather working set.
using SelVector = std::vector<uint32_t>;

/// A batch of expression results in columnar form: `nulls` plus the one
/// typed lane (`b8`/`i64`/`f64`/`str`) that `type` selects. `scalar` marks
/// a broadcast value (literals, constant folds): lanes have size 1
/// regardless of the morsel size.
struct Vec {
  table::DataType type = table::DataType::kNull;  // kNull => every row NULL
  bool scalar = false;
  std::vector<uint8_t> nulls;            // 1 = NULL
  std::vector<uint8_t> b8;               // type == kBool
  std::vector<int64_t> i64;              // type == kInt64
  std::vector<double> f64;               // type == kDouble
  std::vector<std::string_view> str;     // type == kString; views into stable
                                         // storage (table cells or literals)
};

/// Three-valued verdict of a predicate over a whole chunk of rows, from
/// zone-map statistics alone (query/zone_map.h):
///   - kAlwaysFalse: no row in the chunk can satisfy the predicate (NULL and
///     non-boolean results count as "not satisfied", matching filter
///     semantics) — the morsel is skipped without touching any lane.
///   - kAlwaysTrue: every row satisfies it — the whole morsel is selected
///     without evaluation.
///   - kMaybe: the statistics cannot decide; evaluate normally. This is the
///     sound fallback: any expression whose evaluation could *error* (e.g.
///     arithmetic on a possibly-non-numeric column) reports kMaybe so the
///     pruned path fails exactly when the reference interpreter fails.
enum class RangeTruth { kAlwaysFalse, kAlwaysTrue, kMaybe };

struct ZoneStats;  // query/zone_map.h

/// The engine's one cell rule (DESIGN.md §7). `CellRule<T>` defines, for
/// the non-NULL payloads of one lane type T (bool, int64_t, double or
/// std::string_view): the Vec lane that holds them (`kLane`), how one is
/// read from a table cell (`Get`, nullptr for NULL), their rank in the
/// cross-type order (`kRank`), when two are equal (`Eq`) and ordered
/// (`Less`), and their morsel-local `Hash`. Every kernel instantiates it;
/// what a NULL means stays with each kernel's SQL semantics.
///
/// The rule mirrors `Value`'s: NULL < bool < numeric < string, numerics
/// through double (int64 2^53 equals 2^53 + 1), NaN equal to nothing.
/// `Value`'s operators stay separate on purpose: they are the reference
/// the differential suite checks this rule against, and HashJoin,
/// Aggregate's cross-morsel merge and zone-map pruning use them directly.
///
/// `Hash` only promises that Eq-equal payloads hash equal, which trades
/// `Value::Hash`'s bit pattern for speed (a string hashes its length and
/// first eight bytes): a hash built from it must never cross a morsel
/// boundary.
template <typename T>
struct CellRule;

template <>
struct CellRule<bool> {
  using Payload = bool;
  static constexpr auto kLane = &Vec::b8;
  static constexpr int kRank = 1;
  static const bool* Get(const table::Value& v) { return v.get_bool(); }
  static bool Eq(bool a, bool b) { return a == b; }
  static bool Less(bool a, bool b) { return !a && b; }
  static uint64_t Hash(bool b) { return b ? 0x74727565ULL : 0x66616c73ULL; }
};

template <>
struct CellRule<double> {
  using Payload = double;
  static constexpr auto kLane = &Vec::f64;
  static constexpr int kRank = 2;
  static const double* Get(const table::Value& v) { return v.get_double(); }
  static bool Eq(double a, double b) { return a == b; }
  static bool Less(double a, double b) { return a < b; }
  /// -0.0 hashes as 0.0, which it equals.
  static uint64_t Hash(double d);
};

template <>
struct CellRule<int64_t> {
  using Payload = int64_t;
  static constexpr auto kLane = &Vec::i64;
  static constexpr int kRank = 2;
  static const int64_t* Get(const table::Value& v) { return v.get_int(); }
  static bool Eq(int64_t a, int64_t b) {
    return static_cast<double>(a) == static_cast<double>(b);
  }
  static bool Less(int64_t a, int64_t b) {
    return static_cast<double>(a) < static_cast<double>(b);
  }
  static uint64_t Hash(int64_t v) {
    return CellRule<double>::Hash(static_cast<double>(v));
  }
};

template <>
struct CellRule<std::string_view> {
  using Payload = std::string_view;
  static constexpr auto kLane = &Vec::str;
  static constexpr int kRank = 3;
  static const std::string* Get(const table::Value& v) {
    return v.get_string();
  }
  static bool Eq(std::string_view a, std::string_view b) {
    if (a.size() != b.size()) return false;
    // Byte loop for short strings: operator== lowers to a libc memcmp
    // call, which dominates a 4-byte comparison done once per row.
    if (a.size() <= 16) {
      for (size_t i = 0; i < a.size(); ++i) {
        if (a[i] != b[i]) return false;
      }
      return true;
    }
    return a == b;
  }
  static bool Less(std::string_view a, std::string_view b) { return a < b; }
  static uint64_t Hash(std::string_view s);
};

/// The morsel-local hash of a NULL cell.
inline constexpr uint64_t kNullCellHash = 0x6e756c6cULL;

/// The rule across two lane types, which only EvalCompare meets: payloads
/// of different ranks compare by rank alone, and a mixed int64/double pair
/// compares as double.
template <typename A, typename B>
bool CellEq(const A& a, const B& b) {
  if constexpr (CellRule<A>::kRank != CellRule<B>::kRank) {
    return false;
  } else if constexpr (std::is_same_v<A, B>) {
    return CellRule<A>::Eq(a, b);
  } else {
    return CellRule<double>::Eq(static_cast<double>(a),
                                static_cast<double>(b));
  }
}
template <typename A, typename B>
bool CellLess(const A& a, const B& b) {
  if constexpr (CellRule<A>::kRank != CellRule<B>::kRank) {
    return CellRule<A>::kRank < CellRule<B>::kRank;
  } else if constexpr (std::is_same_v<A, B>) {
    return CellRule<A>::Less(a, b);
  } else {
    return CellRule<double>::Less(static_cast<double>(a),
                                  static_cast<double>(b));
  }
}

/// Calls `fn(CellRule<T>{})` for the payload type T of lane type `type`
/// and returns what it returns. A kNull lane holds only NULLs, so no
/// kernel reads a payload from it: it visits as bool.
template <typename Fn>
decltype(auto) VisitCellRule(table::DataType type, Fn&& fn) {
  switch (type) {
    case table::DataType::kInt64:
      return fn(CellRule<int64_t>{});
    case table::DataType::kDouble:
      return fn(CellRule<double>{});
    case table::DataType::kString:
      return fn(CellRule<std::string_view>{});
    case table::DataType::kNull:
    case table::DataType::kBool:
      break;
  }
  return fn(CellRule<bool>{});
}

/// An Expr compiled against a schema: column references are resolved to
/// indexes (and their schema lane types) once, so evaluation never touches
/// column names or per-cell type sniffing on the hot path. Unknown columns
/// fail at compile time with the same NotFound the interpreter raises.
///
/// The compiled form borrows nothing from the source Expr (literals are
/// copied), but evaluation results may view into the *input table's* string
/// cells, so the table must outlive any Vec produced from it.
class CompiledExpr {
 public:
  static Result<CompiledExpr> Compile(const Expr& expr,
                                      const table::Schema& schema);

  /// Evaluates the expression over rows [begin, end) of `input`.
  Result<Vec> EvalBatch(const table::Table& input, size_t begin,
                        size_t end) const;

  /// Appends to `out` the indexes of rows in [begin, end) where the
  /// expression is non-NULL boolean true (filter semantics).
  Status EvalSelection(const table::Table& input, size_t begin, size_t end,
                       SelVector* out) const;

  /// Conservative three-valued evaluation over one chunk's zone statistics
  /// (`cols` holds `num_cols` ZoneStats, indexed by the schema column index
  /// this expression was compiled against). Sound by construction: the
  /// verdict only strengthens to kAlwaysFalse/kAlwaysTrue when *every*
  /// possible row in the chunk provably evaluates that way under the exact
  /// engine semantics (Value total order, SQL NULL logic, filter truthiness)
  /// and evaluation provably cannot error. See DESIGN.md §9.3 for the
  /// soundness argument.
  RangeTruth EvaluateRange(const ZoneStats* cols, size_t num_cols) const;

 private:
  struct Node {
    Expr::Kind kind = Expr::Kind::kLiteral;
    table::Value literal;
    size_t column = 0;
    table::DataType column_type = table::DataType::kString;
    CmpOp cmp = CmpOp::kEq;
    LogicalOp logical = LogicalOp::kAnd;
    ArithOp arith = ArithOp::kAdd;
    int left = -1;
    int right = -1;
  };

  Result<Vec> EvalNode(int node, const table::Table& input, size_t begin,
                       size_t end) const;

  /// Abstract value of a subexpression over a chunk (defined in vec.cc).
  struct RangeInfo;
  RangeInfo RangeNode(int node, const ZoneStats* cols, size_t num_cols) const;

  static Result<int> CompileNode(const Expr& expr, const table::Schema& schema,
                                 std::vector<Node>* nodes);

  std::vector<Node> nodes_;  // post-order; root last
};

/// Loads rows [begin, end) of column `col`, whose field type is
/// `schema_type`, into that type's lane.
Vec LoadColumn(const table::Table& input, size_t col,
               table::DataType schema_type, size_t begin, size_t end);

/// Folds `HashCombine(inout[k], hash(cell k))` into `inout[0..n)` with
/// the lane's CellRule hash (so HashLane output is morsel-local too). The
/// lane type dispatch runs once, outside the row loop.
void HashLane(const Vec& lane, size_t n, uint64_t* inout);

/// Number of kMorselSize morsels covering `rows` (0 rows -> 0 morsels).
inline size_t NumMorsels(size_t rows) {
  return (rows + kMorselSize - 1) / kMorselSize;
}

}  // namespace lakekit::query

#endif  // LAKEKIT_QUERY_VEC_H_
