#ifndef LAKEKIT_QUERY_VEC_H_
#define LAKEKIT_QUERY_VEC_H_

#include <cstdint>
#include <string_view>
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

/// A decoded cell: the tag makes cross-type comparison a rank check instead
/// of a variant dispatch. `s` views into storage owned elsewhere.
struct CellRef {
  table::DataType type = table::DataType::kNull;
  bool b = false;
  int64_t i = 0;
  double d = 0;
  std::string_view s;
};

/// Decodes row `k` of `v` (scalars broadcast).
CellRef VecCell(const Vec& v, size_t k);

/// Decodes a table cell into a CellRef (one variant dispatch, done once —
/// e.g. Sort extracts all keys up front and compares tags afterwards).
CellRef DecodeCell(const table::Value& v);

/// Mirror Value's total order / equality exactly (NULL < bool < numeric <
/// string; numerics compare by double across int64/double) so kernels and
/// the reference interpreter agree bit-for-bit.
bool CellLess(const CellRef& a, const CellRef& b);
bool CellEq(const CellRef& a, const CellRef& b);

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

/// Morsel-local cell-hash primitives. CellEq-equal cells hash equal
/// (numerics through double, -0.0 normalized; NULL and the two bools get
/// fixed constants), but these are deliberately NOT Value::Hash — they
/// trade bit-compatibility for speed (strings hash a length-salted 8-byte
/// prefix instead of full FNV). Hashes built from them must never cross a
/// morsel boundary: callers that need cross-morsel identity compute it from
/// materialized key Values (see Aggregate's group materialization).
namespace lanehash {
inline constexpr uint64_t kNull = 0x6e756c6cULL;
inline constexpr uint64_t kTrue = 0x74727565ULL;
inline constexpr uint64_t kFalse = 0x66616c73ULL;
uint64_t Numeric(double d);
uint64_t Prefix(std::string_view s);
}  // namespace lanehash

/// Folds `HashCombine(inout[k], hash(cell k))` into `inout[0..n)`, using
/// the lanehash primitives above (so HashLane output is morsel-local too).
/// The lane type switch runs once, outside the row loop.
void HashLane(const Vec& lane, size_t n, uint64_t* inout);

/// Number of kMorselSize morsels covering `rows` (0 rows -> 0 morsels).
inline size_t NumMorsels(size_t rows) {
  return (rows + kMorselSize - 1) / kMorselSize;
}

}  // namespace lakekit::query

#endif  // LAKEKIT_QUERY_VEC_H_
