#ifndef LAKEKIT_QUERY_EXPR_H_
#define LAKEKIT_QUERY_EXPR_H_

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "table/schema.h"
#include "table/value.h"

namespace lakekit::query {

enum class CmpOp { kEq, kNe, kLt, kLe, kGt, kGe };
enum class LogicalOp { kAnd, kOr };
enum class ArithOp { kAdd, kSub, kMul, kDiv };

class Expr;
using ExprPtr = std::shared_ptr<const Expr>;

/// Deepest expression tree the SQL parser builds (a column or literal has
/// depth 1); deeper input is InvalidArgument. With ExecuteSelect's matching
/// cap on the AND-ed conjuncts it rebuilds into chains, it bounds every
/// recursive walk over a query's predicates: SplitConjuncts, compilation,
/// batch evaluation and zone-map range evaluation.
inline constexpr size_t kMaxExprDepth = 256;

/// A scalar expression tree evaluated per row: literals, column references,
/// comparisons, boolean connectives, arithmetic, IS NULL. The common
/// predicate/projection language of the exploration tier.
///
/// NULL semantics follow SQL three-valued logic collapsed to two values:
/// any comparison or arithmetic with NULL yields NULL, and a NULL predicate
/// result is treated as false by filters.
class Expr {
 public:
  enum class Kind {
    kLiteral,
    kColumn,
    kCompare,
    kLogical,
    kArith,
    kNot,
    kIsNull,
  };

  static ExprPtr Literal(table::Value v);
  static ExprPtr Column(std::string name);
  static ExprPtr Compare(CmpOp op, ExprPtr left, ExprPtr right);
  static ExprPtr Logical(LogicalOp op, ExprPtr left, ExprPtr right);
  static ExprPtr Arith(ArithOp op, ExprPtr left, ExprPtr right);
  static ExprPtr Not(ExprPtr inner);
  static ExprPtr IsNull(ExprPtr inner);

  Kind kind() const { return kind_; }
  const table::Value& literal() const { return literal_; }
  const std::string& column_name() const { return column_; }
  CmpOp cmp_op() const { return cmp_; }
  LogicalOp logical_op() const { return logical_; }
  ArithOp arith_op() const { return arith_; }
  const ExprPtr& left() const { return left_; }
  const ExprPtr& right() const { return right_; }

  /// Evaluates against one row of `schema`. Unknown columns are an error.
  Result<table::Value> Eval(const table::Schema& schema,
                            const std::vector<table::Value>& row) const;

  /// All column names referenced by the expression (with duplicates).
  void CollectColumns(std::vector<std::string>* out) const;

  /// Parenthesized rendering for diagnostics.
  std::string ToString() const;

 private:
  Kind kind_ = Kind::kLiteral;
  table::Value literal_;
  std::string column_;
  CmpOp cmp_ = CmpOp::kEq;
  LogicalOp logical_ = LogicalOp::kAnd;
  ArithOp arith_ = ArithOp::kAdd;
  ExprPtr left_;
  ExprPtr right_;
};

/// True when the predicate evaluates to a non-null, true boolean for the
/// row (filters use this: NULL -> excluded).
Result<bool> EvalPredicate(const Expr& expr, const table::Schema& schema,
                           const std::vector<table::Value>& row);

}  // namespace lakekit::query

#endif  // LAKEKIT_QUERY_EXPR_H_
