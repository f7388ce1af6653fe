#include "query/vec.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "common/hash.h"
#include "query/zone_map.h"

namespace lakekit::query {

using table::DataType;
using table::Table;
using table::Value;

namespace {

/// Index into a Vec's lanes for logical row k.
size_t Lane(const Vec& v, size_t k) { return v.scalar ? 0 : k; }

bool VecIsNull(const Vec& v, size_t k) {
  if (v.type == DataType::kNull) return true;
  return v.nulls[Lane(v, k)] != 0;
}

/// Whether `op` holds given equality/less-than results computed with the
/// exact IEEE semantics Value uses (kLe is !(b < a), so NaN compares "<=").
bool ApplyCmp(CmpOp op, bool eq, bool lt, bool gt) {
  switch (op) {
    case CmpOp::kEq:
      return eq;
    case CmpOp::kNe:
      return !eq;
    case CmpOp::kLt:
      return lt;
    case CmpOp::kLe:
      return !gt;
    case CmpOp::kGt:
      return gt;
    case CmpOp::kGe:
      return !lt;
  }
  return false;
}

Vec MakeBoolVec(size_t rows, bool scalar) {
  Vec out;
  out.type = DataType::kBool;
  out.scalar = scalar;
  out.nulls.assign(rows, 0);
  out.b8.assign(rows, 0);
  return out;
}

/// Three-valued truth of one side of a logical connective, mirroring the
/// interpreter's truthy/falsy lambdas: only non-NULL booleans are truthy or
/// falsy; any other non-NULL value is "other" (neither).
enum class Truth : uint8_t { kFalse, kTrue, kNull, kOther };

Truth TruthOf(const Vec& v, size_t k) {
  if (VecIsNull(v, k)) return Truth::kNull;
  if (v.type != DataType::kBool) return Truth::kOther;
  return v.b8[Lane(v, k)] != 0 ? Truth::kTrue : Truth::kFalse;
}

/// Copies the payloads of cells [in, in + n) into `lane`, flagging the
/// cells `Rule::Get` returns nullptr for — by the Table invariant, exactly
/// the NULL cells. The only per-cell work is one variant index load. The
/// loop runs over raw pointers: the lanes live in the caller's Vec, and
/// through the vectors every null-flag store (a char, which may alias
/// anything) would force a reload of each vector's data pointer.
template <typename Rule, typename LaneVector>
void FillLane(const Value* in, size_t n, LaneVector* lane,
              std::vector<uint8_t>* nulls) {
  lane->resize(n);
  auto* out = lane->data();
  uint8_t* is_null = nulls->data();
  for (size_t k = 0; k < n; ++k) {
    if (const auto* pv = Rule::Get(in[k])) {
      out[k] = *pv;
    } else {
      is_null[k] = 1;
    }
  }
}

/// Loads the `n` cells at `in`, each NULL or of `type`, into the lane
/// `type` selects.
Vec LoadCells(const Value* in, size_t n, DataType type) {
  Vec v;
  v.type = type;
  v.nulls.assign(n, 0);
  VisitCellRule(type, [&](auto rule) {
    FillLane<decltype(rule)>(in, n, &(v.*rule.kLane), &v.nulls);
  });
  return v;
}

}  // namespace

Vec LoadColumn(const Table& input, size_t col, DataType schema_type,
               size_t begin, size_t end) {
  return LoadCells(input.column(col).data() + begin, end - begin,
                   schema_type);
}

uint64_t CellRule<double>::Hash(double d) {
  if (d == 0.0) d = 0.0;  // Normalize -0.0 (Eq: -0.0 == 0.0).
  uint64_t bits;
  static_assert(sizeof(bits) == sizeof(d));
  std::memcpy(&bits, &d, sizeof(bits));
  return Mix64(bits);
}

uint64_t CellRule<std::string_view>::Hash(std::string_view s) {
  uint64_t head = 0;
  if (s.size() >= sizeof(head)) {
    std::memcpy(&head, s.data(), sizeof(head));
  } else {
    // Byte loop for short strings: a variable-length memcpy here compiles
    // to a libc call per row and dominates the hash.
    for (size_t i = 0; i < s.size(); ++i) {
      head |= static_cast<uint64_t>(static_cast<uint8_t>(s[i])) << (8 * i);
    }
  }
  return Mix64(head ^ (static_cast<uint64_t>(s.size()) << 56));
}

void HashLane(const Vec& lane, size_t n, uint64_t* inout) {
  VisitCellRule(lane.type, [&](auto rule) {
    const auto& payload = lane.*rule.kLane;
    for (size_t k = 0; k < n; ++k) {
      const uint64_t h =
          lane.nulls[k] != 0 ? kNullCellHash : rule.Hash(payload[k]);
      inout[k] = HashCombine(inout[k], h);
    }
  });
}

Result<int> CompiledExpr::CompileNode(const Expr& expr,
                                      const table::Schema& schema,
                                      std::vector<Node>* nodes) {
  Node n;
  n.kind = expr.kind();
  switch (expr.kind()) {
    case Expr::Kind::kLiteral:
      n.literal = expr.literal();
      break;
    case Expr::Kind::kColumn: {
      auto idx = schema.IndexOf(expr.column_name());
      if (!idx) {
        return Status::NotFound("unknown column '" + expr.column_name() + "'");
      }
      n.column = *idx;
      n.column_type = schema.field(*idx).type;
      break;
    }
    case Expr::Kind::kCompare: {
      n.cmp = expr.cmp_op();
      LAKEKIT_ASSIGN_OR_RETURN(n.left,
                               CompileNode(*expr.left(), schema, nodes));
      LAKEKIT_ASSIGN_OR_RETURN(n.right,
                               CompileNode(*expr.right(), schema, nodes));
      break;
    }
    case Expr::Kind::kLogical: {
      n.logical = expr.logical_op();
      LAKEKIT_ASSIGN_OR_RETURN(n.left,
                               CompileNode(*expr.left(), schema, nodes));
      LAKEKIT_ASSIGN_OR_RETURN(n.right,
                               CompileNode(*expr.right(), schema, nodes));
      break;
    }
    case Expr::Kind::kArith: {
      n.arith = expr.arith_op();
      LAKEKIT_ASSIGN_OR_RETURN(n.left,
                               CompileNode(*expr.left(), schema, nodes));
      LAKEKIT_ASSIGN_OR_RETURN(n.right,
                               CompileNode(*expr.right(), schema, nodes));
      break;
    }
    case Expr::Kind::kNot:
    case Expr::Kind::kIsNull: {
      LAKEKIT_ASSIGN_OR_RETURN(n.left,
                               CompileNode(*expr.left(), schema, nodes));
      break;
    }
  }
  nodes->push_back(std::move(n));
  return static_cast<int>(nodes->size() - 1);
}

Result<CompiledExpr> CompiledExpr::Compile(const Expr& expr,
                                           const table::Schema& schema) {
  CompiledExpr compiled;
  LAKEKIT_ASSIGN_OR_RETURN(int root,
                           CompileNode(expr, schema, &compiled.nodes_));
  (void)root;  // ignore: the root is by construction the last node.
  return compiled;
}

namespace {

Vec EvalLiteral(const Value& literal) {
  // A string lane views the literal owned by the compiled node;
  // CompiledExpr outlives every Vec it produces.
  Vec v = LoadCells(&literal, 1, literal.type());
  v.scalar = true;
  return v;
}

bool IsNumericLane(const Vec& v) {
  return v.type == DataType::kInt64 || v.type == DataType::kDouble;
}

/// `op` over every row of a left lane of payload type A and a right lane
/// of payload type B: one monomorphic loop per lane-type pair.
template <typename A, typename B>
void CompareRows(CmpOp op, const Vec& l, const Vec& r, Vec* out) {
  const auto& left = l.*CellRule<A>::kLane;
  const auto& right = r.*CellRule<B>::kLane;
  for (size_t k = 0; k < out->nulls.size(); ++k) {
    if (VecIsNull(l, k) || VecIsNull(r, k)) {
      out->nulls[k] = 1;
      continue;
    }
    const A a = left[Lane(l, k)];
    const B b = right[Lane(r, k)];
    out->b8[k] =
        ApplyCmp(op, CellEq(a, b), CellLess(a, b), CellLess(b, a)) ? 1 : 0;
  }
}

Vec EvalCompare(CmpOp op, const Vec& l, const Vec& r, size_t n) {
  const bool scalar = l.scalar && r.scalar;
  Vec out = MakeBoolVec(scalar ? 1 : n, scalar);
  VisitCellRule(l.type, [&](auto lrule) {
    VisitCellRule(r.type, [&](auto rrule) {
      CompareRows<typename decltype(lrule)::Payload,
                  typename decltype(rrule)::Payload>(op, l, r, &out);
    });
  });
  return out;
}

Vec EvalLogical(LogicalOp op, const Vec& l, const Vec& r, size_t n) {
  const bool scalar = l.scalar && r.scalar;
  const size_t rows = scalar ? 1 : n;
  Vec out = MakeBoolVec(rows, scalar);
  for (size_t k = 0; k < rows; ++k) {
    const Truth a = TruthOf(l, k);
    const Truth b = TruthOf(r, k);
    if (op == LogicalOp::kAnd) {
      if (a == Truth::kFalse || b == Truth::kFalse) {
        out.b8[k] = 0;
      } else if (a == Truth::kNull || b == Truth::kNull) {
        out.nulls[k] = 1;
      } else {
        out.b8[k] = (a == Truth::kTrue && b == Truth::kTrue) ? 1 : 0;
      }
    } else {
      if (a == Truth::kTrue || b == Truth::kTrue) {
        out.b8[k] = 1;
      } else if (a == Truth::kNull || b == Truth::kNull) {
        out.nulls[k] = 1;
      } else {
        out.b8[k] = 0;
      }
    }
  }
  return out;
}

Result<Vec> EvalArith(ArithOp op, const Vec& l, const Vec& r, size_t n) {
  const bool scalar = l.scalar && r.scalar;
  const size_t rows = scalar ? 1 : n;
  // Integer fast lane: int64 (+,-,*) stays integral, exactly like the
  // interpreter.
  if (l.type == DataType::kInt64 && r.type == DataType::kInt64 &&
      op != ArithOp::kDiv) {
    Vec out;
    out.type = DataType::kInt64;
    out.scalar = scalar;
    out.nulls.assign(rows, 0);
    out.i64.assign(rows, 0);
    for (size_t k = 0; k < rows; ++k) {
      if (VecIsNull(l, k) || VecIsNull(r, k)) {
        out.nulls[k] = 1;
        continue;
      }
      const int64_t a = l.i64[Lane(l, k)];
      const int64_t b = r.i64[Lane(r, k)];
      switch (op) {
        case ArithOp::kAdd:
          out.i64[k] = a + b;
          break;
        case ArithOp::kSub:
          out.i64[k] = a - b;
          break;
        case ArithOp::kMul:
          out.i64[k] = a * b;
          break;
        case ArithOp::kDiv:
          break;
      }
    }
    return out;
  }
  // Double lane: both operands are numeric typed lanes.
  if (IsNumericLane(l) && IsNumericLane(r)) {
    Vec out;
    out.type = DataType::kDouble;
    out.scalar = scalar;
    out.nulls.assign(rows, 0);
    out.f64.assign(rows, 0);
    const bool li = l.type == DataType::kInt64;
    const bool ri = r.type == DataType::kInt64;
    for (size_t k = 0; k < rows; ++k) {
      if (VecIsNull(l, k) || VecIsNull(r, k)) {
        out.nulls[k] = 1;
        continue;
      }
      const double a = li ? static_cast<double>(l.i64[Lane(l, k)])
                          : l.f64[Lane(l, k)];
      const double b = ri ? static_cast<double>(r.i64[Lane(r, k)])
                          : r.f64[Lane(r, k)];
      switch (op) {
        case ArithOp::kAdd:
          out.f64[k] = a + b;
          break;
        case ArithOp::kSub:
          out.f64[k] = a - b;
          break;
        case ArithOp::kMul:
          out.f64[k] = a * b;
          break;
        case ArithOp::kDiv:
          if (b == 0) {
            out.nulls[k] = 1;
          } else {
            out.f64[k] = a / b;
          }
          break;
      }
    }
    return out;
  }
  // A bool, string or all-NULL operand: NULL where either side is NULL,
  // the interpreter's type error anywhere else.
  Vec out;
  out.scalar = scalar;
  out.nulls.assign(rows, 1);
  for (size_t k = 0; k < rows; ++k) {
    if (!VecIsNull(l, k) && !VecIsNull(r, k)) {
      return Status::InvalidArgument("arithmetic on non-numeric values");
    }
  }
  return out;
}

Result<Vec> EvalNot(const Vec& v, size_t n) {
  const size_t rows = v.scalar ? 1 : n;
  Vec out = MakeBoolVec(rows, v.scalar);
  for (size_t k = 0; k < rows; ++k) {
    if (VecIsNull(v, k)) {
      out.nulls[k] = 1;
      continue;
    }
    const Truth t = TruthOf(v, k);
    if (t == Truth::kOther) {
      return Status::InvalidArgument("NOT on non-boolean value");
    }
    out.b8[k] = t == Truth::kTrue ? 0 : 1;
  }
  return out;
}

Vec EvalIsNull(const Vec& v, size_t n) {
  const size_t rows = v.scalar ? 1 : n;
  Vec out = MakeBoolVec(rows, v.scalar);
  for (size_t k = 0; k < rows; ++k) {
    out.b8[k] = VecIsNull(v, k) ? 1 : 0;
  }
  return out;
}

}  // namespace

Result<Vec> CompiledExpr::EvalNode(int node, const Table& input, size_t begin,
                                   size_t end) const {
  const Node& n = nodes_[node];
  const size_t rows = end - begin;
  switch (n.kind) {
    case Expr::Kind::kLiteral:
      return EvalLiteral(n.literal);
    case Expr::Kind::kColumn:
      return LoadColumn(input, n.column, n.column_type, begin, end);
    case Expr::Kind::kCompare: {
      LAKEKIT_ASSIGN_OR_RETURN(Vec l, EvalNode(n.left, input, begin, end));
      LAKEKIT_ASSIGN_OR_RETURN(Vec r, EvalNode(n.right, input, begin, end));
      return EvalCompare(n.cmp, l, r, rows);
    }
    case Expr::Kind::kLogical: {
      LAKEKIT_ASSIGN_OR_RETURN(Vec l, EvalNode(n.left, input, begin, end));
      LAKEKIT_ASSIGN_OR_RETURN(Vec r, EvalNode(n.right, input, begin, end));
      return EvalLogical(n.logical, l, r, rows);
    }
    case Expr::Kind::kArith: {
      LAKEKIT_ASSIGN_OR_RETURN(Vec l, EvalNode(n.left, input, begin, end));
      LAKEKIT_ASSIGN_OR_RETURN(Vec r, EvalNode(n.right, input, begin, end));
      return EvalArith(n.arith, l, r, rows);
    }
    case Expr::Kind::kNot: {
      LAKEKIT_ASSIGN_OR_RETURN(Vec v, EvalNode(n.left, input, begin, end));
      return EvalNot(v, rows);
    }
    case Expr::Kind::kIsNull: {
      LAKEKIT_ASSIGN_OR_RETURN(Vec v, EvalNode(n.left, input, begin, end));
      return EvalIsNull(v, rows);
    }
  }
  return Status::Internal("unreachable expression kind");
}

Result<Vec> CompiledExpr::EvalBatch(const Table& input, size_t begin,
                                    size_t end) const {
  return EvalNode(static_cast<int>(nodes_.size()) - 1, input, begin, end);
}

/// What a subexpression could produce over any row of a chunk, per the zone
/// statistics — the abstract domain of EvaluateRange. Two views are kept in
/// sync: a *value range* ([lo, hi] under Value's total order, plus null
/// flags) feeding comparisons, and a *truth set* (can the value be truthy /
/// falsy / NULL / non-boolean) feeding logical connectives and the root
/// verdict. `can_error` poisons everything: a chunk whose evaluation might
/// fail must be evaluated for real, or the pruned path's ok-ness would
/// diverge from the reference interpreter's.
struct CompiledExpr::RangeInfo {
  // Value-range view. `range_known` false means "any value at all".
  bool range_known = false;
  Value lo;               // valid iff range_known && can_value
  Value hi;
  bool can_value = true;  // some row yields a non-NULL value
  bool can_null = true;   // some row yields NULL
  bool unordered = false; // NaN possible: comparisons against it untrusted
  bool can_error = false; // evaluation might return a Status error

  // Truth-set view (filter-operand semantics; kOther = non-boolean value).
  bool can_true = true;
  bool can_false = true;
  bool can_other = true;

  static RangeInfo Unknown(bool may_error) {
    RangeInfo r;
    r.can_error = may_error;
    return r;
  }

  /// Rebuilds the truth set from the value-range view (used after the range
  /// is narrowed). A non-NULL value is truthy iff it is boolean true, falsy
  /// iff boolean false, "other" otherwise.
  void DeriveTruthFromRange() {
    can_true = can_false = can_other = false;
    if (!can_value) return;
    if (!range_known || unordered) {
      can_true = can_false = can_other = true;
      return;
    }
    const Value vfalse(false);
    const Value vtrue(true);
    // [lo, hi] contains false/true iff the endpoint comparisons admit it.
    can_false = !(vfalse < lo) && !(hi < vfalse);
    can_true = !(vtrue < lo) && !(hi < vtrue);
    // The interval lies entirely inside the bool rank iff both endpoints are
    // bools (NULL < bool < numeric < string — nothing interleaves).
    can_other = !(lo.is_bool() && hi.is_bool());
  }

  /// Builds a boolean-result RangeInfo from a truth set (comparisons and
  /// connectives produce only bool or NULL).
  static RangeInfo FromTruth(bool t, bool f, bool null, bool error) {
    RangeInfo r;
    r.can_true = t;
    r.can_false = f;
    r.can_other = false;
    r.can_null = null;
    r.can_error = error;
    r.can_value = t || f;
    r.range_known = true;
    if (r.can_value) {
      r.lo = Value(!f);  // false < true, so lo is false when f is possible
      r.hi = Value(t);
    }
    return r;
  }

  /// Truth set of one comparison over two value ranges. Uses the interval
  /// endpoints under Value's total order — the same order CellLess/CellEq
  /// mirror — so "∃ a∈[l.lo,l.hi], b∈[r.lo,r.hi] with a op b" reduces to
  /// endpoint comparisons.
  static RangeInfo Compare(CmpOp op, const RangeInfo& l, const RangeInfo& r);

  /// Truth set of a logical connective, enumerating the operands' possible
  /// truth values through the exact EvalLogical table (kOther counts as
  /// neither-true-nor-false-nor-null: AND(other, true) is false, never an
  /// error).
  static RangeInfo Logical(LogicalOp op, const RangeInfo& l,
                           const RangeInfo& r);
};

CompiledExpr::RangeInfo CompiledExpr::RangeInfo::Compare(CmpOp op,
                                                         const RangeInfo& l,
                                                         const RangeInfo& r) {
  const bool error = l.can_error || r.can_error;
  if (!l.range_known || !r.range_known || l.unordered || r.unordered) {
    RangeInfo out = RangeInfo::Unknown(error);
    out.can_other = false;  // comparisons yield only bool or NULL
    return out;
  }
  const bool null = l.can_null || r.can_null;
  if (!l.can_value || !r.can_value) {
    // At least one side is always NULL: the comparison is always NULL.
    return RangeInfo::FromTruth(false, false, true, error);
  }
  bool can_true = false;
  bool can_false = false;
  // ∃ a < b  ⟺  l.lo < r.hi;   ∃ a >= b  ⟺  !(l.hi < r.lo).
  // ∃ a == b ⟺  ranges overlap; ∃ a != b ⟺ ranges are not one single point.
  const bool exists_lt = l.lo < r.hi;
  const bool exists_gt = r.lo < l.hi;
  const bool overlap = !(l.hi < r.lo) && !(r.hi < l.lo);
  const bool single_point = !(l.lo < l.hi) && !(r.lo < r.hi) && l.lo == r.lo;
  switch (op) {
    case CmpOp::kEq:
      can_true = overlap;
      can_false = !single_point;
      break;
    case CmpOp::kNe:
      can_true = !single_point;
      can_false = overlap;
      break;
    case CmpOp::kLt:
      can_true = exists_lt;
      can_false = !(l.hi < r.lo);
      break;
    case CmpOp::kLe:
      can_true = !(r.hi < l.lo);
      can_false = exists_gt;
      break;
    case CmpOp::kGt:
      can_true = exists_gt;
      can_false = !(r.hi < l.lo);
      break;
    case CmpOp::kGe:
      can_true = !(l.hi < r.lo);
      can_false = exists_lt;
      break;
  }
  return RangeInfo::FromTruth(can_true, can_false, null, error);
}

CompiledExpr::RangeInfo CompiledExpr::RangeInfo::Logical(LogicalOp op,
                                                         const RangeInfo& l,
                                                         const RangeInfo& r) {
  const bool error = l.can_error || r.can_error;
  bool t = false;
  bool f = false;
  bool null = false;
  // Truth values: 0=false, 1=true, 2=null, 3=other.
  const bool lposs[4] = {l.can_false, l.can_true, l.can_null, l.can_other};
  const bool rposs[4] = {r.can_false, r.can_true, r.can_null, r.can_other};
  for (int a = 0; a < 4; ++a) {
    if (!lposs[a]) continue;
    for (int b = 0; b < 4; ++b) {
      if (!rposs[b]) continue;
      if (op == LogicalOp::kAnd) {
        if (a == 0 || b == 0) {
          f = true;
        } else if (a == 2 || b == 2) {
          null = true;
        } else if (a == 1 && b == 1) {
          t = true;
        } else {
          f = true;  // an "other" operand can never make AND true
        }
      } else {
        if (a == 1 || b == 1) {
          t = true;
        } else if (a == 2 || b == 2) {
          null = true;
        } else {
          f = true;
        }
      }
    }
  }
  return RangeInfo::FromTruth(t, f, null, error);
}

CompiledExpr::RangeInfo CompiledExpr::RangeNode(int node, const ZoneStats* cols,
                                                size_t num_cols) const {
  const Node& n = nodes_[node];
  switch (n.kind) {
    case Expr::Kind::kLiteral: {
      RangeInfo r;
      r.range_known = true;
      r.can_null = n.literal.is_null();
      r.can_value = !r.can_null;
      if (r.can_value) {
        r.lo = n.literal;
        r.hi = n.literal;
        if (n.literal.is_double() && std::isnan(n.literal.as_double())) {
          r.unordered = true;
        }
      }
      r.DeriveTruthFromRange();
      return r;
    }
    case Expr::Kind::kColumn: {
      if (n.column >= num_cols) return RangeInfo::Unknown(false);
      const ZoneStats& zs = cols[n.column];
      RangeInfo r;
      r.range_known = true;
      r.can_null = zs.null_count > 0;
      r.can_value = zs.has_values;
      r.unordered = zs.unordered;
      if (zs.has_values) {
        r.lo = zs.min;
        r.hi = zs.max;
      }
      r.DeriveTruthFromRange();
      return r;
    }
    case Expr::Kind::kCompare: {
      const RangeInfo l = RangeNode(n.left, cols, num_cols);
      const RangeInfo r = RangeNode(n.right, cols, num_cols);
      return RangeInfo::Compare(n.cmp, l, r);
    }
    case Expr::Kind::kLogical: {
      const RangeInfo l = RangeNode(n.left, cols, num_cols);
      const RangeInfo r = RangeNode(n.right, cols, num_cols);
      return RangeInfo::Logical(n.logical, l, r);
    }
    case Expr::Kind::kArith:
      // Conservative: arithmetic's value range is not tracked, and it can
      // error on non-numeric operands — poison the verdict.
      return RangeInfo::Unknown(/*may_error=*/true);
    case Expr::Kind::kNot: {
      const RangeInfo v = RangeNode(n.left, cols, num_cols);
      // NOT on a non-boolean value errors at evaluation time.
      const bool error = v.can_error || v.can_other;
      return RangeInfo::FromTruth(v.can_false, v.can_true, v.can_null, error);
    }
    case Expr::Kind::kIsNull: {
      const RangeInfo v = RangeNode(n.left, cols, num_cols);
      return RangeInfo::FromTruth(v.can_null, v.can_value, false, v.can_error);
    }
  }
  return RangeInfo::Unknown(true);
}

RangeTruth CompiledExpr::EvaluateRange(const ZoneStats* cols,
                                       size_t num_cols) const {
  const RangeInfo root =
      RangeNode(static_cast<int>(nodes_.size()) - 1, cols, num_cols);
  // A possible error anywhere means the chunk must be evaluated: skipping it
  // could skip the error the reference interpreter would surface.
  if (root.can_error) return RangeTruth::kMaybe;
  // Filter truthiness: only non-NULL boolean true selects a row.
  if (!root.can_true) return RangeTruth::kAlwaysFalse;
  if (!root.can_false && !root.can_null && !root.can_other) {
    return RangeTruth::kAlwaysTrue;
  }
  return RangeTruth::kMaybe;
}

Status CompiledExpr::EvalSelection(const Table& input, size_t begin,
                                   size_t end, SelVector* out) const {
  LAKEKIT_ASSIGN_OR_RETURN(Vec v, EvalBatch(input, begin, end));
  const size_t n = end - begin;
  if (v.scalar) {
    // Constant predicate: all or nothing.
    if (TruthOf(v, 0) != Truth::kTrue) return Status::OK();
    out->reserve(out->size() + n);
    for (size_t k = 0; k < n; ++k) {
      out->push_back(static_cast<uint32_t>(begin + k));
    }
    return Status::OK();
  }
  // Only a non-NULL boolean true selects a row.
  if (v.type != DataType::kBool) return Status::OK();
  for (size_t k = 0; k < n; ++k) {
    if (v.nulls[k] == 0 && v.b8[k] != 0) {
      out->push_back(static_cast<uint32_t>(begin + k));
    }
  }
  return Status::OK();
}

}  // namespace lakekit::query
