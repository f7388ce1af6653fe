#include "query/sql.h"

#include <algorithm>
#include <cctype>
#include <charconv>

#include "common/string_util.h"

namespace lakekit::query {

namespace {

enum class TokenType { kIdent, kNumber, kString, kSymbol, kEnd };

struct Token {
  TokenType type = TokenType::kEnd;
  std::string text;  // identifiers upper-cased for keywords? keep raw
};

class Lexer {
 public:
  explicit Lexer(std::string_view sql) : sql_(sql) { Advance(); }

  const Token& Peek() const { return current_; }

  Token Next() {
    Token t = current_;
    Advance();
    return t;
  }

  /// Case-insensitive keyword check without consuming.
  bool PeekKeyword(std::string_view keyword) const {
    return current_.type == TokenType::kIdent &&
           ToLower(current_.text) == ToLower(keyword);
  }

  bool ConsumeKeyword(std::string_view keyword) {
    if (!PeekKeyword(keyword)) return false;
    Advance();
    return true;
  }

  bool ConsumeSymbol(std::string_view symbol) {
    if (current_.type != TokenType::kSymbol || current_.text != symbol) {
      return false;
    }
    Advance();
    return true;
  }

 private:
  void Advance() {
    while (pos_ < sql_.size() &&
           std::isspace(static_cast<unsigned char>(sql_[pos_]))) {
      ++pos_;
    }
    if (pos_ >= sql_.size()) {
      current_ = Token{TokenType::kEnd, ""};
      return;
    }
    char c = sql_[pos_];
    if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
      size_t start = pos_;
      while (pos_ < sql_.size() &&
             (std::isalnum(static_cast<unsigned char>(sql_[pos_])) ||
              sql_[pos_] == '_' || sql_[pos_] == '.')) {
        ++pos_;
      }
      current_ = Token{TokenType::kIdent,
                       std::string(sql_.substr(start, pos_ - start))};
      return;
    }
    if (std::isdigit(static_cast<unsigned char>(c)) ||
        (c == '-' && pos_ + 1 < sql_.size() &&
         std::isdigit(static_cast<unsigned char>(sql_[pos_ + 1])))) {
      size_t start = pos_;
      ++pos_;
      while (pos_ < sql_.size() &&
             (std::isdigit(static_cast<unsigned char>(sql_[pos_])) ||
              sql_[pos_] == '.' || sql_[pos_] == 'e' || sql_[pos_] == 'E' ||
              sql_[pos_] == '+' ||
              (sql_[pos_] == '-' &&
               (sql_[pos_ - 1] == 'e' || sql_[pos_ - 1] == 'E')))) {
        ++pos_;
      }
      current_ = Token{TokenType::kNumber,
                       std::string(sql_.substr(start, pos_ - start))};
      return;
    }
    if (c == '\'') {
      ++pos_;
      std::string text;
      while (pos_ < sql_.size() && sql_[pos_] != '\'') {
        text.push_back(sql_[pos_++]);
      }
      if (pos_ < sql_.size()) ++pos_;  // closing quote
      current_ = Token{TokenType::kString, std::move(text)};
      return;
    }
    // Multi-char comparison symbols.
    for (std::string_view sym : {"<=", ">=", "!=", "<>"}) {
      if (sql_.substr(pos_, 2) == sym) {
        current_ = Token{TokenType::kSymbol, std::string(sym)};
        pos_ += 2;
        return;
      }
    }
    current_ = Token{TokenType::kSymbol, std::string(1, c)};
    ++pos_;
  }

  std::string_view sql_;
  size_t pos_ = 0;
  Token current_;
};

/// Strips a "table." qualifier.
std::string Unqualify(const std::string& name) {
  size_t dot = name.rfind('.');
  return dot == std::string::npos ? name : name.substr(dot + 1);
}

class Parser {
 public:
  explicit Parser(std::string_view sql) : lexer_(sql) {}

  Result<SelectStatement> Parse() {
    SelectStatement stmt;
    if (!lexer_.ConsumeKeyword("select")) {
      return Error("expected SELECT");
    }
    if (lexer_.ConsumeSymbol("*")) {
      stmt.select_all = true;
    } else {
      while (true) {
        LAKEKIT_ASSIGN_OR_RETURN(SelectItem item, ParseSelectItem());
        stmt.items.push_back(std::move(item));
        if (!lexer_.ConsumeSymbol(",")) break;
      }
    }
    if (!lexer_.ConsumeKeyword("from")) return Error("expected FROM");
    LAKEKIT_ASSIGN_OR_RETURN(stmt.from_table, ParseIdent());

    if (lexer_.ConsumeKeyword("join")) {
      LAKEKIT_ASSIGN_OR_RETURN(std::string join_table, ParseIdent());
      stmt.join_table = join_table;
      if (!lexer_.ConsumeKeyword("on")) return Error("expected ON");
      LAKEKIT_ASSIGN_OR_RETURN(std::string left, ParseIdent());
      if (!lexer_.ConsumeSymbol("=")) return Error("expected '=' in ON");
      LAKEKIT_ASSIGN_OR_RETURN(std::string right, ParseIdent());
      stmt.join_left_col = Unqualify(left);
      stmt.join_right_col = Unqualify(right);
    }
    if (lexer_.ConsumeKeyword("where")) {
      LAKEKIT_ASSIGN_OR_RETURN(Sub where, ParseOr());
      stmt.where = std::move(where.expr);
    }
    if (lexer_.ConsumeKeyword("group")) {
      if (!lexer_.ConsumeKeyword("by")) return Error("expected BY");
      while (true) {
        LAKEKIT_ASSIGN_OR_RETURN(std::string col, ParseIdent());
        stmt.group_by.push_back(Unqualify(col));
        if (!lexer_.ConsumeSymbol(",")) break;
      }
    }
    if (lexer_.ConsumeKeyword("order")) {
      if (!lexer_.ConsumeKeyword("by")) return Error("expected BY");
      LAKEKIT_ASSIGN_OR_RETURN(std::string col, ParseIdent());
      stmt.order_by = Unqualify(col);
      if (lexer_.ConsumeKeyword("desc")) {
        stmt.order_ascending = false;
      } else {
        lexer_.ConsumeKeyword("asc");
      }
    }
    if (lexer_.ConsumeKeyword("limit")) {
      Token t = lexer_.Next();
      size_t n = 0;
      const char* end = t.text.data() + t.text.size();
      auto [ptr, ec] = std::from_chars(t.text.data(), end, n);
      if (t.type != TokenType::kNumber || ec != std::errc() || ptr != end) {
        return Error("LIMIT needs a non-negative integer count, got '" +
                     t.text + "'");
      }
      stmt.limit = n;
    }
    if (lexer_.Peek().type != TokenType::kEnd) {
      return Error("unexpected trailing token '" + lexer_.Peek().text + "'");
    }
    return stmt;
  }

 private:
  /// A parsed subexpression and the depth of its tree.
  struct Sub {
    ExprPtr expr;
    size_t depth = 1;
  };

  Status Error(std::string message) const {
    return Status::InvalidArgument("SQL: " + std::move(message));
  }

  Status DepthError() const {
    return Error("expression nested deeper than " +
                 std::to_string(kMaxExprDepth));
  }

  /// `expr` as a node over children at most `child_depth` deep. Checked as
  /// the tree grows, so no tree deeper than kMaxExprDepth is ever built.
  Result<Sub> Node(ExprPtr expr, size_t child_depth) const {
    if (child_depth >= kMaxExprDepth) return DepthError();
    return Sub{std::move(expr), child_depth + 1};
  }

  Result<std::string> ParseIdent() {
    Token t = lexer_.Next();
    if (t.type != TokenType::kIdent) {
      return Error("expected identifier, got '" + t.text + "'");
    }
    return t.text;
  }

  Result<SelectItem> ParseSelectItem() {
    SelectItem item;
    Token t = lexer_.Next();
    if (t.type != TokenType::kIdent) {
      return Error("expected column or aggregate, got '" + t.text + "'");
    }
    std::string lower = ToLower(t.text);
    std::optional<AggFn> agg;
    if (lower == "count") agg = AggFn::kCount;
    if (lower == "sum") agg = AggFn::kSum;
    if (lower == "avg") agg = AggFn::kAvg;
    if (lower == "min") agg = AggFn::kMin;
    if (lower == "max") agg = AggFn::kMax;
    if (agg && lexer_.ConsumeSymbol("(")) {
      item.agg = agg;
      if (lexer_.ConsumeSymbol("*")) {
        if (*agg != AggFn::kCount) return Error("only COUNT accepts '*'");
      } else {
        LAKEKIT_ASSIGN_OR_RETURN(std::string col, ParseIdent());
        item.column = Unqualify(col);
      }
      if (!lexer_.ConsumeSymbol(")")) return Error("expected ')'");
    } else {
      item.column = Unqualify(t.text);
    }
    if (lexer_.ConsumeKeyword("as")) {
      LAKEKIT_ASSIGN_OR_RETURN(item.alias, ParseIdent());
    }
    return item;
  }

  Result<Sub> ParseOr() {
    LAKEKIT_ASSIGN_OR_RETURN(Sub left, ParseAnd());
    while (lexer_.ConsumeKeyword("or")) {
      LAKEKIT_ASSIGN_OR_RETURN(Sub right, ParseAnd());
      LAKEKIT_ASSIGN_OR_RETURN(
          left, Node(Expr::Logical(LogicalOp::kOr, left.expr, right.expr),
                     std::max(left.depth, right.depth)));
    }
    return left;
  }

  Result<Sub> ParseAnd() {
    LAKEKIT_ASSIGN_OR_RETURN(Sub left, ParseUnary());
    while (lexer_.ConsumeKeyword("and")) {
      LAKEKIT_ASSIGN_OR_RETURN(Sub right, ParseUnary());
      LAKEKIT_ASSIGN_OR_RETURN(
          left, Node(Expr::Logical(LogicalOp::kAnd, left.expr, right.expr),
                     std::max(left.depth, right.depth)));
    }
    return left;
  }

  /// NOT chains are counted, not recursed into.
  Result<Sub> ParseUnary() {
    size_t nots = 0;
    while (lexer_.ConsumeKeyword("not")) ++nots;
    LAKEKIT_ASSIGN_OR_RETURN(Sub inner, ParseComparison());
    for (; nots > 0; --nots) {
      LAKEKIT_ASSIGN_OR_RETURN(inner, Node(Expr::Not(inner.expr), inner.depth));
    }
    return inner;
  }

  Result<Sub> ParseComparison() {
    LAKEKIT_ASSIGN_OR_RETURN(Sub left, ParseAdditive());
    if (lexer_.ConsumeKeyword("is")) {
      bool negated = lexer_.ConsumeKeyword("not");
      if (!lexer_.ConsumeKeyword("null")) return Error("expected NULL");
      LAKEKIT_ASSIGN_OR_RETURN(Sub test,
                               Node(Expr::IsNull(left.expr), left.depth));
      if (!negated) return test;
      return Node(Expr::Not(test.expr), test.depth);
    }
    struct SymbolOp {
      std::string_view symbol;
      CmpOp op;
    };
    static constexpr SymbolOp kOps[] = {
        {"<=", CmpOp::kLe}, {">=", CmpOp::kGe}, {"!=", CmpOp::kNe},
        {"<>", CmpOp::kNe}, {"=", CmpOp::kEq},  {"<", CmpOp::kLt},
        {">", CmpOp::kGt}};
    for (const SymbolOp& s : kOps) {
      if (lexer_.ConsumeSymbol(s.symbol)) {
        LAKEKIT_ASSIGN_OR_RETURN(Sub right, ParseAdditive());
        return Node(Expr::Compare(s.op, left.expr, right.expr),
                    std::max(left.depth, right.depth));
      }
    }
    return left;
  }

  Result<Sub> ParseAdditive() {
    LAKEKIT_ASSIGN_OR_RETURN(Sub left, ParseMultiplicative());
    while (true) {
      ArithOp op = ArithOp::kAdd;
      if (lexer_.ConsumeSymbol("-")) {
        op = ArithOp::kSub;
      } else if (!lexer_.ConsumeSymbol("+")) {
        return left;
      }
      LAKEKIT_ASSIGN_OR_RETURN(Sub right, ParseMultiplicative());
      LAKEKIT_ASSIGN_OR_RETURN(left,
                               Node(Expr::Arith(op, left.expr, right.expr),
                                    std::max(left.depth, right.depth)));
    }
  }

  Result<Sub> ParseMultiplicative() {
    LAKEKIT_ASSIGN_OR_RETURN(Sub left, ParsePrimary());
    while (true) {
      ArithOp op = ArithOp::kMul;
      if (lexer_.ConsumeSymbol("/")) {
        op = ArithOp::kDiv;
      } else if (!lexer_.ConsumeSymbol("*")) {
        return left;
      }
      LAKEKIT_ASSIGN_OR_RETURN(Sub right, ParsePrimary());
      LAKEKIT_ASSIGN_OR_RETURN(left,
                               Node(Expr::Arith(op, left.expr, right.expr),
                                    std::max(left.depth, right.depth)));
    }
  }

  Result<Sub> ParsePrimary() {
    if (lexer_.ConsumeSymbol("(")) {
      // Parentheses recurse without deepening the tree: bounded apart.
      if (++open_parens_ > kMaxExprDepth) return DepthError();
      LAKEKIT_ASSIGN_OR_RETURN(Sub inner, ParseOr());
      --open_parens_;
      if (!lexer_.ConsumeSymbol(")")) return Error("expected ')'");
      return inner;
    }
    Token t = lexer_.Next();
    switch (t.type) {
      case TokenType::kNumber: {
        const char* end = t.text.data() + t.text.size();
        if (t.text.find_first_of(".eE") == std::string::npos) {
          int64_t i = 0;
          auto [ptr, ec] = std::from_chars(t.text.data(), end, i);
          if (ec == std::errc() && ptr == end) {
            return Sub{Expr::Literal(table::Value(i))};
          }
        }
        double d = 0;
        auto [ptr, ec] = std::from_chars(t.text.data(), end, d);
        if (ec != std::errc() || ptr != end) {
          return Error("bad number '" + t.text + "'");
        }
        return Sub{Expr::Literal(table::Value(d))};
      }
      case TokenType::kString:
        return Sub{Expr::Literal(table::Value(t.text))};
      case TokenType::kIdent: {
        std::string lower = ToLower(t.text);
        if (lower == "true") return Sub{Expr::Literal(table::Value(true))};
        if (lower == "false") return Sub{Expr::Literal(table::Value(false))};
        if (lower == "null") return Sub{Expr::Literal(table::Value::Null())};
        return Sub{Expr::Column(Unqualify(t.text))};
      }
      default:
        return Error("unexpected token '" + t.text + "'");
    }
  }

  Lexer lexer_;
  size_t open_parens_ = 0;
};

/// Whether every column referenced by `expr` exists in `schema`.
bool CoveredBy(const Expr& expr, const table::Schema& schema) {
  std::vector<std::string> columns;
  expr.CollectColumns(&columns);
  for (const std::string& c : columns) {
    if (!schema.HasField(c)) return false;
  }
  return !columns.empty();
}

/// Source-side tail of a scan: counts the rows read, applies the pushed
/// conjuncts (zone-map pruned when the scan is cached; the result is
/// bit-identical either way) and counts the rows shipped to the mediator.
/// Returns the table the next stage reads: `*filtered` when a predicate
/// ran, else the scanned table in place.
Result<const table::Table*> FilterAtSource(const ScannedSource& src,
                                           const std::vector<ExprPtr>& pushed,
                                           const ExecOptions& opts,
                                           FederationStats* stats,
                                           table::Table* filtered) {
  const table::Table* out = &src.table();
  stats->rows_scanned += out->num_rows();
  if (ExprPtr predicate = CombineConjuncts(pushed)) {
    FilterExecStats fstats;
    LAKEKIT_ASSIGN_OR_RETURN(
        *filtered, Filter(*out, *predicate, src.zones(), opts, &fstats));
    stats->morsels_pruned += fstats.morsels_pruned;
    out = filtered;
  }
  stats->rows_shipped += out->num_rows();
  return out;
}

}  // namespace

Result<SelectStatement> ParseSql(std::string_view sql) {
  return Parser(sql).Parse();
}

void SplitConjuncts(const ExprPtr& expr, std::vector<ExprPtr>* out) {
  if (!expr) return;
  if (expr->kind() == Expr::Kind::kLogical &&
      expr->logical_op() == LogicalOp::kAnd) {
    SplitConjuncts(expr->left(), out);
    SplitConjuncts(expr->right(), out);
    return;
  }
  out->push_back(expr);
}

ExprPtr CombineConjuncts(const std::vector<ExprPtr>& conjuncts) {
  ExprPtr combined;
  for (const ExprPtr& c : conjuncts) {
    combined = combined ? Expr::Logical(LogicalOp::kAnd, combined, c) : c;
  }
  return combined;
}

Result<table::Table> ExecuteSelect(const SelectStatement& stmt,
                                   const SourceScanner& scan,
                                   const ExecOptions& opts,
                                   bool enable_pushdown,
                                   FederationStats* stats) {
  FederationStats unreported;
  if (stats == nullptr) stats = &unreported;
  std::vector<ExprPtr> conjuncts;
  SplitConjuncts(stmt.where, &conjuncts);
  // CombineConjuncts chains them, one level per conjunct: a bushy WHERE
  // within the depth limit could otherwise rebuild into any depth.
  if (conjuncts.size() > kMaxExprDepth) {
    return Status::InvalidArgument("SQL: WHERE has more than " +
                                   std::to_string(kMaxExprDepth) +
                                   " AND-ed conditions");
  }

  // Interrupts are checked before and after each scan, besides the
  // scanner's own and the operators' per-morsel checks: a scan that
  // outlives the deadline fails the query even if no morsel loop follows.
  LAKEKIT_RETURN_IF_ERROR(CheckInterrupt(opts));
  LAKEKIT_ASSIGN_OR_RETURN(ScannedSource from, scan(stmt.from_table));
  LAKEKIT_RETURN_IF_ERROR(CheckInterrupt(opts));
  ScannedSource join;
  if (stmt.join_table) {
    LAKEKIT_ASSIGN_OR_RETURN(join, scan(*stmt.join_table));
    LAKEKIT_RETURN_IF_ERROR(CheckInterrupt(opts));
  }

  // Conjuncts are classified by the schemas of the tables just scanned, so
  // there is no separate probe read.
  std::vector<ExprPtr> from_push;
  std::vector<ExprPtr> join_push;
  std::vector<ExprPtr> residual;
  for (const ExprPtr& c : conjuncts) {
    if (enable_pushdown && CoveredBy(*c, from.table().schema())) {
      from_push.push_back(c);
    } else if (enable_pushdown && stmt.join_table &&
               CoveredBy(*c, join.table().schema())) {
      join_push.push_back(c);
    } else {
      residual.push_back(c);
    }
  }
  stats->pushed_conjuncts = from_push.size() + join_push.size();
  stats->residual_conjuncts = residual.size();

  // Each stage reads `*current` and leaves its output in `owned`. Until
  // the first operator runs, `current` is the scanned table itself.
  table::Table owned;
  LAKEKIT_ASSIGN_OR_RETURN(
      const table::Table* current,
      FilterAtSource(from, from_push, opts, stats, &owned));
  const auto stage = [&](Result<table::Table> next) -> Status {
    LAKEKIT_ASSIGN_OR_RETURN(owned, std::move(next));
    current = &owned;
    return Status::OK();
  };
  if (stmt.join_table) {
    table::Table join_filtered;
    LAKEKIT_ASSIGN_OR_RETURN(
        const table::Table* right,
        FilterAtSource(join, join_push, opts, stats, &join_filtered));
    stats->join_input_rows = current->num_rows() + right->num_rows();
    LAKEKIT_RETURN_IF_ERROR(
        stage(HashJoin(*current, *right, stmt.join_left_col,
                       stmt.join_right_col, JoinType::kInner, opts)));
  }
  if (ExprPtr predicate = CombineConjuncts(residual)) {
    LAKEKIT_RETURN_IF_ERROR(stage(Filter(*current, *predicate, opts)));
  }
  const bool has_agg =
      std::any_of(stmt.items.begin(), stmt.items.end(),
                  [](const SelectItem& i) { return i.agg.has_value(); });
  if (has_agg || !stmt.group_by.empty()) {
    std::vector<AggSpec> aggs;
    for (const SelectItem& i : stmt.items) {
      if (i.agg) {
        aggs.push_back(AggSpec{*i.agg, i.column, i.alias});
      }
    }
    LAKEKIT_RETURN_IF_ERROR(
        stage(Aggregate(*current, stmt.group_by, aggs, opts)));
    if (stmt.order_by) {
      LAKEKIT_RETURN_IF_ERROR(stage(
          Sort(*current, *stmt.order_by, stmt.order_ascending, opts)));
    }
  } else {
    // ORDER BY may reference columns dropped by the projection, so sort on
    // the pre-projection table (standard SQL semantics).
    if (stmt.order_by) {
      LAKEKIT_RETURN_IF_ERROR(stage(
          Sort(*current, *stmt.order_by, stmt.order_ascending, opts)));
    }
    if (!stmt.select_all) {
      std::vector<std::string> columns;
      for (const SelectItem& i : stmt.items) columns.push_back(i.column);
      LAKEKIT_RETURN_IF_ERROR(stage(Project(*current, columns)));
    }
  }
  if (stmt.limit) {
    LAKEKIT_RETURN_IF_ERROR(stage(Limit(*current, *stmt.limit)));
  }
  // Only a result that is the scanned table itself (SELECT * FROM t) is
  // materialized here: moved when owned, copied out of a cache entry.
  if (current != &owned) return std::move(from).TakeOrCopy();
  return owned;
}

Result<table::Table> RunSql(std::string_view sql, const TableResolver& resolver,
                            const ExecOptions& opts) {
  LAKEKIT_ASSIGN_OR_RETURN(SelectStatement stmt, ParseSql(sql));
  return ExecuteSelect(
      stmt,
      [&](const std::string& name) -> Result<ScannedSource> {
        LAKEKIT_ASSIGN_OR_RETURN(table::Table t, resolver(name));
        return ScannedSource{std::move(t), TableCache::Entry()};
      },
      opts);
}

}  // namespace lakekit::query
