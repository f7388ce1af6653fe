#ifndef LAKEKIT_QUERY_SQL_H_
#define LAKEKIT_QUERY_SQL_H_

#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "query/operators.h"
#include "query/table_cache.h"

namespace lakekit::query {

/// One SELECT-list item: either a plain column or an aggregate call.
struct SelectItem {
  std::string column;  // empty for COUNT(*)
  std::optional<AggFn> agg;
  std::string alias;
};

/// A parsed SELECT statement of the lakekit SQL dialect:
///
///   SELECT <*|item[, item...]> FROM t
///     [JOIN u ON a = b]
///     [WHERE <predicate>]
///     [GROUP BY col[, col...]]
///     [ORDER BY col [ASC|DESC]]
///     [LIMIT n]
///
/// Aggregates: COUNT(*|col), SUM, AVG, MIN, MAX. Predicates support
/// comparison operators, AND/OR/NOT, IS [NOT] NULL, arithmetic, string and
/// numeric literals. Qualified names ("t.col") resolve by stripping the
/// qualifier.
struct SelectStatement {
  bool select_all = false;
  std::vector<SelectItem> items;
  std::string from_table;
  std::optional<std::string> join_table;
  std::string join_left_col;
  std::string join_right_col;
  ExprPtr where;
  std::vector<std::string> group_by;
  std::optional<std::string> order_by;
  bool order_ascending = true;
  std::optional<size_t> limit;
};

/// Parses the dialect; errors carry the offending token. Predicates deeper
/// than kMaxExprDepth and LIMIT counts that are not a size_t are
/// InvalidArgument.
Result<SelectStatement> ParseSql(std::string_view sql);

/// One source that could not be scanned during a best-effort query.
struct SourceFailure {
  std::string dataset;
  Status status;
};

/// Per-query execution statistics demonstrating the effect of predicate
/// pushdown (Constance pushes selections to the sources to "reduce the
/// amount of data to be loaded", survey Sec. 6.3/7.2) and, since the
/// resilience layer, of retries / circuit breaking / degradation.
struct FederationStats {
  /// Source scans issued — one per source per query: conjunct
  /// classification reuses the scanned table's schema instead of issuing a
  /// separate probe read. (Retries of a failing scan are counted in
  /// `retries`, not here.)
  size_t source_reads = 0;
  /// Rows read from the underlying stores.
  size_t rows_scanned = 0;
  /// Rows shipped from the sources to the mediator.
  size_t rows_shipped = 0;
  /// Rows fed into the join (both sides).
  size_t join_input_rows = 0;
  /// Conjuncts pushed to sources.
  size_t pushed_conjuncts = 0;
  /// Conjuncts evaluated at the mediator.
  size_t residual_conjuncts = 0;
  /// Retry attempts beyond each scan's first, summed over sources.
  size_t retries = 0;
  /// Scan attempts rejected by an open/half-open circuit breaker.
  size_t breaker_rejections = 0;
  /// Cache-enabled engines only (FederatedEngineOptions::table_cache).
  /// A hit serves the decoded table from the cache: no source read, no
  /// retry, and the breaker is never consulted. A miss reads the source
  /// (counted in `source_reads` as usual) and admits the decoded result.
  size_t cache_hits = 0;
  size_t cache_misses = 0;
  /// Morsels skipped outright by zone-map statistics during source-side
  /// filtering (cache-enabled scans with a pushed predicate only).
  size_t morsels_pruned = 0;
  /// Best-effort only: true when at least one source was degraded to an
  /// empty (schema-valid) table instead of failing the query.
  bool partial = false;
  /// The degraded sources and why each failed. Empty unless `partial`.
  std::vector<SourceFailure> failed_sources;
};

/// The product of one source scan: a decoded table this query owns (cold
/// read, resolver output, or degraded empty substitute) or a pinned
/// reference into the shared TableCache (warm read). `zones()` is non-null
/// only for cached tables — zone maps are built at cache admission, so only
/// cached scans prune.
struct ScannedSource {
  table::Table owned;
  TableCache::Entry cached;  // when non-empty, `owned` is unused

  const table::Table& table() const {
    return cached ? cached->table : owned;
  }
  const ZoneMap* zones() const { return cached ? &cached->zones : nullptr; }

  /// An owned table: moved out when this query owns it, copied when it is
  /// shared through the cache (the cache's copy stays pinned until this
  /// ScannedSource dies).
  table::Table TakeOrCopy() && {
    if (cached) return cached->table;
    return std::move(owned);
  }
};

/// Supplies base tables by name (the polystore, a RelationalStore, a test
/// fixture...).
using TableResolver =
    std::function<Result<table::Table>(const std::string& name)>;

/// How the pipeline scans a FROM/JOIN source by name. RunSql wraps a
/// TableResolver; FederatedEngine plugs in its cached, retried, breaker-
/// gated and degradable read.
using SourceScanner =
    std::function<Result<ScannedSource>(const std::string& name)>;

/// The one SELECT pipeline (the mediator plan of survey Sec. 7.2): scan
/// FROM (and JOIN) -> split WHERE into conjuncts pushed to the source whose
/// schema covers them and residual ones -> source-side filter (zone-map
/// pruned for cached scans) -> join -> residual filter -> aggregate or
/// project -> sort -> limit. Every stage reads the previous one's output in
/// place, starting from the scanned table itself; only a result that is the
/// scanned table is materialized. `opts` carries the pool, budget and
/// deadline/cancel token, checked around each scan here and per morsel
/// inside the operators. `stats` (may be nullptr) accumulates the
/// pipeline's counters; the scanner adds its own.
Result<table::Table> ExecuteSelect(const SelectStatement& stmt,
                                   const SourceScanner& scan,
                                   const ExecOptions& opts = {},
                                   bool enable_pushdown = true,
                                   FederationStats* stats = nullptr);

/// Parse + execute over resolver-owned tables, with pushdown.
Result<table::Table> RunSql(std::string_view sql, const TableResolver& resolver,
                            const ExecOptions& opts = {});

/// Splits a predicate into its top-level AND conjuncts.
void SplitConjuncts(const ExprPtr& expr, std::vector<ExprPtr>* out);

/// Reassembles conjuncts with AND; nullptr for an empty list.
ExprPtr CombineConjuncts(const std::vector<ExprPtr>& conjuncts);

}  // namespace lakekit::query

#endif  // LAKEKIT_QUERY_SQL_H_
