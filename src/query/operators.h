#ifndef LAKEKIT_QUERY_OPERATORS_H_
#define LAKEKIT_QUERY_OPERATORS_H_

#include <string>
#include <vector>

#include "common/cancellation.h"
#include "common/deadline.h"
#include "common/memory_budget.h"
#include "common/result.h"
#include "common/thread_pool.h"
#include "query/expr.h"
#include "table/table.h"

namespace lakekit::query {

/// Relational operators over in-memory tables — the execution layer behind
/// the heterogeneous querying tier (survey Sec. 7.2). All operators are
/// pure: they return new tables.
///
/// Filter/HashJoin/Aggregate are vectorized (query/vec.h): they process
/// kMorselSize-row morsels through compiled kernels, in parallel on the
/// execution layer's thread pool, and are bit-identical to the row-at-a-time
/// interpreter in query/reference_ops.h for any thread count (DESIGN.md §7).

/// Tuning for the morsel-parallel operators. The defaults — the process-wide
/// pool — are right for production; tests and benchmarks inject fixed-size
/// pools to pin the thread count.
struct ExecOptions {
  /// Pool morsels run on; nullptr means `ThreadPool::Default()`.
  ThreadPool* pool = nullptr;
  /// Cooperative cancellation, checked at morsel granularity: each morsel
  /// lambda tests the token before touching its rows, so a cancelled query
  /// finishes at most one in-flight morsel per worker (≈kMorselSize rows)
  /// before the operator returns the token's status. Default: never
  /// cancelled.
  CancelToken cancel{};
  /// Deadline, checked at the same per-morsel granularity; expiry surfaces
  /// as kDeadlineExceeded. Default: infinite.
  Deadline deadline{};
  /// Memory accounting for the big intermediate-state consumers — the
  /// HashJoin build side and match lists, Aggregate's group index and
  /// partials, Sort's key buffers, and materialized outputs. Operators
  /// reserve on a ScopedReservation a few times per morsel or operator,
  /// never per row; when a reservation is refused the operator unwinds
  /// with kResourceExhausted instead of allocating.
  /// nullptr (or a detached account): unaccounted, the pre-budget behavior.
  BudgetAccount* budget = nullptr;
};

/// The per-morsel interrupt check the vectorized operators share: the
/// token's status if cancelled, kDeadlineExceeded if `opts.deadline` has
/// expired, OK otherwise. Cheap enough for morsel granularity — one relaxed
/// atomic load on the happy path plus (for finite deadlines) a clock read.
[[nodiscard]] Status CheckInterrupt(const ExecOptions& opts);

/// Rows satisfying `predicate` (NULL predicate results excluded).
Result<table::Table> Filter(const table::Table& input, const Expr& predicate,
                            const ExecOptions& opts = {});

class ZoneMap;  // query/zone_map.h

/// Counters of one zone-map-assisted Filter run.
struct FilterExecStats {
  size_t morsels_total = 0;
  /// Morsels skipped outright: statistics proved no row passes.
  size_t morsels_pruned = 0;
  /// Morsels selected wholesale: statistics proved every row passes.
  size_t morsels_selected = 0;
};

/// Filter with zone-map pruning: morsels whose statistics prove the
/// predicate always-false are skipped without evaluation, always-true
/// morsels are selected wholesale (DESIGN.md §9.3). `zones` must have been
/// built from `input` (chunk m == morsel m); if it does not line up — or is
/// nullptr — every morsel is evaluated and the result is identical to the
/// overload above. Output is bit-identical to the unpruned path either way;
/// pruning only ever removes work, never changes it.
Result<table::Table> Filter(const table::Table& input, const Expr& predicate,
                            const ZoneMap* zones, const ExecOptions& opts = {},
                            FilterExecStats* stats = nullptr);

/// Keeps `columns` in the given order.
Result<table::Table> Project(const table::Table& input,
                             const std::vector<std::string>& columns);

enum class JoinType { kInner, kLeft };

/// Hash equi-join on left_col = right_col. Right columns are appended;
/// name collisions get a "_r" suffix. NULL keys never join.
Result<table::Table> HashJoin(const table::Table& left,
                              const table::Table& right,
                              const std::string& left_col,
                              const std::string& right_col,
                              JoinType type = JoinType::kInner,
                              const ExecOptions& opts = {});

enum class AggFn { kCount, kSum, kAvg, kMin, kMax };

struct AggSpec {
  AggFn fn = AggFn::kCount;
  /// Input column; ignored for COUNT(*) (empty name).
  std::string column;
  std::string alias;
};

/// Group-by + aggregates. With empty `group_by`, one global row.
/// NULLs are skipped by all aggregate inputs (SQL semantics). Groups key on
/// hashed `std::vector<Value>` with real Value equality; SUM over an int64
/// column stays int64 (exact past 2^53), every other SUM/AVG is double.
Result<table::Table> Aggregate(const table::Table& input,
                               const std::vector<std::string>& group_by,
                               const std::vector<AggSpec>& aggs,
                               const ExecOptions& opts = {});

/// Stable sort by column (NULLs first when ascending). The decoded key
/// buffer and permutation vector are charged against `opts.budget`.
Result<table::Table> Sort(const table::Table& input, const std::string& column,
                          bool ascending = true,
                          const ExecOptions& opts = {});

/// First `n` rows.
table::Table Limit(const table::Table& input, size_t n);

}  // namespace lakekit::query

#endif  // LAKEKIT_QUERY_OPERATORS_H_
