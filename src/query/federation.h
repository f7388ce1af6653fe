#ifndef LAKEKIT_QUERY_FEDERATION_H_
#define LAKEKIT_QUERY_FEDERATION_H_

#include <chrono>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <string_view>

#include "common/cancellation.h"
#include "common/circuit_breaker.h"
#include "common/deadline.h"
#include "common/memory_budget.h"
#include "common/mutex.h"
#include "common/result.h"
#include "common/retry.h"
#include "common/thread_annotations.h"
#include "query/admission.h"
#include "query/source.h"
#include "query/sql.h"
#include "query/table_cache.h"
#include "storage/polystore.h"

namespace lakekit::query {

/// What a query does when a source stays down after retries.
enum class DegradationMode {
  /// The query fails with the source's error (default).
  kStrict,
  /// The query degrades: the dead source contributes an empty table with
  /// its last known schema, the query completes over the remaining
  /// sources, and `FederationStats::partial`/`failed_sources` record what
  /// is missing. A source whose schema was never seen cannot be degraded
  /// (there is no schema-valid empty table to substitute), and deadline
  /// expiry / cancellation always fail the query — they are the caller's
  /// budget, not a source outage.
  kBestEffort,
};

/// Per-query knobs. A default-constructed QueryOptions reproduces the
/// legacy behavior: pushdown on, no deadline, no cancellation, strict.
struct QueryOptions {
  /// WHERE conjuncts that reference only one source's columns are
  /// evaluated during that source's scan.
  bool enable_pushdown = true;
  /// Absolute budget for the whole query: source scans (including their
  /// retry backoff), joins, and mediator-side operators all observe it at
  /// morsel granularity. Expiry surfaces as kDeadlineExceeded.
  Deadline deadline{};
  /// Cooperative cancellation, observed at the same points as `deadline`.
  CancelToken cancel{};
  DegradationMode degradation = DegradationMode::kStrict;
  /// Pool the vectorized operators run on; nullptr: the process default.
  ThreadPool* pool = nullptr;
  /// Where this query's statistics are written when it finishes, whether
  /// it succeeded or not — the engine's only stats sink. Each concurrent
  /// caller points this at its own struct. nullptr: not reported.
  FederationStats* stats_out = nullptr;
  /// Memory account this query's operators charge (see ExecOptions::budget).
  /// Normally left null: the engine creates a per-query child of its
  /// configured MemoryBudget. Set it to supply your own account — e.g. one
  /// shared across the queries of a batch job.
  BudgetAccount* budget = nullptr;
};

/// Engine-wide resilience tuning, fixed at construction.
struct FederatedEngineOptions {
  /// Retry schedule for transient scan failures (see RetryPolicy). A fresh
  /// policy is built per scan, so concurrent queries never share Rng state.
  RetryOptions retry;
  /// Per-source circuit breaker tuning.
  CircuitBreakerOptions breaker;
  /// Time source for breakers (and anything else that needs one) when
  /// `breaker.clock` is unset. nullptr: the real clock.
  const Clock* clock = nullptr;
  /// Where retry backoff sleeps go; default real sleeps. Chaos tests point
  /// this at a ManualClock so schedules replay without wall-clock cost.
  std::function<void(std::chrono::milliseconds)> sleep_fn;
  /// Optional decoded-table cache, shared across engines and queries
  /// (caller-owned, must outlive the engine). When set, every scan first
  /// consults the cache under the key (dataset, source generation); hits
  /// bypass the breaker-gated read entirely and filter straight off the
  /// pinned cached table with zone-map pruning. nullptr (the default)
  /// disables caching: behavior is exactly the pre-cache engine's.
  TableCache* table_cache = nullptr;
  /// Overload protection (DESIGN.md §10); both caller-owned, must outlive
  /// the engine, and may be shared across engines so several front doors
  /// drain one capacity pool.
  ///
  /// When set, every Query runs under a per-query BudgetAccount child of
  /// this process budget: operator state and owned decoded tables reserve
  /// against it, and a reservation the budget refuses fails that query with
  /// kResourceExhausted (degradable per source under kBestEffort) while the
  /// process keeps serving. nullptr: queries are unaccounted.
  MemoryBudget* memory_budget = nullptr;
  /// Per-query cap within `memory_budget` (0: the whole budget — a lone
  /// query may use everything, concurrent ones contend).
  size_t query_reservation_bytes = 0;
  /// When set, Query acquires a slot before any work: beyond
  /// `max_concurrent` running queries callers wait in a bounded FIFO
  /// (observing their own deadline/cancellation), and a full queue sheds
  /// with retriable kUnavailable. nullptr: every query runs immediately.
  AdmissionController* admission = nullptr;
};

/// A federated query engine over the polystore — the Constance /
/// Ontario / Squerall pattern (survey Sec. 7.2): one SQL interface, query
/// decomposition per source, per-source predicate pushdown, and mediator-
/// side join + residual filtering of the shipped partial results.
///
/// The resilience layer wraps every source scan: a deadline-aware retry
/// policy absorbs transient faults, a per-source circuit breaker stops a
/// dead source from burning every query's retry budget, and best-effort
/// degradation (see DegradationMode) turns residual failures into partial
/// results. Thread-safe: concurrent `Query` calls on one engine are
/// supported; each computes into its own stats.
class FederatedEngine {
 public:
  explicit FederatedEngine(storage::Polystore* polystore,
                           FederatedEngineOptions options = {});
  /// Queries an arbitrary source — the seam chaos tests use to inject
  /// faults (FlakySource). `source` must outlive the engine.
  explicit FederatedEngine(TableSource* source,
                           FederatedEngineOptions options = {});

  /// Runs a SQL query whose FROM/JOIN tables are registered datasets,
  /// under `options`' deadline/cancellation/degradation, through
  /// ExecuteSelect with this engine's resilient scan as its source. With an
  /// engine AdmissionController the query first acquires a slot (and may be
  /// shed with kUnavailable); with an engine MemoryBudget it runs under a
  /// per-query reservation and fails with kResourceExhausted rather than
  /// exceed it.
  Result<table::Table> Query(std::string_view sql,
                             const QueryOptions& options = {});

  /// The dataset's breaker state; kClosed when it has never tripped (or
  /// never been scanned).
  CircuitBreaker::State breaker_state(const std::string& dataset) const;

 private:
  /// One resilient source read: consults the table cache first (a hit
  /// returns the pinned entry without touching breaker or source), then
  /// pre-checks cancel/deadline and runs the breaker-gated read under the
  /// retry policy, admitting the result to the cache. Caches the schema of
  /// successful reads for best-effort degradation.
  Result<ScannedSource> ReadSource(const std::string& dataset,
                                   const QueryOptions& options,
                                   FederationStats* stats) const;
  /// ReadSource, plus best-effort degradation to an empty schema-valid
  /// table when `options.degradation` allows it.
  Result<ScannedSource> ReadDegradable(const std::string& dataset,
                                       const QueryOptions& options,
                                       FederationStats* stats) const;
  CircuitBreaker* BreakerFor(const std::string& dataset) const;

  // unguarded: immutable after construction.
  TableSource* source_;
  // unguarded: immutable after construction (set iff built from a
  // Polystore; source_ then points at it).
  std::unique_ptr<PolystoreSource> owned_source_;
  // unguarded: immutable after construction.
  FederatedEngineOptions options_;

  mutable Mutex mu_;
  /// Breakers are created on first scan of a dataset and never removed, so
  /// the pointers BreakerFor hands out stay valid for the engine's life.
  mutable std::map<std::string, std::unique_ptr<CircuitBreaker>, std::less<>>
      breakers_ LAKEKIT_GUARDED_BY(mu_);
  /// Last known schema per dataset, for best-effort empty-table
  /// substitution.
  mutable std::map<std::string, table::Schema, std::less<>> schema_cache_
      LAKEKIT_GUARDED_BY(mu_);
};

}  // namespace lakekit::query

#endif  // LAKEKIT_QUERY_FEDERATION_H_
