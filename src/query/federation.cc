#include "query/federation.h"

#include <utility>

namespace lakekit::query {

namespace {

/// Whether a scan failure is the *source's* trouble — eligible for
/// best-effort degradation and for breaker failure accounting. Deadline
/// expiry and cancellation are the caller's spent budget: they say nothing
/// about backend health and must fail the query even in best-effort mode.
bool SourceFault(const Status& status) {
  return !status.IsDeadlineExceeded() && !status.IsAborted();
}

}  // namespace

FederatedEngine::FederatedEngine(storage::Polystore* polystore,
                                 FederatedEngineOptions options)
    : source_(nullptr),
      owned_source_(std::make_unique<PolystoreSource>(polystore)),
      options_(std::move(options)) {
  source_ = owned_source_.get();
}

FederatedEngine::FederatedEngine(TableSource* source,
                                 FederatedEngineOptions options)
    : source_(source), options_(std::move(options)) {}

CircuitBreaker* FederatedEngine::BreakerFor(const std::string& dataset) const {
  MutexLock lock(mu_);
  auto it = breakers_.find(dataset);
  if (it == breakers_.end()) {
    CircuitBreakerOptions bopts = options_.breaker;
    if (bopts.clock == nullptr) bopts.clock = options_.clock;
    it = breakers_
             .emplace(dataset, std::make_unique<CircuitBreaker>(bopts))
             .first;
  }
  return it->second.get();
}

Result<ScannedSource> FederatedEngine::ReadSource(
    const std::string& dataset, const QueryOptions& options,
    FederationStats* stats) const {
  TableCache* cache = options_.table_cache;
  uint64_t generation = 0;
  if (cache != nullptr) {
    // The generation is read *before* the data: if a write lands between
    // the two, the entry gets cached under the pre-write generation and a
    // later lookup (which re-reads the generation) misses it — stale data
    // is never served as fresh (DESIGN.md §9.2).
    generation = source_->Generation(dataset);
    if (TableCache::Entry hit = cache->Find(dataset, generation)) {
      ++stats->cache_hits;
      // A hit still refreshes the degradation schema: the breaker-gated
      // read below is bypassed entirely, so this is the only chance.
      MutexLock lock(mu_);
      schema_cache_.insert_or_assign(dataset, hit->table.schema());
      return ScannedSource{table::Table(), std::move(hit)};
    }
  }
  CircuitBreaker* breaker = BreakerFor(dataset);
  // A fresh policy per scan: RetryPolicy carries Rng state, which concurrent
  // queries must not share.
  RetryPolicy retry(options_.retry);
  if (options_.sleep_fn) retry.set_sleep_fn(options_.sleep_fn);

  size_t attempts = 0;
  size_t rejections = 0;
  Result<table::Table> result = retry.RunResult(
      [&]() -> Result<table::Table> {
        ++attempts;
        // The caller's budget outranks everything: checked before the
        // breaker and the backend. Both statuses are permanent, so the
        // retry loop stops on them immediately.
        if (options.cancel.cancelled()) return options.cancel.status();
        if (options.deadline.expired()) {
          return Status::DeadlineExceeded("deadline expired scanning '" +
                                          dataset + "'");
        }
        if (Status admit = breaker->Admit(); !admit.ok()) {
          ++rejections;
          return admit;
        }
        Result<table::Table> r = source_->ReadAsTable(dataset);
        if (r.ok()) {
          breaker->RecordSuccess();
        } else if (SourceFault(r.status())) {
          breaker->RecordFailure();
        }
        return r;
      },
      options.deadline);
  stats->retries += attempts - 1;
  stats->breaker_rejections += rejections;
  LAKEKIT_RETURN_IF_ERROR(result.status());
  {
    MutexLock lock(mu_);
    schema_cache_.insert_or_assign(dataset, result->schema());
  }
  if (cache != nullptr) {
    ++stats->cache_misses;
    if (TableCache::Entry entry = cache->Put(dataset, generation, &*result)) {
      return ScannedSource{table::Table(), std::move(entry)};
    }
    // The cache's budget declined the admission; `*result` is untouched,
    // so fall through: this query keeps the decoded table as its own,
    // charged below like any uncached read.
  }
  // An owned decoded table lives until the query finishes with it, so it
  // charges the per-query account directly (settled by the account's
  // destructor at query end), not an operator-scope reservation. Refusal is
  // a source-read failure like any other: degradable under kBestEffort,
  // never a breaker event (the read itself succeeded).
  if (options.budget != nullptr && options.budget->attached()) {
    LAKEKIT_RETURN_IF_ERROR(
        options.budget->TryReserve(table::EstimateTableBytes(*result)));
  }
  return ScannedSource{std::move(*result), TableCache::Entry()};
}

Result<ScannedSource> FederatedEngine::ReadDegradable(
    const std::string& dataset, const QueryOptions& options,
    FederationStats* stats) const {
  ++stats->source_reads;
  Result<ScannedSource> result = ReadSource(dataset, options, stats);
  if (result.ok() || options.degradation != DegradationMode::kBestEffort ||
      !SourceFault(result.status())) {
    return result;
  }
  table::Schema schema;
  {
    MutexLock lock(mu_);
    auto it = schema_cache_.find(dataset);
    // Never-seen schema: there is no schema-valid empty table to
    // substitute, so the failure propagates even in best-effort mode.
    if (it == schema_cache_.end()) return result;
    schema = it->second;
  }
  stats->partial = true;
  stats->failed_sources.push_back(SourceFailure{dataset, result.status()});
  return ScannedSource{table::Table(dataset, schema), TableCache::Entry()};
}

Result<table::Table> FederatedEngine::Query(std::string_view sql,
                                            const QueryOptions& options) {
  // Computed into a local so concurrent queries never share accumulation
  // state, and published once, when the query is done.
  FederationStats stats;
  Result<table::Table> result = [&]() -> Result<table::Table> {
    // Overload valve first: a shed or expired-in-queue query does no work
    // at all — no parse, no reservation, no source read.
    AdmissionController::Ticket ticket;
    if (options_.admission != nullptr) {
      Result<AdmissionController::Ticket> admitted =
          options_.admission->Admit(options.deadline, options.cancel);
      LAKEKIT_RETURN_IF_ERROR(admitted.status());
      ticket = std::move(*admitted);
    }
    // The per-query memory account. Everything the query charged — operator
    // reservations unwind eagerly, owned decoded tables do not — is
    // settled when this goes out of scope, after the result table has been
    // built. Callers supplying QueryOptions::budget keep their own account.
    BudgetAccount account(options_.memory_budget,
                          options_.query_reservation_bytes);
    QueryOptions opts = options;
    if (opts.budget == nullptr) opts.budget = &account;
    // The pipeline is ExecuteSelect's; the engine only says how a source
    // is scanned.
    const SourceScanner scan = [&](const std::string& dataset) {
      return ReadDegradable(dataset, opts, &stats);
    };
    const ExecOptions exec{.pool = opts.pool,
                           .cancel = opts.cancel,
                           .deadline = opts.deadline,
                           .budget = opts.budget};
    Result<SelectStatement> stmt = ParseSql(sql);
    Result<table::Table> r =
        stmt.ok()
            ? ExecuteSelect(*stmt, scan, exec, opts.enable_pushdown, &stats)
            : Result<table::Table>(stmt.status());
    ticket.Finish(r.ok());
    return r;
  }();
  if (options.stats_out != nullptr) *options.stats_out = std::move(stats);
  return result;
}

CircuitBreaker::State FederatedEngine::breaker_state(
    const std::string& dataset) const {
  MutexLock lock(mu_);
  auto it = breakers_.find(dataset);
  return it == breakers_.end() ? CircuitBreaker::State::kClosed
                               : it->second->state();
}

}  // namespace lakekit::query
