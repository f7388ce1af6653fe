// Reproduces survey Sec. 7.2 (heterogeneous data querying): federated SQL
// over the polystore with the predicate-pushdown ablation Constance's design
// implies — pushdown shrinks what the sources ship to the mediator by the
// selectivity factor, which shrinks join inputs and end-to-end latency.
// Expected shape: pushdown's advantage grows as predicates get more
// selective; with a non-selective predicate the two paths converge.

// Also home to the vectorized-operator microbenchmarks (DESIGN.md §7):
// BM_Query_{Filter,HashJoin,Aggregate}_Vec run the morsel-parallel engine at
// 1/4/16 threads against a 1M-row table; the *_Reference twins run the
// row-at-a-time interpreter the engine replaced. The single-thread Vec vs
// Reference ratio is the vectorization win; the thread sweep shows morsel
// scaling (flat on a single-core host). BM_Query_Sort_Vec sorts the same
// table by an int64 and by a string column (Sort runs on one thread).

#include <benchmark/benchmark.h>

#include <filesystem>
#include <memory>

#include <atomic>
#include <thread>

#include "common/memory_budget.h"
#include "common/random.h"
#include "common/thread_pool.h"
#include "query/admission.h"
#include "json/parser.h"
#include "query/federation.h"
#include "query/operators.h"
#include "query/reference_ops.h"
#include "query/zone_map.h"
#include "storage/polystore.h"

#include "common/status.h"

namespace {

using namespace lakekit;         // NOLINT
using namespace lakekit::query;  // NOLINT

struct Fixture {
  std::unique_ptr<storage::Polystore> polystore;
  std::unique_ptr<FederatedEngine> engine;
  std::string dir;

  ~Fixture() { std::filesystem::remove_all(dir); }
};

Fixture& GetFixture(int rows) {
  static std::map<int, std::unique_ptr<Fixture>> cache;
  auto it = cache.find(rows);
  if (it != cache.end()) return *it->second;
  auto f = std::make_unique<Fixture>();
  f->dir = "/tmp/lakekit_bench_fed_" + std::to_string(rows);
  std::filesystem::remove_all(f->dir);
  auto ps = storage::Polystore::Open(f->dir);
  f->polystore = std::make_unique<storage::Polystore>(std::move(*ps));

  std::string sales = "sale_id,store,amount\n";
  for (int i = 0; i < rows; ++i) {
    sales += std::to_string(i) + ",store" + std::to_string(i % 40) + "," +
             std::to_string((i * 7) % 100) + "\n";
  }
  LAKEKIT_CHECK_OK(f->polystore->StoreTable("sales",
                                 *table::Table::FromCsv("sales", sales)));
  std::vector<json::Value> stores;
  for (int i = 0; i < 40; ++i) {
    stores.push_back(*json::Parse(
        R"({"store":"store)" + std::to_string(i) + R"(","region":"r)" +
        std::to_string(i % 4) + "\"}"));
  }
  LAKEKIT_CHECK_OK(f->polystore->StoreDocuments("stores", std::move(stores)));
  f->engine = std::make_unique<FederatedEngine>(f->polystore.get());
  Fixture& ref = *f;
  cache[rows] = std::move(f);
  return ref;
}

// Selectivity sweep: amount > X keeps ~(100-X)% of rows.
const char* QueryWithSelectivity(int keep_percent) {
  static std::string sql;
  sql = "SELECT region, COUNT(*) AS n FROM sales JOIN stores ON "
        "sales.store = stores.store WHERE amount >= " +
        std::to_string(100 - keep_percent) + " GROUP BY region";
  return sql.c_str();
}

void BM_Federated_WithPushdown(benchmark::State& state) {
  Fixture& f = GetFixture(static_cast<int>(state.range(0)));
  const char* sql = QueryWithSelectivity(static_cast<int>(state.range(1)));
  FederationStats stats;
  for (auto _ : state) {
    auto out = f.engine->Query(sql, QueryOptions{.stats_out = &stats});
    benchmark::DoNotOptimize(out);
  }
  state.counters["rows_shipped"] = static_cast<double>(stats.rows_shipped);
  state.counters["join_input_rows"] =
      static_cast<double>(stats.join_input_rows);
}

void BM_Federated_WithoutPushdown(benchmark::State& state) {
  Fixture& f = GetFixture(static_cast<int>(state.range(0)));
  const char* sql = QueryWithSelectivity(static_cast<int>(state.range(1)));
  FederationStats stats;
  const QueryOptions options{.enable_pushdown = false, .stats_out = &stats};
  for (auto _ : state) {
    auto out = f.engine->Query(sql, options);
    benchmark::DoNotOptimize(out);
  }
  state.counters["rows_shipped"] = static_cast<double>(stats.rows_shipped);
  state.counters["join_input_rows"] =
      static_cast<double>(stats.join_input_rows);
}

void BM_Federated_SingleSourceScan(benchmark::State& state) {
  Fixture& f = GetFixture(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    auto out = f.engine->Query("SELECT COUNT(*) AS n FROM sales");
    benchmark::DoNotOptimize(out);
  }
}

/// Fixture for the scan-acceleration pair (DESIGN.md §9): one dataset in
/// the *object* tier as raw CSV, clustered ascending on `id`. A cold scan
/// pays the full pipeline — object read, CSV parse, type sniffing —
/// per query; a warm scan runs off the pinned decoded table with zone-map
/// pruning. That decode is exactly what the cache exists to amortize.
Fixture& GetCsvFixture(int rows) {
  static std::map<int, std::unique_ptr<Fixture>> cache;
  auto it = cache.find(rows);
  if (it != cache.end()) return *it->second;
  auto f = std::make_unique<Fixture>();
  f->dir = "/tmp/lakekit_bench_fed_csv_" + std::to_string(rows);
  std::filesystem::remove_all(f->dir);
  auto ps = storage::Polystore::Open(f->dir);
  f->polystore = std::make_unique<storage::Polystore>(std::move(*ps));
  std::string events = "id,amount\n";
  for (int i = 0; i < rows; ++i) {
    events += std::to_string(i) + "," + std::to_string((i * 7) % 100) + "\n";
  }
  LAKEKIT_CHECK_OK(
      f->polystore->StoreObject("events", "raw/events.csv", events));
  f->engine = std::make_unique<FederatedEngine>(f->polystore.get());
  Fixture& ref = *f;
  cache[rows] = std::move(f);
  return ref;
}

// `id < rows*keep/100` — selective AND aligned with the clustering key, so
// the warm path also prunes every morsel past the cutoff.
std::string CsvScanQuery(int rows, int keep_percent) {
  return "SELECT id, amount FROM events WHERE id < " +
         std::to_string(rows * keep_percent / 100);
}

void BM_Federated_QueryCold(benchmark::State& state) {
  // The cold baseline for BM_Federated_QueryCached: no table cache, so
  // every iteration re-reads the object tier and re-parses the CSV.
  Fixture& f = GetCsvFixture(static_cast<int>(state.range(0)));
  const std::string sql = CsvScanQuery(static_cast<int>(state.range(0)),
                                       static_cast<int>(state.range(1)));
  FederationStats stats;
  for (auto _ : state) {
    auto out = f.engine->Query(sql, QueryOptions{.stats_out = &stats});
    benchmark::DoNotOptimize(out);
  }
  state.counters["rows_shipped"] = static_cast<double>(stats.rows_shipped);
}

void BM_Federated_QueryCached(benchmark::State& state) {
  // The scan acceleration layer (DESIGN.md §9): identical query and CSV
  // fixture as BM_Federated_QueryCold, but the engine carries a
  // decoded-table cache. The first query decodes and admits; every timed
  // iteration then scans the pinned decoded table — no object read, no
  // CSV parse, zone-map pruning past the id cutoff. The ratio against
  // BM_Federated_QueryCold at the same args is the warm-over-cold win.
  Fixture& f = GetCsvFixture(static_cast<int>(state.range(0)));
  static std::map<int, std::unique_ptr<TableCache>> caches;
  auto it = caches.find(static_cast<int>(state.range(0)));
  if (it == caches.end()) {
    it = caches
             .emplace(static_cast<int>(state.range(0)),
                      std::make_unique<TableCache>())
             .first;
  }
  FederatedEngineOptions options;
  options.table_cache = it->second.get();
  FederatedEngine engine(f.polystore.get(), options);
  const std::string sql = CsvScanQuery(static_cast<int>(state.range(0)),
                                       static_cast<int>(state.range(1)));
  // Warm the cache outside the timed region.
  auto warm = engine.Query(sql);
  benchmark::DoNotOptimize(warm);
  FederationStats stats;
  for (auto _ : state) {
    auto out = engine.Query(sql, QueryOptions{.stats_out = &stats});
    benchmark::DoNotOptimize(out);
  }
  state.counters["cache_hits"] = static_cast<double>(stats.cache_hits);
  state.counters["morsels_pruned"] =
      static_cast<double>(stats.morsels_pruned);
  state.counters["rows_shipped"] = static_cast<double>(stats.rows_shipped);
}

void BM_Federated_QueryArmed(benchmark::State& state) {
  // End-to-end federated query with the full resilience envelope armed —
  // generous deadline, live cancel token, best-effort degradation — but no
  // faults, so every check is on the happy path. Compare against
  // BM_Federated_WithPushdown at the same args for the envelope's cost.
  Fixture& f = GetFixture(static_cast<int>(state.range(0)));
  const char* sql = QueryWithSelectivity(static_cast<int>(state.range(1)));
  CancelSource source;
  FederationStats stats;
  QueryOptions options;
  options.cancel = source.token();
  options.degradation = DegradationMode::kBestEffort;
  options.stats_out = &stats;
  for (auto _ : state) {
    options.deadline = Deadline::After(std::chrono::hours(1));
    auto out = f.engine->Query(sql, options);
    benchmark::DoNotOptimize(out);
  }
  state.counters["rows_shipped"] = static_cast<double>(stats.rows_shipped);
}

void BM_Federated_QueryStorm(benchmark::State& state) {
  // Overload goodput, the admission-control ablation (DESIGN.md §10): eight
  // client threads fire queries at one engine whose process memory budget
  // fits ~2.5 concurrent queries. Arg 0 runs the storm with no front door —
  // all eight collide on the budget and most fail kResourceExhausted. Arg 1
  // arms admission at max_concurrent=2 with a deep queue, so excess queries
  // wait instead of colliding and goodput_frac approaches 1.0. Time-per-
  // iteration is one full 16-query storm.
  Fixture& f = GetFixture(5000);
  const bool admission_on = state.range(0) != 0;
  const char* sql = QueryWithSelectivity(50);

  // Size the budget off a solo probe run: peak accounted bytes of one
  // uncontended query.
  static const size_t solo_peak = [&] {
    MemoryBudget probe(static_cast<size_t>(-1) / 2);
    FederatedEngineOptions options;
    options.memory_budget = &probe;
    FederatedEngine engine(f.polystore.get(), options);
    auto out = engine.Query(sql);
    benchmark::DoNotOptimize(out);
    return probe.peak_used();
  }();

  uint64_t ok = 0;
  uint64_t failed = 0;
  for (auto _ : state) {
    MemoryBudget budget(solo_peak * 5 / 2);
    AdmissionOptions admission_options;
    admission_options.max_concurrent = 2;
    admission_options.max_queue_depth = 64;  // hold, don't shed
    AdmissionController admission(admission_options);
    FederatedEngineOptions options;
    options.memory_budget = &budget;
    if (admission_on) options.admission = &admission;
    FederatedEngine engine(f.polystore.get(), options);
    std::atomic<uint64_t> storm_ok{0};
    std::atomic<uint64_t> storm_failed{0};
    std::vector<std::thread> clients;
    for (int t = 0; t < 8; ++t) {
      clients.emplace_back([&] {
        for (int i = 0; i < 2; ++i) {
          auto out = engine.Query(sql);
          (out.ok() ? storm_ok : storm_failed).fetch_add(1);
        }
      });
    }
    for (std::thread& t : clients) t.join();
    ok += storm_ok.load();
    failed += storm_failed.load();
  }
  state.counters["goodput_frac"] =
      ok + failed == 0
          ? 0.0
          : static_cast<double>(ok) / static_cast<double>(ok + failed);
}

// ------------------------------------- cache-miss decode (DESIGN.md §7, §9)

/// The two CSV shapes a cache miss decodes. Arg 0: 6 000 rows shaped like
/// lake_e2e's object-tier fact table (id ascending, three int keys, an
/// amount with two decimals). Arg 1: 800 rows of strings, some past the
/// 15-byte small-string buffer and some quoted around a comma.
const std::string& DecodeCsv(int shape) {
  static const std::string fact = [] {
    Rng rng(21);
    std::string out = "id,cust,prod,qty,amount\n";
    for (int i = 0; i < 6000; ++i) {
      const int64_t cents = rng.Between(100, 99999);
      out += std::to_string(i) + "," + std::to_string(rng.Below(300)) + "," +
             std::to_string(rng.Below(120)) + "," +
             std::to_string(rng.Between(1, 20)) + "," +
             std::to_string(cents / 100) + "." +
             std::to_string(10 + cents % 90) + "\n";
    }
    return out;
  }();
  static const std::string strings = [] {
    Rng rng(22);
    std::string out = "name,city,email,note,code\n";
    for (int i = 0; i < 800; ++i) {
      out += rng.NextWord(4 + rng.Below(8)) + "," + rng.NextWord(6) + "," +
             rng.NextWord(6 + rng.Below(6)) + "@" + rng.NextWord(7) + ".org," +
             "\"" + rng.NextWord(5) + ", " + rng.NextWord(9) + "\"," + "A-" +
             std::to_string(rng.Below(10000)) + "\n";
    }
    return out;
  }();
  return shape == 0 ? fact : strings;
}

void BM_Table_FromCsv(benchmark::State& state) {
  // The decode a TableCache miss pays after the object read: tokenize,
  // sniff each column's type, build the cells.
  const std::string& csv = DecodeCsv(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    auto t = table::Table::FromCsv("t", csv);
    benchmark::DoNotOptimize(t);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(csv.size()));
}

void BM_ZoneMap_Build(benchmark::State& state) {
  // The rest of a miss before admission: per-morsel stats of every column.
  static const std::map<int, table::Table> tables = [] {
    std::map<int, table::Table> out;
    for (int shape : {0, 1}) {
      auto t = table::Table::FromCsv("t", DecodeCsv(shape));
      LAKEKIT_CHECK_OK(t.status());
      out.emplace(shape, std::move(*t));
    }
    return out;
  }();
  const table::Table& t = tables.at(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    ZoneMap zones = ZoneMap::Build(t);
    benchmark::DoNotOptimize(zones);
  }
}

// ------------------------------------------- vectorized operators (1M rows)

constexpr size_t kVecRows = 1'000'000;

/// 1M-row fact table: int key (1000 distinct), int measure, double score,
/// string category (16 distinct).
const table::Table& VecTable() {
  static const table::Table t = [] {
    Rng rng(7);
    table::Schema schema;
    schema.AddField({"key", table::DataType::kInt64, true});
    schema.AddField({"val", table::DataType::kInt64, true});
    schema.AddField({"score", table::DataType::kDouble, true});
    schema.AddField({"cat", table::DataType::kString, true});
    table::Table out("fact", schema);
    out.Reserve(kVecRows);
    for (size_t i = 0; i < kVecRows; ++i) {
      LAKEKIT_CHECK_OK(out.AppendRow(
          {table::Value(rng.Between(0, 999)), table::Value(rng.Between(0, 99)),
           table::Value(rng.NextDouble()),
           table::Value("cat" + std::to_string(rng.Below(16)))}));
    }
    return out;
  }();
  return t;
}

/// 1000-row dimension table joining VecTable's key column.
const table::Table& VecDimTable() {
  static const table::Table t = [] {
    table::Schema schema;
    schema.AddField({"key", table::DataType::kInt64, true});
    schema.AddField({"label", table::DataType::kString, true});
    table::Table out("dim", schema);
    for (int64_t i = 0; i < 1000; ++i) {
      LAKEKIT_CHECK_OK(out.AppendRow(
          {table::Value(i), table::Value("label" + std::to_string(i))}));
    }
    return out;
  }();
  return t;
}

ThreadPool& PoolFor(int threads) {
  static std::map<int, std::unique_ptr<ThreadPool>> pools;
  auto it = pools.find(threads);
  if (it == pools.end()) {
    it = pools.emplace(threads, std::make_unique<ThreadPool>(threads)).first;
  }
  return *it->second;
}

ExprPtr VecPredicate() {
  // val >= 95 AND score < 0.5 — ~2.5% selectivity across two lanes, the
  // selective-scan shape (TPC-H Q6 style) where predicate evaluation, not
  // result materialization, dominates.
  return Expr::Logical(
      LogicalOp::kAnd,
      Expr::Compare(CmpOp::kGe, Expr::Column("val"),
                    Expr::Literal(table::Value(int64_t{95}))),
      Expr::Compare(CmpOp::kLt, Expr::Column("score"),
                    Expr::Literal(table::Value(0.5))));
}

const std::vector<AggSpec>& VecAggs() {
  // Dashboard-style rollup: the full stats block (count + sum/avg/min/max)
  // over both measure columns. The vectorized engine assigns groups once
  // and runs ONE fused sweep per measure column regardless of how many
  // aggregates read it; the row-at-a-time reference pays a per-row variant
  // dispatch per aggregate, so its cost scales with the aggregate count.
  static const std::vector<AggSpec> aggs = {
      AggSpec{AggFn::kCount, "", "n"},
      AggSpec{AggFn::kSum, "val", "val_total"},
      AggSpec{AggFn::kAvg, "val", "val_avg"},
      AggSpec{AggFn::kMin, "val", "val_lo"},
      AggSpec{AggFn::kMax, "val", "val_hi"},
      AggSpec{AggFn::kSum, "score", "score_total"},
      AggSpec{AggFn::kAvg, "score", "score_avg"},
      AggSpec{AggFn::kMin, "score", "score_lo"},
      AggSpec{AggFn::kMax, "score", "score_hi"}};
  return aggs;
}

void BM_Query_Filter_Vec(benchmark::State& state) {
  const table::Table& t = VecTable();
  ExprPtr pred = VecPredicate();
  ExecOptions opts;
  opts.pool = &PoolFor(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    auto out = Filter(t, *pred, opts);
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(kVecRows));
}

void BM_Query_Filter_VecArmed(benchmark::State& state) {
  // Same scan as BM_Query_Filter_Vec but with a live deadline and cancel
  // token armed (neither ever fires): the delta against the unarmed twin is
  // the per-morsel interruption-check overhead the resilience layer adds to
  // the hot path. EXPERIMENTS.md pins it at <= 2%.
  const table::Table& t = VecTable();
  ExprPtr pred = VecPredicate();
  CancelSource source;
  ExecOptions opts;
  opts.pool = &PoolFor(static_cast<int>(state.range(0)));
  opts.cancel = source.token();
  opts.deadline = Deadline::After(std::chrono::hours(1));
  for (auto _ : state) {
    auto out = Filter(t, *pred, opts);
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(kVecRows));
}

void BM_Query_Filter_VecBudgeted(benchmark::State& state) {
  // Same scan as BM_Query_Filter_Vec but with a huge-capacity memory budget
  // attached: every reservation takes the real TryReserve CAS path and
  // nothing ever refuses. The delta against the unarmed twin is the
  // budget-accounting overhead on unconstrained queries. EXPERIMENTS.md
  // pins it at <= 2%.
  const table::Table& t = VecTable();
  ExprPtr pred = VecPredicate();
  MemoryBudget budget(static_cast<size_t>(-1) / 2);
  BudgetAccount account(&budget);
  ExecOptions opts;
  opts.pool = &PoolFor(static_cast<int>(state.range(0)));
  opts.budget = &account;
  for (auto _ : state) {
    auto out = Filter(t, *pred, opts);
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(kVecRows));
}

/// 1M-row table clustered on `id` (ascending), the shape zone maps exploit:
/// each kMorselSize chunk covers a tight, disjoint id range.
const table::Table& ClusteredTable() {
  static const table::Table t = [] {
    Rng rng(11);
    table::Schema schema;
    schema.AddField({"id", table::DataType::kInt64, true});
    schema.AddField({"payload", table::DataType::kDouble, true});
    table::Table out("clustered", schema);
    out.Reserve(kVecRows);
    for (size_t i = 0; i < kVecRows; ++i) {
      LAKEKIT_CHECK_OK(out.AppendRow({table::Value(static_cast<int64_t>(i)),
                                      table::Value(rng.NextDouble())}));
    }
    return out;
  }();
  return t;
}

ExprPtr ClusteredPredicate() {
  // id < 10000 — 1% selectivity on the clustering key: all but the first
  // few morsels are provably empty from their [min, max] alone.
  return Expr::Compare(CmpOp::kLt, Expr::Column("id"),
                       Expr::Literal(table::Value(int64_t{10000})));
}

void BM_Query_Filter_ZoneMapSkip(benchmark::State& state) {
  const table::Table& t = ClusteredTable();
  static const ZoneMap zones = ZoneMap::Build(t);
  ExprPtr pred = ClusteredPredicate();
  ExecOptions opts;
  opts.pool = &PoolFor(static_cast<int>(state.range(0)));
  FilterExecStats fstats;
  for (auto _ : state) {
    auto out = Filter(t, *pred, &zones, opts, &fstats);
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(kVecRows));
  state.counters["pruned_frac"] =
      fstats.morsels_total == 0
          ? 0.0
          : static_cast<double>(fstats.morsels_pruned) /
                static_cast<double>(fstats.morsels_total);
}

void BM_Query_Filter_NoZoneMap(benchmark::State& state) {
  // The ablation twin of BM_Query_Filter_ZoneMapSkip: same clustered table
  // and predicate, no zone map — every morsel evaluates.
  const table::Table& t = ClusteredTable();
  ExprPtr pred = ClusteredPredicate();
  ExecOptions opts;
  opts.pool = &PoolFor(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    auto out = Filter(t, *pred, opts);
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(kVecRows));
}

void BM_Query_Filter_Reference(benchmark::State& state) {
  const table::Table& t = VecTable();
  ExprPtr pred = VecPredicate();
  for (auto _ : state) {
    auto out = reference::Filter(t, *pred);
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(kVecRows));
}

void BM_Query_HashJoin_Vec(benchmark::State& state) {
  const table::Table& t = VecTable();
  const table::Table& dim = VecDimTable();
  ExecOptions opts;
  opts.pool = &PoolFor(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    auto out = HashJoin(t, dim, "key", "key", JoinType::kInner, opts);
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(kVecRows));
}

void BM_Query_HashJoin_VecBudgeted(benchmark::State& state) {
  // Budget-accounting twin of BM_Query_HashJoin_Vec (see
  // BM_Query_Filter_VecBudgeted for the methodology).
  const table::Table& t = VecTable();
  const table::Table& dim = VecDimTable();
  MemoryBudget budget(static_cast<size_t>(-1) / 2);
  BudgetAccount account(&budget);
  ExecOptions opts;
  opts.pool = &PoolFor(static_cast<int>(state.range(0)));
  opts.budget = &account;
  for (auto _ : state) {
    auto out = HashJoin(t, dim, "key", "key", JoinType::kInner, opts);
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(kVecRows));
}

void BM_Query_HashJoin_Reference(benchmark::State& state) {
  const table::Table& t = VecTable();
  const table::Table& dim = VecDimTable();
  for (auto _ : state) {
    auto out = reference::HashJoin(t, dim, "key", "key", JoinType::kInner);
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(kVecRows));
}

void BM_Query_Aggregate_Vec(benchmark::State& state) {
  const table::Table& t = VecTable();
  ExecOptions opts;
  opts.pool = &PoolFor(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    auto out = Aggregate(t, {"cat"}, VecAggs(), opts);
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(kVecRows));
}

void BM_Query_Aggregate_VecBudgeted(benchmark::State& state) {
  // Budget-accounting twin of BM_Query_Aggregate_Vec (see
  // BM_Query_Filter_VecBudgeted for the methodology).
  const table::Table& t = VecTable();
  MemoryBudget budget(static_cast<size_t>(-1) / 2);
  BudgetAccount account(&budget);
  ExecOptions opts;
  opts.pool = &PoolFor(static_cast<int>(state.range(0)));
  opts.budget = &account;
  for (auto _ : state) {
    auto out = Aggregate(t, {"cat"}, VecAggs(), opts);
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(kVecRows));
}

void BM_Query_Aggregate_Reference(benchmark::State& state) {
  const table::Table& t = VecTable();
  for (auto _ : state) {
    auto out = reference::Aggregate(t, {"cat"}, VecAggs());
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(kVecRows));
}

void BM_Query_Sort_Vec(benchmark::State& state) {
  // Arg 0 sorts by the int64 `key`, 1 by the string `cat`: the typed-key
  // sort's two payload shapes (8-byte numbers, short string views).
  const table::Table& t = VecTable();
  const std::string column = state.range(0) == 0 ? "key" : "cat";
  for (auto _ : state) {
    auto out = Sort(t, column, /*ascending=*/true);
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(kVecRows));
}

}  // namespace

// Arg: thread count for the morsel pool.
BENCHMARK(BM_Query_Filter_Vec)->Arg(1)->Arg(4)->Arg(16)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Query_Filter_VecArmed)->Arg(1)->Arg(4)->Arg(16)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Query_Filter_VecBudgeted)->Arg(1)->Arg(4)->Arg(16)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Query_Filter_Reference)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Query_Filter_ZoneMapSkip)->Arg(1)->Arg(4)->Arg(16)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Query_Filter_NoZoneMap)->Arg(1)->Arg(4)->Arg(16)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Query_HashJoin_Vec)->Arg(1)->Arg(4)->Arg(16)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Query_HashJoin_VecBudgeted)->Arg(1)->Arg(4)->Arg(16)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Query_HashJoin_Reference)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Query_Aggregate_Vec)->Arg(1)->Arg(4)->Arg(16)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Query_Aggregate_VecBudgeted)->Arg(1)->Arg(4)->Arg(16)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Query_Aggregate_Reference)->Unit(benchmark::kMillisecond);
// Arg: 0 = int64 key column, 1 = string key column.
BENCHMARK(BM_Query_Sort_Vec)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

// Args: {rows, selectivity-kept-percent}.
BENCHMARK(BM_Federated_WithPushdown)
    ->Args({5000, 5})
    ->Args({5000, 50})
    ->Args({20000, 5})
    ->Args({20000, 50});
BENCHMARK(BM_Federated_WithoutPushdown)
    ->Args({5000, 5})
    ->Args({5000, 50})
    ->Args({20000, 5})
    ->Args({20000, 50});
BENCHMARK(BM_Federated_SingleSourceScan)->Arg(20000);
BENCHMARK(BM_Federated_QueryArmed)->Args({5000, 5})->Args({20000, 5});
// Arg: 0 = no front door, 1 = admission armed. Compare goodput_frac.
BENCHMARK(BM_Federated_QueryStorm)->Arg(0)->Arg(1)
    ->Unit(benchmark::kMillisecond)->UseRealTime();

// Args: {rows, keep-percent}. Compare Cold vs Cached at the same args for
// the warm-over-cold win (EXPERIMENTS.md).
BENCHMARK(BM_Federated_QueryCold)
    ->Args({5000, 5})
    ->Args({5000, 50})
    ->Args({100000, 5})
    ->Args({100000, 50});
BENCHMARK(BM_Federated_QueryCached)
    ->Args({5000, 5})
    ->Args({5000, 50})
    ->Args({100000, 5})
    ->Args({100000, 50});

// Arg: 0 = 6 000-row numeric fact table, 1 = 800-row string table.
BENCHMARK(BM_Table_FromCsv)->Arg(0)->Arg(1)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_ZoneMap_Build)->Arg(0)->Arg(1)->Unit(benchmark::kMicrosecond);

BENCHMARK_MAIN();
