// query_warm and query_refresh: SQL text -> result table through a
// FederatedEngine built over DataLake::polystore() with a TableCache, a
// MemoryBudget and an AdmissionController (the production configuration).

#include <algorithm>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "catalog/catalog.h"
#include "common/memory_budget.h"
#include "common/thread_pool.h"
#include "core/data_lake.h"
#include "harness/oracle.h"
#include "harness/replay.h"
#include "harness/workloads.h"
#include "ingest/profiler.h"
#include "query/admission.h"
#include "query/federation.h"
#include "query/table_cache.h"
#include "query/zone_map.h"
#include "storage/object_store.h"

namespace lake_e2e {

namespace {

namespace fs = std::filesystem;
namespace query = lakekit::query;
using lakekit::Result;
using lakekit::Status;
using lakekit::core::DataLake;

constexpr size_t kCacheBytes = 6u << 20;
/// Large enough that no query is ever refused.
constexpr size_t kBudgetBytes = 1u << 30;
constexpr size_t kSetups = 5;
constexpr size_t kInstancesPerShape = 32;
constexpr double kMiB = 1024.0 * 1024.0;
constexpr char kFactKey[] = "landing/fact/fact.csv";
constexpr char kFactFile[] = "fact.csv";
/// p50_ms and p99_ms average their quantile over windows of completion
/// time (see WindowedQuantile); a p99 window holds over a thousand queries.
constexpr int64_t kMedianWindowNs = 1000000000;
constexpr int64_t kTailWindowNs = 10000000000;

/// query_warm: the fact table's decoded charge is above a quarter of the
/// cache and all three sources fit in half of it (reported at set-up).
constexpr SourceSizes kWarmSizes{6000, 3000, 1500};
constexpr size_t kWarmClients = FindLoad("query_warm")->clients;
constexpr size_t kWarmWorkers = FindLoad("query_warm")->pool_workers;
/// query_refresh: a smaller fact table, so a run lands over a thousand
/// versions; their decoded bytes exceed the cache many times over.
constexpr SourceSizes kRefreshSizes{1000, 6000, 2000};
constexpr size_t kRefreshClients = FindLoad("query_refresh")->clients;
constexpr size_t kRefreshWorkers = FindLoad("query_refresh")->pool_workers;
constexpr size_t kRefreshVersions = 8;
/// The shapes that read the refreshed source.
constexpr Shape kRefreshShapes[] = {Shape::kRange, Shape::kJoinGroup,
                                    Shape::kTopK};

/// A lake plus the engine configuration over it. Members are declared in
/// dependency order, so they are destroyed engine first, lake last.
struct QueryLake {
  std::string dir;
  std::unique_ptr<DataLake> lake;
  std::unique_ptr<lakekit::MemoryBudget> budget;
  std::unique_ptr<query::TableCache> cache;
  std::unique_ptr<query::AdmissionController> admission;
  std::unique_ptr<lakekit::ThreadPool> pool;
  std::unique_ptr<query::FederatedEngine> engine;

  EngineParts parts() const {
    return EngineParts{&lake->polystore(), cache.get(), budget.get(),
                       admission.get(), pool.get()};
  }
};

/// Lands `csv` as the next version of the object-tier fact table through
/// the write path the object tier supports: a Put on Polystore::objects()
/// (bumping the dataset's generation), ProfileFile on the new bytes, and
/// Catalog::Update. Traced, the same calls with a span each.
Status LandVersion(DataLake* lake, const std::string& csv, ThreadTrace* tt) {
  if (tt != nullptr) tt->BeginRequest();
  Span root(tt, "e2e.refresh");
  {
    Span span(tt, "storage.object_put");
    LAKEKIT_RETURN_IF_ERROR(lake->polystore().objects().Put(kFactKey, csv));
  }
  lakekit::ingest::FileProfile profile;
  if (tt == nullptr) {
    LAKEKIT_ASSIGN_OR_RETURN(profile, lakekit::ingest::Profiler::ProfileFile(
                                          kFactFile, kFactKey, csv));
  } else {
    LAKEKIT_ASSIGN_OR_RETURN(profile, ProfileFile(tt, kFactFile, kFactKey, csv));
  }
  Span span(tt, "catalog.update");
  return lake->catalog().Update(MakeCatalogEntry("fact", profile, {}));
}

/// Opens a fresh lake and lands the three sources, one per tabular tier.
Result<std::unique_ptr<QueryLake>> OpenQueryLake(const std::string& dir,
                                                 const std::string& fact_csv,
                                                 const QuerySources& src,
                                                 size_t clients,
                                                 size_t workers) {
  auto q = std::make_unique<QueryLake>();
  q->dir = dir;
  LAKEKIT_ASSIGN_OR_RETURN(DataLake lake, DataLake::Open(dir));
  q->lake = std::make_unique<DataLake>(std::move(lake));
  DataLake* l = q->lake.get();
  LAKEKIT_RETURN_IF_ERROR(
      l->polystore().StoreObject("fact", kFactKey, fact_csv));
  LAKEKIT_ASSIGN_OR_RETURN(
      lakekit::ingest::FileProfile profile,
      lakekit::ingest::Profiler::ProfileFile(kFactFile, kFactKey, fact_csv));
  LAKEKIT_RETURN_IF_ERROR(
      l->catalog().Register(MakeCatalogEntry("fact", profile, {})));
  LAKEKIT_RETURN_IF_ERROR(
      l->IngestFile("customers", "customers.csv", CustomersCsv(src.customers))
          .status());
  LAKEKIT_RETURN_IF_ERROR(
      l->IngestFile("products", "products.json", ProductsJson(src.products))
          .status());

  q->budget = std::make_unique<lakekit::MemoryBudget>(kBudgetBytes);
  query::TableCacheOptions copts;
  copts.capacity_bytes = kCacheBytes;
  copts.process_budget = q->budget.get();
  q->cache = std::make_unique<query::TableCache>(copts);
  query::AdmissionOptions aopts;
  aopts.max_concurrent = clients;
  aopts.max_queue_depth = 16;
  q->admission = std::make_unique<query::AdmissionController>(aopts);
  q->pool = std::make_unique<lakekit::ThreadPool>(workers);
  query::FederatedEngineOptions eopts;
  eopts.table_cache = q->cache.get();
  eopts.memory_budget = q->budget.get();
  eopts.admission = q->admission.get();
  q->engine =
      std::make_unique<query::FederatedEngine>(&l->polystore(), eopts);
  return q;
}

/// One query through the entry point (tt == nullptr) or the traced replay.
Result<lakekit::table::Table> RunQuery(QueryLake* q, const std::string& sql,
                                       ThreadTrace* tt,
                                       query::FederationStats* stats) {
  if (tt != nullptr) return Query(tt, q->parts(), sql, stats);
  query::QueryOptions opts;
  opts.pool = q->pool.get();
  opts.stats_out = stats;
  return q->engine->Query(sql, opts);
}

/// Latencies and outcomes of one client.
struct ClientLog {
  std::vector<double> untraced_ms;
  std::vector<TimedSample> untraced_timed;
  std::vector<double> traced_ms;
  std::map<Shape, std::vector<double>> by_shape;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::string error;
  uint64_t rows_scanned = 0;
  uint64_t rows_shipped = 0;

  void Fail(const std::string& what) {
    if (error.empty()) error = what;
  }
};

/// Runs and checks one query, recording its latency.
void TimedQuery(QueryLake* q, const QueryInstance& inst, const Answer& expected,
                ThreadTrace* tt, ClientLog* log) {
  ++log->attempted;
  query::FederationStats stats;
  const int64_t start = NowNs();
  Result<lakekit::table::Table> r = RunQuery(q, inst.sql, tt, &stats);
  const int64_t end = NowNs();
  const double ms = Millis(end - start);
  if (!r.ok()) {
    ++log->failed;
    log->Fail(std::string(ShapeName(inst.shape)) + ": " + r.status().ToString());
    return;
  }
  (tt == nullptr ? log->untraced_ms : log->traced_ms).push_back(ms);
  if (tt == nullptr) {
    log->untraced_timed.push_back(TimedSample{end, ms});
    log->by_shape[inst.shape].push_back(ms);
    log->rows_scanned += stats.rows_scanned;
    log->rows_shipped += stats.rows_shipped;
  }
  const std::string diff = Compare(inst, expected, FromTable(*r));
  if (!diff.empty()) log->Fail("wrong answer: " + diff);
}

/// Entry point and traced replay must return identical tables.
std::string CompareReplay(QueryLake* q, const QueryInstance& inst,
                          ThreadTrace* tt) {
  query::FederationStats a;
  query::FederationStats b;
  Result<lakekit::table::Table> direct = RunQuery(q, inst.sql, nullptr, &a);
  Result<lakekit::table::Table> replay = RunQuery(q, inst.sql, tt, &b);
  if (!direct.ok() || !replay.ok()) return "replay or entry point failed";
  const Answer x = FromTable(*direct);
  const Answer y = FromTable(*replay);
  if (x.columns != y.columns || x.rows != y.rows ||
      a.rows_shipped != b.rows_shipped || a.rows_scanned != b.rows_scanned) {
    return std::string("traced replay of ") + ShapeName(inst.shape) +
           " differs from FederatedEngine::Query";
  }
  return "";
}

/// Cache and front-door counters at one instant.
struct Snapshot {
  lakekit::LruCacheStats cache;
  query::AdmissionStats admission;
};

Snapshot Snap(const QueryLake& q) {
  return Snapshot{q.cache->stats(), q.admission->stats()};
}

/// Fills the end-to-end or per-layer metrics common to both workloads.
/// The tracing overhead is taken per unit both halves of a traced run share
/// (a query; a refresh step): `traced_units` of them were traced, and
/// `untraced_units` holds the latencies of the others.
void Finish(const RunConfig& cfg, const std::vector<double>& setups,
            const std::vector<ClientLog>& logs, double elapsed_s,
            const QueryLake& q, const Snapshot& before, uint64_t raw_bytes,
            size_t traced_units, const std::vector<double>& untraced_units,
            const Tracer& tracer, RunResult* out) {
  std::vector<double> untraced;
  std::vector<TimedSample> timed;
  std::vector<double> traced;
  std::map<Shape, std::vector<double>> by_shape;
  uint64_t scanned = 0;
  uint64_t shipped = 0;
  for (const ClientLog& log : logs) {
    untraced.insert(untraced.end(), log.untraced_ms.begin(),
                    log.untraced_ms.end());
    timed.insert(timed.end(), log.untraced_timed.begin(),
                 log.untraced_timed.end());
    traced.insert(traced.end(), log.traced_ms.begin(), log.traced_ms.end());
    for (const auto& [s, v] : log.by_shape) {
      by_shape[s].insert(by_shape[s].end(), v.begin(), v.end());
    }
    out->attempted += log.attempted;
    out->failed += log.failed;
    scanned += log.rows_scanned;
    shipped += log.rows_shipped;
    if (!log.error.empty()) out->Fail(log.error);
  }
  const Summary s = Summarize(untraced);
  out->Line("query: " + FormatSummary(s, "ms"));
  for (const auto& [shape, v] : by_shape) {
    out->Line(std::string("  ") + ShapeName(shape) + ": " +
              FormatSummary(Summarize(v), "ms"));
  }
  const Snapshot after = Snap(q);
  const uint64_t hits = after.cache.hits - before.cache.hits;
  const uint64_t misses = after.cache.misses - before.cache.misses;
  const uint64_t evictions = after.cache.evictions - before.cache.evictions;
  out->Line("table cache: " + std::to_string(hits) + " hits, " +
            std::to_string(misses) + " misses, " + std::to_string(evictions) +
            " evictions over the timed phase");
  const bool json = !cfg.trace;
  AddSetup(out, setups, json);
  AddMetric(out, "peak_rss_mb", "MB", PeakRssMb(), json);
  const double p50 = WindowedQuantile(timed, kMedianWindowNs, 0.5);
  const double p99 = WindowedQuantile(timed, kTailWindowNs, 0.99);
  AddMetric(out, "p50_ms", "ms", p50, json);
  if (!cfg.trace && !TailSupported(s.n, 0.99)) {
    out->Fail("p99_ms needs at least 1000 query samples, got " +
              std::to_string(s.n));
  }
  AddMetric(out, "p99_ms", "ms", p99, json);
  const double qps =
      static_cast<double>(untraced.size() + traced.size()) / elapsed_s;
  AddMetric(out, "throughput_per_s", "1/s", qps, json);
  AddMetric(out, "query_p50_ms", "ms", p50, false);
  AddMetric(out, "query_p99_ms", "ms", p99, false);
  AddMetric(out, "query_per_s", "1/s", qps, false);
  AddMetric(out, "error_frac", "fraction",
            out->attempted == 0 ? 0
                                : static_cast<double>(out->failed) /
                                      static_cast<double>(out->attempted),
            false);
  if (!cfg.trace) return;

  ProgramCounters pc;
  pc.traced_ops = traced.size();
  const double ops =
      static_cast<double>(std::max<size_t>(untraced.size() + traced.size(), 1));
  pc.cache_hit_ratio = hits + misses == 0
                           ? 0
                           : static_cast<double>(hits) /
                                 static_cast<double>(hits + misses);
  pc.cache_evictions_per_op = static_cast<double>(evictions) / ops;
  pc.admission_queued_per_op =
      static_cast<double>(after.admission.queued - before.admission.queued) / ops;
  pc.admission_shed_per_op =
      static_cast<double>(after.admission.shed - before.admission.shed) / ops;
  pc.budget_peak_mb = static_cast<double>(q.budget->peak_used()) / kMiB;
  pc.disk_bytes_per_raw_byte = static_cast<double>(DiskBytes(q.dir)) /
                               static_cast<double>(std::max<uint64_t>(raw_bytes, 1));
  pc.ship_ratio = scanned == 0 ? 0
                               : static_cast<double>(shipped) /
                                     static_cast<double>(scanned);
  const TraceSummary summary = tracer.Summarize();
  pc.overhead_frac = OverheadFrac(summary, traced_units, untraced_units);
  AddPerLayer(summary, pc, out);
  if (!cfg.trace_out.empty() && !tracer.WriteTsv(cfg.trace_out)) {
    out->Line("could not write " + cfg.trace_out);
  }
}

/// The decoded charge of each source, as the cache would charge it.
void ReportWarmSizing(QueryLake* q, RunResult* out) {
  size_t total = 0;
  size_t largest = 0;
  for (const char* name : {"fact", "customers", "products"}) {
    Result<lakekit::table::Table> t = q->lake->polystore().ReadAsTable(name);
    if (!t.ok()) {
      out->Fail(std::string("read ") + name + ": " + t.status().ToString());
      return;
    }
    const size_t charge = lakekit::table::EstimateTableBytes(*t) +
                          query::ZoneMap::Build(*t).memory_bytes();
    out->Line(std::string("source ") + name + ": " +
              std::to_string(t->num_rows()) + " rows, cache charge " +
              std::to_string(static_cast<double>(charge) / kMiB) + " MiB");
    total += charge;
    largest = std::max(largest, charge);
  }
  // Reported, not enforced: a change to the decoded layout moves these
  // charges, and the run must still measure it.
  const bool as_designed = total <= kCacheBytes / 2 && largest > kCacheBytes / 4;
  out->Line("table cache capacity " + std::to_string(kCacheBytes / kMiB) +
            " MiB; hot set " + std::to_string(static_cast<double>(total) / kMiB) +
            " MiB" +
            (as_designed ? " (fits in half; largest above a quarter)"
                         : " (no longer the designed half/quarter sizing)"));
}

}  // namespace

RunResult RunQueryWarm(const RunConfig& cfg) {
  RunResult out;
  out.clients = kWarmClients;
  out.pool_workers = kWarmWorkers;
  out.cache_capacity_bytes = kCacheBytes;
  std::error_code ec;
  fs::remove_all(cfg.lake_dir, ec);

  std::vector<double> setups;
  std::unique_ptr<QueryLake> q;
  QuerySources src;
  std::vector<std::vector<std::pair<QueryInstance, Answer>>> pool(kNumShapes);
  uint64_t raw_bytes = 0;
  for (size_t s = 0; s < kSetups; ++s) {
    q.reset();
    fs::remove_all(cfg.lake_dir, ec);
    const int64_t start = NowNs();
    src = MakeQuerySources(cfg.seed, kWarmSizes);
    const std::string fact_csv = FactCsv(src.fact);
    SplitMix rng(cfg.seed ^ 0x9e3779b9ULL);
    for (int shape = 0; shape < kNumShapes; ++shape) {
      pool[shape].clear();
      for (size_t i = 0; i < kInstancesPerShape; ++i) {
        QueryInstance inst =
            MakeInstance(static_cast<Shape>(shape), &rng, src.fact.size());
        Answer expected = Expected(inst, src.fact, src.customers, src.products);
        pool[shape].emplace_back(std::move(inst), std::move(expected));
      }
    }
    Result<std::unique_ptr<QueryLake>> opened =
        OpenQueryLake(cfg.lake_dir, fact_csv, src, kWarmClients, kWarmWorkers);
    if (!opened.ok()) {
      out.Fail("set-up: " + opened.status().ToString());
      return out;
    }
    q = std::move(*opened);
    // Warm-up: every shape once, so every source is decoded and admitted.
    ClientLog warm;
    for (int shape = 0; shape < kNumShapes; ++shape) {
      TimedQuery(q.get(), pool[shape][0].first, pool[shape][0].second, nullptr,
                 &warm);
    }
    setups.push_back(Seconds(NowNs() - start));
    if (!warm.error.empty()) {
      out.Fail("warm-up: " + warm.error);
      return out;
    }
    raw_bytes = fact_csv.size() + CustomersCsv(src.customers).size() +
                ProductsJson(src.products).size();
  }
  ReportWarmSizing(q.get(), &out);

  Tracer tracer;
  std::vector<ThreadTrace*> traces(kWarmClients, nullptr);
  if (cfg.trace) {
    for (ThreadTrace*& t : traces) t = tracer.NewThread();
    for (int shape = 0; shape < kNumShapes; ++shape) {
      const std::string diff = CompareReplay(q.get(), pool[shape][0].first, nullptr);
      if (!diff.empty()) out.Fail(diff);
    }
  }
  if (!out.correct) return out;

  std::vector<ClientLog> logs(kWarmClients);
  const Snapshot before = Snap(*q);
  const int64_t start = NowNs();
  const int64_t deadline = start + static_cast<int64_t>(cfg.seconds * 1e9);
  std::vector<std::thread> clients;
  for (size_t c = 0; c < kWarmClients; ++c) {
    clients.emplace_back([&, c] {
      SplitMix rng(cfg.seed * 7919 + c + 1);
      for (uint64_t k = 0; NowNs() < deadline; ++k) {
        // Weighted so the median sits inside the range-filter cluster.
        const uint64_t pick = rng.Below(100);
        const Shape shape = pick < 60   ? Shape::kRange
                            : pick < 75 ? Shape::kJoinGroup
                            : pick < 90 ? Shape::kGroupAggs
                                        : Shape::kTopK;
        const auto& [inst, expected] =
            pool[static_cast<int>(shape)][rng.Below(kInstancesPerShape)];
        ThreadTrace* tt = cfg.trace && k % 2 == 1 ? traces[c] : nullptr;
        TimedQuery(q.get(), inst, expected, tt, &logs[c]);
      }
    });
  }
  for (std::thread& t : clients) t.join();
  const double elapsed = Seconds(NowNs() - start);
  size_t traced = 0;
  std::vector<double> untraced;
  for (const ClientLog& log : logs) {
    traced += log.traced_ms.size();
    untraced.insert(untraced.end(), log.untraced_ms.begin(),
                    log.untraced_ms.end());
  }
  Finish(cfg, setups, logs, elapsed, *q, before, raw_bytes, traced, untraced,
         tracer, &out);
  q.reset();
  fs::remove_all(cfg.lake_dir, ec);
  return out;
}

RunResult RunQueryRefresh(const RunConfig& cfg) {
  RunResult out;
  out.clients = kRefreshClients;
  out.pool_workers = kRefreshWorkers;
  out.cache_capacity_bytes = kCacheBytes;
  std::error_code ec;
  fs::remove_all(cfg.lake_dir, ec);

  struct Version {
    std::vector<FactRow> rows;
    std::string csv;
  };
  std::vector<double> setups;
  std::unique_ptr<QueryLake> q;
  QuerySources src;
  std::vector<Version> versions;
  uint64_t raw_bytes = 0;
  for (size_t s = 0; s < kSetups; ++s) {
    q.reset();
    fs::remove_all(cfg.lake_dir, ec);
    const int64_t start = NowNs();
    src = MakeQuerySources(cfg.seed, kRefreshSizes);
    const std::vector<FactRow> fact0 =
        MakeFactVersion(cfg.seed, kRefreshSizes, 0);
    const std::string fact_csv = FactCsv(fact0);
    versions.clear();
    for (uint64_t v = 1; v <= kRefreshVersions; ++v) {
      Version ver;
      ver.rows = MakeFactVersion(cfg.seed, kRefreshSizes, v);
      ver.csv = FactCsv(ver.rows);
      versions.push_back(std::move(ver));
    }
    Result<std::unique_ptr<QueryLake>> opened = OpenQueryLake(
        cfg.lake_dir, fact_csv, src, kRefreshClients, kRefreshWorkers);
    if (!opened.ok()) {
      out.Fail("set-up: " + opened.status().ToString());
      return out;
    }
    q = std::move(*opened);
    // Warm the sources that are not refreshed.
    SplitMix rng(cfg.seed);
    ClientLog warm;
    for (Shape shape : {Shape::kGroupAggs, Shape::kJoinGroup}) {
      const QueryInstance inst = MakeInstance(shape, &rng, fact0.size());
      TimedQuery(q.get(), inst,
                 Expected(inst, fact0, src.customers, src.products), nullptr,
                 &warm);
    }
    setups.push_back(Seconds(NowNs() - start));
    if (!warm.error.empty()) {
      out.Fail("warm-up: " + warm.error);
      return out;
    }
    raw_bytes = fact_csv.size() + CustomersCsv(src.customers).size() +
                ProductsJson(src.products).size();
  }

  Tracer tracer;
  ThreadTrace* tt = cfg.trace ? tracer.NewThread() : nullptr;
  if (cfg.trace) {
    Result<lakekit::ingest::FileProfile> direct =
        lakekit::ingest::Profiler::ProfileFile(kFactFile, kFactKey,
                                               versions[0].csv);
    Result<lakekit::ingest::FileProfile> replay =
        ProfileFile(nullptr, kFactFile, kFactKey, versions[0].csv);
    if (!direct.ok() || !replay.ok() || !DiffProfiles(*direct, *replay).empty()) {
      out.Fail("traced ProfileFile replay differs from Profiler::ProfileFile");
    }
  }

  // One closed-loop client: land a version, then query it.
  std::vector<ClientLog> logs(1);
  ClientLog& log = logs[0];
  std::vector<double> refresh_ms;
  size_t traced_steps = 0;
  std::vector<double> untraced_steps;
  std::vector<size_t> acked;
  SplitMix rng(cfg.seed * 104729 + 3);
  const Snapshot before = Snap(*q);
  const int64_t start = NowNs();
  const int64_t deadline = start + static_cast<int64_t>(cfg.seconds * 1e9);
  for (uint64_t step = 0; out.correct && NowNs() < deadline; ++step) {
    const size_t v = step % kRefreshVersions;
    ThreadTrace* trace = cfg.trace && step % 2 == 1 ? tt : nullptr;
    ++log.attempted;
    const int64_t t0 = NowNs();
    const Status landed = LandVersion(q->lake.get(), versions[v].csv, trace);
    const int64_t t1 = NowNs();
    if (!landed.ok()) {
      ++log.failed;
      log.Fail("refresh: " + landed.ToString());
      break;
    }
    acked.push_back(v);
    raw_bytes += versions[v].csv.size();
    if (trace == nullptr) refresh_ms.push_back(Millis(t1 - t0));
    const Shape shape = kRefreshShapes[step % std::size(kRefreshShapes)];
    const QueryInstance inst = MakeInstance(shape, &rng, versions[v].rows.size());
    const size_t before_queries = log.untraced_ms.size();
    TimedQuery(q.get(), inst,
               Expected(inst, versions[v].rows, src.customers, src.products),
               trace, &log);
    if (trace != nullptr) {
      ++traced_steps;
    } else if (log.untraced_ms.size() > before_queries) {
      untraced_steps.push_back(Millis(t1 - t0) + log.untraced_ms.back());
    }
    if (!log.error.empty()) break;
  }
  const double elapsed = Seconds(NowNs() - start);
  const Summary refresh = Summarize(refresh_ms);
  out.Line("refresh: " + FormatSummary(refresh, "ms"));
  AddMetric(&out, "refresh_p50_ms", "ms", refresh.p50, false);
  Finish(cfg, setups, logs, elapsed, *q, before, raw_bytes, traced_steps,
         untraced_steps, tracer, &out);

  // Durability: reopen the catalog and the object store from disk; they
  // must hold every acknowledged version.
  const std::string dir = q->dir;
  q.reset();
  Result<lakekit::catalog::Catalog> catalog =
      lakekit::catalog::Catalog::Open(dir + "/catalog");
  Result<lakekit::storage::ObjectStore> objects =
      lakekit::storage::ObjectStore::Open(dir + "/objects");
  if (!catalog.ok() || !objects.ok()) {
    out.Fail("reopening the lake failed");
  } else {
    Result<std::vector<lakekit::catalog::DatasetEntry>> history =
        catalog->History("fact");
    std::map<uint64_t, const lakekit::catalog::DatasetEntry*> by_version;
    if (history.ok()) {
      for (const auto& e : *history) by_version[e.version] = &e;
    }
    if (!history.ok() || by_version.size() != acked.size() + 1) {
      out.Fail("catalog history lost acknowledged versions");
    } else {
      for (size_t i = 0; i < acked.size(); ++i) {
        auto it = by_version.find(i + 2);
        const Version& ver = versions[acked[i]];
        if (it == by_version.end() ||
            it->second->num_records != ver.rows.size() ||
            it->second->size_bytes != ver.csv.size()) {
          out.Fail("catalog version " + std::to_string(i + 2) +
                   " does not describe the version landed");
          break;
        }
      }
    }
    Result<std::string> stored = objects->Get(kFactKey);
    if (!acked.empty() &&
        (!stored.ok() || *stored != versions[acked.back()].csv)) {
      out.Fail("object store does not hold the last acknowledged version");
    }
  }
  fs::remove_all(cfg.lake_dir, ec);
  return out;
}

}  // namespace lake_e2e
