// lake_build: a cold build of a DLBench-shaped lake from raw bytes
// (structured CSV tables, JSON document arrays and log text), then a fixed
// discovery mix whose answers are checked against the planted ground truth.

#include <cstdio>
#include <filesystem>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "common/thread_pool.h"
#include "core/data_lake.h"
#include "harness/oracle.h"
#include "harness/replay.h"
#include "harness/workloads.h"
#include "json/writer.h"
#include "workload/generator.h"

namespace lake_e2e {

namespace {

namespace fs = std::filesystem;
using lakekit::core::DataLake;

/// Fixed sizes: the same for every seed and host.
constexpr size_t kJoinableTables = 120;
constexpr size_t kRowsPerTable = 800;
constexpr size_t kPlantedPairs = 20;
constexpr size_t kUnionGroups = 8;
constexpr size_t kTablesPerGroup = 4;
constexpr size_t kJsonFiles = 8;
constexpr size_t kDocsPerVersion = 80;
constexpr size_t kLogFiles = 8;
constexpr size_t kLogLines = 1500;
constexpr size_t kShards = 16;
constexpr size_t kRequestsPerBuild = 300;
constexpr size_t kTopK = 5;
constexpr size_t kSetups = 5;
/// One client issues every call; Aurum's build runs on the process default
/// pool, which main() pins to the workload's worker count.
constexpr const LoadShape& kLoad = *FindLoad("lake_build");

struct LakeFile {
  std::string name;
  std::string filename;
  std::string content;
  lakekit::core::IngestOptions options;
};

enum class Kind { kAurum, kJosie, kSearch, kUnion };

const char* KindName(Kind k) {
  switch (k) {
    case Kind::kAurum:
      return "aurum";
    case Kind::kJosie:
      return "josie";
    case Kind::kSearch:
      return "search";
    case Kind::kUnion:
      return "union";
  }
  return "?";
}

/// One discovery request and the ground truth it is checked against.
struct Request {
  Kind kind = Kind::kAurum;
  std::string dataset;
  std::string column;
  std::string keyword;
  /// Aurum/JOSIE: the planted partner ("table" or "table.column"); union:
  /// the group mates; search: every dataset carrying the keyword.
  std::set<std::string> expected;
};

struct LakeInputs {
  std::vector<LakeFile> files;
  uint64_t raw_bytes = 0;
  std::vector<Request> requests;
};

std::string ShardKeyword(size_t shard) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "shard-%02zu", shard);
  return buf;
}

LakeInputs MakeInputs(uint64_t seed) {
  namespace wl = lakekit::workload;
  LakeInputs in;
  lakekit::ThreadPool serial(1);
  wl::JoinableLakeOptions jo;
  jo.num_tables = kJoinableTables;
  jo.rows_per_table = kRowsPerTable;
  jo.num_planted_pairs = kPlantedPairs;
  jo.seed = seed * 1000 + 1;
  wl::JoinableLake joinable = wl::MakeJoinableLake(jo, &serial);
  wl::UnionableLakeOptions uo;
  uo.num_groups = kUnionGroups;
  uo.tables_per_group = kTablesPerGroup;
  uo.rows_per_table = kRowsPerTable;
  uo.seed = seed * 1000 + 2;
  wl::UnionableLake unionable = wl::MakeUnionableLake(uo);

  auto add = [&](std::string name, std::string ext, std::string content) {
    LakeFile f;
    f.filename = name + ext;
    f.name = std::move(name);
    f.content = std::move(content);
    f.options.description = ShardKeyword(in.files.size() % kShards);
    in.raw_bytes += f.content.size();
    in.files.push_back(std::move(f));
  };
  for (const lakekit::table::Table& t : joinable.tables) {
    add(t.name(), ".csv", t.ToCsv());
  }
  for (const lakekit::table::Table& t : unionable.tables) {
    add(t.name(), ".csv", t.ToCsv());
  }
  for (size_t i = 0; i < kJsonFiles; ++i) {
    wl::EvolvingCorpusOptions eo;
    eo.docs_per_version = kDocsPerVersion;
    eo.seed = seed * 1000 + 100 + i;
    wl::EvolvingCorpus corpus = wl::MakeEvolvingCorpus(eo);
    lakekit::json::Array docs(corpus.documents.begin(), corpus.documents.end());
    add("docs" + std::to_string(i), ".json",
        lakekit::json::Write(lakekit::json::Value(std::move(docs))));
  }
  for (size_t i = 0; i < kLogFiles; ++i) {
    wl::LogCorpusOptions lo;
    lo.total_lines = kLogLines;
    lo.seed = seed * 1000 + 200 + i;
    add("log" + std::to_string(i), ".log", wl::MakeLogCorpus(lo).text);
  }

  // The discovery mix: per ten requests three Aurum, five JOSIE, one
  // search and one union search, so its median sits inside the JOSIE
  // latency cluster and its p99 inside the union one. Targets cycle through
  // every planted pair (both directions), union table and shard, so each
  // seed's mix has the same make-up; the seed only picks the rotation.
  SplitMix rng(seed ^ 0xd15c0ULL);
  std::map<std::string, std::set<std::string>> by_shard;
  for (const LakeFile& f : in.files) by_shard[f.options.description].insert(f.name);
  const size_t sides = 2 * joinable.planted.size();
  size_t next_side = rng.Below(sides);
  size_t next_union = rng.Below(unionable.tables.size());
  size_t next_shard = rng.Below(kShards);
  for (size_t i = 0; i < kRequestsPerBuild; ++i) {
    Request r;
    const size_t slot = i % 10;
    if (slot < 8) {
      r.kind = slot < 3 ? Kind::kAurum : Kind::kJosie;
      const size_t side = next_side++ % sides;
      const wl::PlantedPair& p = joinable.planted[side / 2];
      const bool forward = side % 2 == 0;
      r.dataset = forward ? p.table_a : p.table_b;
      r.column = forward ? p.column_a : p.column_b;
      const std::string& other = forward ? p.table_b : p.table_a;
      const std::string& other_col = forward ? p.column_b : p.column_a;
      r.expected.insert(r.kind == Kind::kAurum ? other : other + "." + other_col);
    } else if (slot == 8) {
      r.kind = Kind::kSearch;
      r.keyword = ShardKeyword(next_shard++ % kShards);
      r.expected = by_shard[r.keyword];
    } else {
      r.kind = Kind::kUnion;
      const size_t t = next_union++ % unionable.tables.size();
      r.dataset = unionable.tables[t].name();
      for (size_t j = 0; j < unionable.tables.size(); ++j) {
        if (j != t && unionable.group_of[j] == unionable.group_of[t]) {
          r.expected.insert(unionable.tables[j].name());
        }
      }
    }
    in.requests.push_back(std::move(r));
  }
  return in;
}

/// A discovery answer as (name, score) pairs.
using Answer = std::vector<std::pair<std::string, double>>;

std::string AnswerKey(const Answer& a) {
  std::string s;
  char buf[40];
  for (const auto& [name, score] : a) {
    std::snprintf(buf, sizeof(buf), ":%.17g;", score);
    s += name + buf;
  }
  return s;
}

/// Runs one request against either the facade (untraced) or the
/// benchmark-held indexes (traced replay).
lakekit::Result<Answer> Discover(DataLake* lake, const DiscoveryIndexes* idx,
                                 ThreadTrace* tt, const Request& r) {
  Answer out;
  if (tt != nullptr) tt->BeginRequest();
  Span root(tt, "e2e.discovery");
  switch (r.kind) {
    case Kind::kAurum: {
      std::vector<lakekit::discovery::TableMatch> m;
      if (idx == nullptr) {
        LAKEKIT_ASSIGN_OR_RETURN(m, lake->FindJoinableTables(r.dataset, kTopK));
      } else {
        Span span(tt, "discovery.aurum_topk");
        LAKEKIT_ASSIGN_OR_RETURN(size_t t, idx->corpus->TableIndex(r.dataset));
        m = idx->aurum->TopKJoinableTables(t, kTopK);
      }
      for (const auto& x : m) out.emplace_back(x.table_name, x.score);
      break;
    }
    case Kind::kJosie: {
      std::vector<lakekit::discovery::ColumnMatch> m;
      const lakekit::discovery::Corpus* corpus =
          idx == nullptr ? lake->corpus() : idx->corpus.get();
      if (idx == nullptr) {
        LAKEKIT_ASSIGN_OR_RETURN(
            m, lake->FindJoinableColumns(r.dataset, r.column, kTopK));
      } else {
        Span span(tt, "discovery.josie_topk");
        LAKEKIT_ASSIGN_OR_RETURN(lakekit::discovery::ColumnId id,
                                 idx->corpus->FindColumn(r.dataset, r.column));
        m = idx->josie->TopKOverlapColumns(id, kTopK);
        tt->counters().josie_postings += idx->josie->last_query_postings_scanned();
        ++tt->counters().josie_queries;
      }
      for (const auto& x : m) {
        const lakekit::table::Table& t = corpus->table(x.column.table_idx);
        out.emplace_back(t.name() + "." + t.schema().field(x.column.col_idx).name,
                         x.score);
      }
      break;
    }
    case Kind::kUnion: {
      std::vector<lakekit::discovery::UnionMatch> m;
      if (idx == nullptr) {
        LAKEKIT_ASSIGN_OR_RETURN(
            m, lake->FindUnionableTables(r.dataset, kTablesPerGroup - 1));
      } else {
        Span span(tt, "discovery.union_topk");
        LAKEKIT_ASSIGN_OR_RETURN(size_t t, idx->corpus->TableIndex(r.dataset));
        m = idx->union_search->TopKUnionableTables(t, kTablesPerGroup - 1);
      }
      for (const auto& x : m) out.emplace_back(x.table_name, x.score);
      break;
    }
    case Kind::kSearch: {
      std::vector<lakekit::catalog::DatasetEntry> m;
      if (idx == nullptr) {
        m = lake->Search(r.keyword);
      } else {
        Span span(tt, "catalog.search");
        m = lake->catalog().Search(r.keyword);
      }
      for (const auto& e : m) out.emplace_back(e.name, 0.0);
      break;
    }
  }
  return out;
}

/// Ground-truth tallies over every request of a run.
struct Recall {
  std::map<Kind, std::pair<uint64_t, uint64_t>> found;  // kind -> hits, total
};

void Check(const Request& r, const Answer& got, Recall* recall,
           RunResult* out) {
  std::set<std::string> names;
  for (const auto& [name, score] : got) names.insert(name);
  if (r.kind == Kind::kSearch) {
    if (names != r.expected) {
      out->Fail("search '" + r.keyword + "' returned " +
                std::to_string(names.size()) + " datasets, expected " +
                std::to_string(r.expected.size()));
    }
    return;
  }
  auto& [hits, total] = recall->found[r.kind];
  for (const std::string& e : r.expected) {
    ++total;
    hits += names.count(e);
  }
}

/// Every catalog entry, serialized: what the traced build must reproduce.
std::map<std::string, std::string> CatalogSnapshot(DataLake* lake) {
  std::map<std::string, std::string> out;
  for (const std::string& name : lake->catalog().ListDatasets()) {
    lakekit::Result<lakekit::catalog::DatasetEntry> e = lake->catalog().Get(name);
    out[name] = e.ok() ? lakekit::json::Write(e->ToJson()) : "<missing>";
  }
  return out;
}

struct Build {
  double ingest_s = 0;
  double index_s = 0;
  double wall_s = 0;
  std::vector<double> latencies_ms;
  std::vector<TimedSample> timed;
  std::map<Kind, std::vector<double>> by_kind;
  std::vector<std::string> answers;
  std::map<std::string, std::string> catalog;
  uint64_t disk_bytes = 0;
};

Build RunBuild(DataLake* lake, const LakeInputs& in, ThreadTrace* tt,
               DiscoveryIndexes* idx, Recall* recall, RunResult* out) {
  Build b;
  int64_t t0 = NowNs();
  for (const LakeFile& f : in.files) {
    ++out->attempted;
    lakekit::Result<lakekit::catalog::DatasetEntry> r =
        tt == nullptr
            ? lake->IngestFile(f.name, f.filename, f.content, f.options)
            : IngestFile(tt, lake, f.name, f.filename, f.content, f.options);
    if (!r.ok()) {
      ++out->failed;
      out->Fail("ingest " + f.name + ": " + r.status().ToString());
    }
  }
  int64_t t1 = NowNs();
  ++out->attempted;
  lakekit::Status built = tt == nullptr ? lake->BuildDiscoveryIndexes()
                                        : BuildDiscoveryIndexes(tt, lake, idx);
  int64_t t2 = NowNs();
  if (!built.ok()) {
    ++out->failed;
    out->Fail("BuildDiscoveryIndexes: " + built.ToString());
    return b;
  }
  b.ingest_s = Seconds(t1 - t0);
  b.index_s = Seconds(t2 - t1);
  int64_t discovery_ns = 0;
  for (const Request& r : in.requests) {
    ++out->attempted;
    const int64_t start = NowNs();
    lakekit::Result<Answer> a =
        Discover(lake, tt == nullptr ? nullptr : idx, tt, r);
    const int64_t end = NowNs();
    const int64_t ns = end - start;
    discovery_ns += ns;
    if (!a.ok()) {
      ++out->failed;
      out->Fail(std::string(KindName(r.kind)) + " " + r.dataset + ": " +
                a.status().ToString());
      continue;
    }
    const double ms = static_cast<double>(ns) / 1e6;
    b.latencies_ms.push_back(ms);
    b.timed.push_back(TimedSample{end, ms});
    b.by_kind[r.kind].push_back(ms);
    b.answers.push_back(AnswerKey(*a));
    Check(r, *a, recall, out);
  }
  b.wall_s = b.ingest_s + b.index_s + Seconds(discovery_ns);
  return b;
}

}  // namespace

RunResult RunLakeBuild(const RunConfig& cfg) {
  RunResult out;
  out.clients = kLoad.clients;
  out.pool_workers = kLoad.pool_workers;
  std::error_code ec;
  fs::remove_all(cfg.lake_dir, ec);

  // Set-up: inputs from the seed, then a fresh lake; repeated for a steady
  // median.
  std::vector<double> setups;
  LakeInputs in;
  std::unique_ptr<DataLake> lake;
  size_t next_dir = 0;
  auto fresh_lake = [&]() -> std::unique_ptr<DataLake> {
    const std::string dir = cfg.lake_dir + "/lake" + std::to_string(next_dir++);
    lakekit::Result<DataLake> opened = DataLake::Open(dir);
    if (!opened.ok()) {
      out.Fail("DataLake::Open: " + opened.status().ToString());
      return nullptr;
    }
    return std::make_unique<DataLake>(std::move(*opened));
  };
  for (size_t s = 0; s < kSetups; ++s) {
    const int64_t start = NowNs();
    in = MakeInputs(cfg.seed);
    lake = fresh_lake();
    setups.push_back(Seconds(NowNs() - start));
    if (lake == nullptr) return out;
  }

  Tracer tracer;
  ThreadTrace* tt = cfg.trace ? tracer.NewThread() : nullptr;
  Recall recall;
  std::vector<Build> untraced;
  std::vector<Build> traced;
  DiscoveryIndexes idx;
  const int64_t deadline = NowNs() + static_cast<int64_t>(cfg.seconds * 1e9);
  // Traced runs alternate untraced and traced builds: the untraced ones
  // give the overhead baseline and the entry points' outputs to compare.
  for (size_t b = 0; b == 0 || (cfg.trace && b == 1) || NowNs() < deadline;
       ++b) {
    if (b > 0) lake = fresh_lake();
    if (lake == nullptr) return out;
    const bool traced_build = cfg.trace && b % 2 == 1;
    // The facade builds its indexes on a fresh lake with none to tear
    // down; the replay's indexes from the previous traced build go first.
    if (traced_build) idx = DiscoveryIndexes();
    Build build = RunBuild(lake.get(), in, traced_build ? tt : nullptr, &idx,
                           &recall, &out);
    build.disk_bytes = DiskBytes(cfg.lake_dir + "/lake" +
                                 std::to_string(next_dir - 1));
    if (cfg.trace && b < 2) build.catalog = CatalogSnapshot(lake.get());
    if (traced_build && b == 1) {
      const Build& ref = untraced.front();
      if (build.catalog != ref.catalog) {
        out.Fail("traced ingest replay registered different catalog entries");
      }
      if (build.answers != ref.answers) {
        out.Fail("traced discovery replay answered differently");
      }
    }
    if (traced_build) {
      traced.push_back(std::move(build));
    } else {
      untraced.push_back(std::move(build));
    }
    lake.reset();
    fs::remove_all(cfg.lake_dir + "/lake" + std::to_string(next_dir - 1), ec);
    if (!out.correct) break;
  }
  fs::remove_all(cfg.lake_dir, ec);

  // Ground truth: JOSIE is exact, search is exact (checked per request);
  // the sketch-based finders must find nine in ten planted partners.
  double hits = 0;
  double total = 0;
  for (const auto& [kind, ht] : recall.found) {
    const double r = ht.second == 0 ? 1 : static_cast<double>(ht.first) /
                                              static_cast<double>(ht.second);
    out.Line(std::string(KindName(kind)) + " recall = " + std::to_string(r) +
             " (" + std::to_string(ht.first) + "/" + std::to_string(ht.second) +
             ")");
    if (r < (kind == Kind::kJosie ? 1.0 : 0.9)) {
      out.Fail(std::string(KindName(kind)) + " recall " + std::to_string(r) +
               " below its floor");
    }
    hits += static_cast<double>(ht.first);
    total += static_cast<double>(ht.second);
  }

  std::vector<double> latencies;
  std::vector<TimedSample> timed;
  std::vector<double> throughput;
  std::vector<double> ingest_mbps;
  std::vector<double> index_s;
  std::map<Kind, std::vector<double>> by_kind;
  for (const Build& b : untraced) {
    latencies.insert(latencies.end(), b.latencies_ms.begin(),
                     b.latencies_ms.end());
    timed.insert(timed.end(), b.timed.begin(), b.timed.end());
    for (const auto& [k, v] : b.by_kind) {
      by_kind[k].insert(by_kind[k].end(), v.begin(), v.end());
    }
    throughput.push_back(static_cast<double>(in.files.size()) /
                         (b.ingest_s + b.index_s));
    ingest_mbps.push_back(static_cast<double>(in.raw_bytes) / 1e6 / b.ingest_s);
    index_s.push_back(b.index_s);
  }
  out.Line("lake: " + std::to_string(in.files.size()) + " files, " +
           std::to_string(static_cast<double>(in.raw_bytes) / 1e6) +
           " MB raw; " + std::to_string(untraced.size()) + " untraced and " +
           std::to_string(traced.size()) + " traced cold builds");
  const Summary disc = Summarize(latencies);
  out.Line("discovery: " + FormatSummary(disc, "ms"));
  for (const auto& [k, v] : by_kind) {
    out.Line("  " + std::string(KindName(k)) + ": " +
             FormatSummary(Summarize(v), "ms"));
  }
  const bool json = !cfg.trace;
  AddSetup(&out, setups, json);
  AddMetric(&out, "peak_rss_mb", "MB", PeakRssMb(), json);
  // Quantiles averaged over windows of completion time (see
  // WindowedQuantile); a ten-second window holds over a thousand requests.
  const double p50 = WindowedQuantile(timed, 1000000000, 0.5);
  const double p99 = WindowedQuantile(timed, 10000000000, 0.99);
  AddMetric(&out, "p50_ms", "ms", p50, json);
  if (!cfg.trace && !TailSupported(disc.n, 0.99)) {
    out.Fail("p99_ms needs at least 1000 discovery samples, got " +
             std::to_string(disc.n));
  }
  AddMetric(&out, "p99_ms", "ms", p99, json);
  AddMetric(&out, "throughput_per_s", "1/s", Median(throughput), json);
  AddMetric(&out, "ingest_mb_per_s", "MB/s", Median(ingest_mbps), false);
  AddMetric(&out, "index_build_s", "s", Median(index_s), false);
  AddMetric(&out, "discovery_p50_ms", "ms", p50, false);
  AddMetric(&out, "discovery_p99_ms", "ms", p99, false);
  AddMetric(&out, "discovery_recall", "fraction", total == 0 ? 1 : hits / total,
            false);
  AddMetric(&out, "error_frac", "fraction",
            out.attempted == 0 ? 0
                               : static_cast<double>(out.failed) /
                                     static_cast<double>(out.attempted),
            false);

  if (cfg.trace) {
    ProgramCounters pc;
    pc.traced_ops = traced.size();
    if (idx.corpus != nullptr) {
      pc.corpus_columns = idx.corpus->num_columns();
      pc.ekg_edges = idx.aurum->ekg().num_edges();
      pc.josie_index_tokens = idx.josie->index_size();
    }
    if (!traced.empty()) {
      pc.disk_bytes_per_raw_byte = static_cast<double>(traced.back().disk_bytes) /
                                   static_cast<double>(in.raw_bytes);
    }
    std::vector<double> untraced_wall;
    for (const Build& b : untraced) untraced_wall.push_back(b.wall_s * 1e3);
    // Every search parses each current catalog entry once.
    tt->counters().search_entries_parsed =
        static_cast<uint64_t>(in.files.size()) *
        tracer.Summarize().Calls("catalog.search");
    const TraceSummary summary = tracer.Summarize();
    pc.overhead_frac = OverheadFrac(summary, traced.size(), untraced_wall);
    AddPerLayer(summary, pc, &out);
    if (!cfg.trace_out.empty() && !tracer.WriteTsv(cfg.trace_out)) {
      out.Line("could not write " + cfg.trace_out);
    }
  }
  return out;
}

}  // namespace lake_e2e
