// Reproduces survey Table 3: comparison of related dataset discovery
// approaches. The rows of the paper's table become competing
// implementations racing on the same planted-joinability lakes:
//
//   - brute force: exact all-pairs Jaccard (the O(n^2) baseline)
//   - Aurum: MinHash signatures + LSH + EKG
//   - JOSIE: inverted index, exact top-k overlap
//   - D3L: five-feature weighted distance with LSH candidates
//   - PEXESO-style: semantic joinability is exercised in discovery tests
//     (it requires planted semantic domains, not value overlap)
//
//   - table union search: attribute unionability from precomputed name
//     grams, MinHash and embeddings, aligned per candidate table; pairs
//     that cannot reach the threshold are skipped by an exact bound
//   - catalog keyword search (GOODS-style), the lookup that starts most
//     discovery sessions
//
// Expected shape: LSH-based Aurum queries stay flat as the lake grows while
// brute force grows linearly per query (quadratically for all-pairs);
// JOSIE is exact (recall 1.0) at higher per-query cost than Aurum; D3L
// trades latency for multi-evidence robustness. Recall@1 counters report
// accuracy against the planted ground truth.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <filesystem>
#include <map>
#include <memory>
#include <string>

#include "catalog/catalog.h"
#include "discovery/aurum.h"
#include "discovery/brute_force.h"
#include "discovery/corpus.h"
#include "discovery/d3l.h"
#include "discovery/josie.h"
#include "discovery/union_search.h"
#include "json/value.h"
#include "workload/generator.h"

#include "common/status.h"

namespace {

using namespace lakekit;             // NOLINT
using namespace lakekit::discovery;  // NOLINT

struct Fixture {
  workload::JoinableLake lake;
  std::unique_ptr<Corpus> corpus;
  std::unique_ptr<AurumFinder> aurum;
  std::unique_ptr<JosieFinder> josie;
  std::unique_ptr<D3lFinder> d3l;
  std::unique_ptr<BruteForceFinder> brute;
  std::unique_ptr<UnionSearch> union_search;
  std::vector<std::pair<ColumnId, ColumnId>> queries;  // (query, expected)
};

Fixture& GetFixture(int num_tables) {
  static std::map<int, std::unique_ptr<Fixture>> cache;
  auto it = cache.find(num_tables);
  if (it != cache.end()) return *it->second;

  auto f = std::make_unique<Fixture>();
  workload::JoinableLakeOptions options;
  options.num_tables = static_cast<size_t>(num_tables);
  options.rows_per_table = 100;
  options.num_planted_pairs = static_cast<size_t>(num_tables) / 4;
  options.overlap_jaccard = 0.5;
  f->lake = workload::MakeJoinableLake(options);
  f->corpus = std::make_unique<Corpus>();
  LAKEKIT_CHECK_OK(f->corpus->AddTables(f->lake.tables));
  f->aurum = std::make_unique<AurumFinder>(f->corpus.get());
  LAKEKIT_CHECK_OK(f->aurum->Build());
  f->josie = std::make_unique<JosieFinder>(f->corpus.get());
  f->josie->Build();
  f->d3l = std::make_unique<D3lFinder>(f->corpus.get());
  LAKEKIT_CHECK_OK(f->d3l->Build());
  f->brute = std::make_unique<BruteForceFinder>(f->corpus.get());
  f->union_search = std::make_unique<UnionSearch>(f->corpus.get());
  for (const auto& pair : f->lake.planted) {
    f->queries.emplace_back(
        *f->corpus->FindColumn(pair.table_a, pair.column_a),
        *f->corpus->FindColumn(pair.table_b, pair.column_b));
  }
  Fixture& ref = *f;
  cache[num_tables] = std::move(f);
  return ref;
}

/// Runs the per-query loop for one finder and reports recall@1.
template <typename QueryFn>
void RunQueries(benchmark::State& state, QueryFn&& query_fn) {
  Fixture& f = GetFixture(static_cast<int>(state.range(0)));
  size_t hits = 0;
  size_t total = 0;
  for (auto _ : state) {
    for (const auto& [query, expected] : f.queries) {
      auto matches = query_fn(f, query);
      benchmark::DoNotOptimize(matches);
      if (!matches.empty() && matches[0].column == expected) ++hits;
      ++total;
    }
  }
  state.counters["recall_at_1"] =
      total == 0 ? 0.0 : static_cast<double>(hits) / static_cast<double>(total);
  state.counters["queries"] = static_cast<double>(f.queries.size());
  state.SetItemsProcessed(static_cast<int64_t>(total));
}

void BM_Discovery_BruteForce_Query(benchmark::State& state) {
  RunQueries(state, [](Fixture& f, ColumnId q) {
    return f.brute->TopKJoinableColumns(q, 1);
  });
}

void BM_Discovery_Aurum_Query(benchmark::State& state) {
  RunQueries(state, [](Fixture& f, ColumnId q) {
    return f.aurum->TopKJoinableColumns(q, 1);
  });
}

void BM_Discovery_Josie_Query(benchmark::State& state) {
  RunQueries(state, [](Fixture& f, ColumnId q) {
    return f.josie->TopKOverlapColumns(q, 1);
  });
}

void BM_Discovery_D3l_Query(benchmark::State& state) {
  RunQueries(state, [](Fixture& f, ColumnId q) {
    return f.d3l->TopKRelatedColumns(q, 1);
  });
}

/// One table union search per planted pair's query table: every other
/// table is aligned attribute by attribute, so a call visits O(tables x
/// columns^2) pairs. The scoring index's bound skips a pair that cannot
/// reach the threshold before its MinHash compare or its embedding cosine.
void BM_Discovery_Union_Query(benchmark::State& state) {
  Fixture& f = GetFixture(static_cast<int>(state.range(0)));
  size_t calls = 0;
  for (auto _ : state) {
    for (const auto& [query, expected] : f.queries) {
      auto matches = f.union_search->TopKUnionableTables(query.table_idx, 3);
      benchmark::DoNotOptimize(matches);
      ++calls;
    }
  }
  state.counters["queries"] = static_cast<double>(f.queries.size());
  state.SetItemsProcessed(static_cast<int64_t>(calls));
}

/// Keyword search over a catalog of 168 entries shaped like the end-to-end
/// discovery lake's: 152 CSV tables, 8 JSON and 8 log files, each described
/// by one of 16 shard keywords, with a schema signature, profiled columns
/// and, for logs, content keywords. Each call matches one shard's entries.
void BM_Catalog_Search(benchmark::State& state) {
  const std::string dir = (std::filesystem::temp_directory_path() /
                           "lakekit_bench_catalog_search")
                              .string();
  std::filesystem::remove_all(dir);
  {
    Result<catalog::Catalog> cat = catalog::Catalog::Open(dir);
    LAKEKIT_CHECK_OK(cat.status());
    char shard[16];
    for (size_t i = 0; i < 168; ++i) {
      catalog::DatasetEntry e;
      const bool csv = i < 152;
      e.name = csv ? "table" + std::to_string(i)
                   : (i < 160 ? "docs" : "log") + std::to_string(i % 8);
      e.path = "/lake/" + e.name + (csv ? ".csv" : i < 160 ? ".json" : ".log");
      e.format = csv ? "csv" : i < 160 ? "json" : "log";
      e.size_bytes = 60000;
      e.num_records = 800;
      json::Array columns;
      json::Array keywords;
      for (size_t c = 0; c < 5; ++c) {
        const std::string col = c == 0 ? "id" : "attr" + std::to_string(c);
        e.schema += (c == 0 ? "" : ",") + col + (c == 0 ? ":int64" : ":string");
        json::Object profile;
        profile.Set("name", json::Value(col));
        profile.Set("distinct", json::Value(static_cast<int64_t>(700 + c)));
        profile.Set("nulls", json::Value(static_cast<int64_t>(0)));
        profile.Set("candidate_key", json::Value(c == 0));
        columns.emplace_back(std::move(profile));
      }
      if (i >= 160) {
        for (const char* kw : {"connection", "fetching", "request", "shard",
                               "timeout", "user", "while", "worker"}) {
          keywords.emplace_back(kw);
        }
      }
      json::Object content;
      content.Set("keywords", json::Value(std::move(keywords)));
      content.Set("columns", json::Value(std::move(columns)));
      e.content = json::Value(std::move(content));
      std::snprintf(shard, sizeof(shard), "shard-%02zu", i % 16);
      e.description = shard;
      LAKEKIT_CHECK_OK(cat->Register(std::move(e)));
    }
  }
  Result<catalog::Catalog> cat = catalog::Catalog::Open(dir);
  LAKEKIT_CHECK_OK(cat.status());
  size_t calls = 0;
  size_t hits = 0;
  char shard[16];
  for (auto _ : state) {
    std::snprintf(shard, sizeof(shard), "shard-%02zu", calls++ % 16);
    std::vector<catalog::DatasetEntry> found = cat->Search(shard);
    hits += found.size();
    benchmark::DoNotOptimize(found);
  }
  state.counters["hits_per_call"] =
      calls == 0 ? 0.0 : static_cast<double>(hits) / static_cast<double>(calls);
  state.SetItemsProcessed(static_cast<int64_t>(calls));
  std::filesystem::remove_all(dir);
}

/// Index build cost: the investment that buys fast queries. Brute force has
/// none; Aurum pays LSH+EKG; JOSIE pays the inverted index.
void BM_Discovery_Aurum_Build(benchmark::State& state) {
  Fixture& f = GetFixture(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    AurumFinder finder(f.corpus.get());
    benchmark::DoNotOptimize(finder.Build());
  }
}

/// The union-search scoring index: each column's type, embedding zeroness
/// and name id, and every MinHash signature in one array.
void BM_Discovery_Union_Build(benchmark::State& state) {
  Fixture& f = GetFixture(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    UnionSearch search(f.corpus.get());
    benchmark::DoNotOptimize(search);
  }
  state.counters["columns"] = static_cast<double>(f.corpus->num_columns());
}

void BM_Discovery_Josie_Build(benchmark::State& state) {
  Fixture& f = GetFixture(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    JosieFinder finder(f.corpus.get());
    finder.Build();
    benchmark::DoNotOptimize(finder.index_size());
  }
}

/// The crossover: all-pairs ground truth (quadratic) vs Aurum's build+query
/// (near-linear). Past a few hundred tables the indexed path wins — the
/// survey's core argument for Aurum's LSH design.
void BM_Discovery_AllPairs_BruteForce(benchmark::State& state) {
  Fixture& f = GetFixture(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    auto pairs = f.brute->AllJoinablePairs(0.3);
    benchmark::DoNotOptimize(pairs);
    state.counters["pairs_found"] = static_cast<double>(pairs.size());
  }
}

/// Fixture-construction cost, serial vs. parallel: corpus sketch building
/// (and lake generation below) is the wall-time floor of every experiment
/// here, and the first hot path driven by the execution layer. Serial is
/// the same batch on a one-worker pool (the calling thread claims indices
/// beside the one worker).
/// The two variants produce bit-identical corpora (see CorpusParallelTest);
/// the ratio of their times is the thread-pool speedup on this machine.
void BM_Discovery_CorpusBuild_Serial(benchmark::State& state) {
  Fixture& f = GetFixture(static_cast<int>(state.range(0)));
  lakekit::ThreadPool one_worker(1);
  for (auto _ : state) {
    Corpus corpus;
    LAKEKIT_CHECK_OK(corpus.AddTables(f.lake.tables, &one_worker));
    benchmark::DoNotOptimize(corpus.num_columns());
  }
  state.counters["columns"] = static_cast<double>(f.corpus->num_columns());
}

void BM_Discovery_CorpusBuild_Parallel(benchmark::State& state) {
  Fixture& f = GetFixture(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    Corpus corpus;
    LAKEKIT_CHECK_OK(corpus.AddTables(f.lake.tables));
    benchmark::DoNotOptimize(corpus.num_columns());
  }
  state.counters["columns"] = static_cast<double>(f.corpus->num_columns());
  state.counters["threads"] =
      static_cast<double>(lakekit::ThreadPool::Default().size());
}

void BM_Discovery_LakeGen_Serial(benchmark::State& state) {
  workload::JoinableLakeOptions options;
  options.num_tables = static_cast<size_t>(state.range(0));
  options.rows_per_table = 100;
  lakekit::ThreadPool serial_pool(1);
  for (auto _ : state) {
    auto lake = workload::MakeJoinableLake(options, &serial_pool);
    benchmark::DoNotOptimize(lake.tables.size());
  }
}

void BM_Discovery_LakeGen_Parallel(benchmark::State& state) {
  workload::JoinableLakeOptions options;
  options.num_tables = static_cast<size_t>(state.range(0));
  options.rows_per_table = 100;
  for (auto _ : state) {
    auto lake = workload::MakeJoinableLake(options);
    benchmark::DoNotOptimize(lake.tables.size());
  }
  state.counters["threads"] =
      static_cast<double>(lakekit::ThreadPool::Default().size());
}

void BM_Discovery_AllPairs_AurumIndexed(benchmark::State& state) {
  Fixture& f = GetFixture(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    AurumFinder finder(f.corpus.get());
    LAKEKIT_CHECK_OK(finder.Build());
    // Content-similarity edges of the EKG at the same threshold are the
    // indexed equivalent of the all-pairs joinability sweep.
    size_t edges = 0;
    for (const auto& e : finder.ekg().edges()) {
      if (e.relation == metamodel::Relation::kContentSimilar &&
          e.weight >= 0.3) {
        ++edges;
      }
    }
    benchmark::DoNotOptimize(edges);
    state.counters["pairs_found"] = static_cast<double>(edges);
  }
}

}  // namespace

BENCHMARK(BM_Discovery_BruteForce_Query)->Arg(32)->Arg(96)->Arg(192);
BENCHMARK(BM_Discovery_Aurum_Query)->Arg(32)->Arg(96)->Arg(192);
BENCHMARK(BM_Discovery_Josie_Query)->Arg(32)->Arg(96)->Arg(192);
BENCHMARK(BM_Discovery_D3l_Query)->Arg(32)->Arg(96)->Arg(192);
BENCHMARK(BM_Discovery_Union_Query)->Arg(32)->Arg(96)->Arg(192);
BENCHMARK(BM_Catalog_Search);
BENCHMARK(BM_Discovery_Aurum_Build)->Arg(32)->Arg(96)->Arg(192);
BENCHMARK(BM_Discovery_Josie_Build)->Arg(32)->Arg(96)->Arg(192);
BENCHMARK(BM_Discovery_Union_Build)->Arg(32)->Arg(96)->Arg(192);
BENCHMARK(BM_Discovery_AllPairs_BruteForce)->Arg(32)->Arg(96)->Arg(192);
BENCHMARK(BM_Discovery_AllPairs_AurumIndexed)->Arg(32)->Arg(96)->Arg(192);
BENCHMARK(BM_Discovery_CorpusBuild_Serial)
    ->Arg(32)->Arg(96)->Arg(192)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Discovery_CorpusBuild_Parallel)
    ->Arg(32)->Arg(96)->Arg(192)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Discovery_LakeGen_Serial)
    ->Arg(32)->Arg(96)->Arg(192)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Discovery_LakeGen_Parallel)
    ->Arg(32)->Arg(96)->Arg(192)->Unit(benchmark::kMillisecond);

BENCHMARK_MAIN();
