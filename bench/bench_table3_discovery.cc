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
// Expected shape: LSH-based Aurum queries stay flat as the lake grows while
// brute force grows linearly per query (quadratically for all-pairs);
// JOSIE is exact (recall 1.0) at higher per-query cost than Aurum; D3L
// trades latency for multi-evidence robustness. Recall@1 counters report
// accuracy against the planted ground truth.

#include <benchmark/benchmark.h>

#include <map>
#include <memory>

#include "discovery/aurum.h"
#include "discovery/brute_force.h"
#include "discovery/corpus.h"
#include "discovery/d3l.h"
#include "discovery/josie.h"
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

/// Index build cost: the investment that buys fast queries. Brute force has
/// none; Aurum pays LSH+EKG; JOSIE pays the inverted index.
void BM_Discovery_Aurum_Build(benchmark::State& state) {
  Fixture& f = GetFixture(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    AurumFinder finder(f.corpus.get());
    benchmark::DoNotOptimize(finder.Build());
  }
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
/// the same batch on a one-worker pool (the calling thread helps drain it).
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
BENCHMARK(BM_Discovery_Aurum_Build)->Arg(32)->Arg(96)->Arg(192);
BENCHMARK(BM_Discovery_Josie_Build)->Arg(32)->Arg(96)->Arg(192);
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
