// Reproduces survey Sec. 5.1 (metadata extraction): GEMMS structural
// inference, DATAMARAN log-template extraction, and Skluma profiling on
// planted-ground-truth corpora. Counters report template recovery accuracy
// — DATAMARAN's evaluation criterion (its paper reports high extraction
// accuracy on 100 crawled GitHub log datasets; here the corpus is synthetic
// with known templates, so accuracy is exact).

#include <benchmark/benchmark.h>

#include <set>
#include <vector>

#include "common/thread_pool.h"
#include "ingest/format_detect.h"
#include "ingest/log_template.h"
#include "ingest/profiler.h"
#include "ingest/structural_extractor.h"
#include "json/parser.h"
#include "table/table.h"
#include "workload/generator.h"

namespace {

using namespace lakekit;          // NOLINT
using namespace lakekit::ingest;  // NOLINT

void BM_Ingest_FormatDetection(benchmark::State& state) {
  std::vector<std::pair<std::string, std::string>> files = {
      {"a.csv", "x,y\n1,2\n"},
      {"b", "{\"k\": 1}"},
      {"c", "2024-01-01 INFO msg\n2024-01-02 WARN msg\n"},
      {"d", std::string("\x00\x01binary", 8)},
      {"e", "id,name,city\n1,ada,delft\n2,bob,leiden\n"},
  };
  for (auto _ : state) {
    for (const auto& [name, content] : files) {
      benchmark::DoNotOptimize(DetectFormat(name, content));
    }
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(files.size()));
}

void BM_Ingest_GemmsStructuralInference(benchmark::State& state) {
  const int docs = static_cast<int>(state.range(0));
  std::vector<json::Value> corpus;
  for (int i = 0; i < docs; ++i) {
    std::string payload = R"({"id":)" + std::to_string(i) +
                          R"(,"name":"n)" + std::to_string(i) + R"(")";
    if (i % 3 == 0) payload += R"(,"optional_tag":"t")";
    payload += R"(,"addr":{"city":"c","geo":[1.5,2.5]}})";
    corpus.push_back(*json::Parse(payload));
  }
  for (auto _ : state) {
    auto tree = StructuralExtractor::InferJsonDocuments(corpus);
    benchmark::DoNotOptimize(tree);
    state.counters["tree_size"] = static_cast<double>(tree->TreeSize());
  }
  state.SetItemsProcessed(state.iterations() * docs);
}

void BM_Ingest_DatamaranTemplates(benchmark::State& state) {
  workload::LogCorpusOptions options;
  options.num_templates = static_cast<size_t>(state.range(0));
  options.total_lines = 4000;
  workload::LogCorpus corpus = workload::MakeLogCorpus(options);
  LogTemplateExtractor extractor;
  size_t recovered = 0;
  for (auto _ : state) {
    auto templates = extractor.Extract(corpus.text);
    benchmark::DoNotOptimize(templates);
    // Template recovery: every planted pattern found verbatim.
    std::set<std::string> found;
    for (const auto& t : templates) found.insert(t.Pattern());
    recovered = 0;
    for (const auto& planted : corpus.planted_patterns) {
      if (found.count(planted) > 0) ++recovered;
    }
  }
  state.counters["templates_planted"] =
      static_cast<double>(corpus.planted_patterns.size());
  state.counters["templates_recovered"] = static_cast<double>(recovered);
  state.counters["recovery_accuracy"] =
      static_cast<double>(recovered) /
      static_cast<double>(corpus.planted_patterns.size());
  state.SetBytesProcessed(state.iterations() *
                          static_cast<int64_t>(corpus.text.size()));
}

void BM_Ingest_SklumaProfiling(benchmark::State& state) {
  const int rows = static_cast<int>(state.range(0));
  std::string csv = "id,label,score,flag\n";
  for (int i = 0; i < rows; ++i) {
    csv += std::to_string(i) + ",label" + std::to_string(i % 50) + "," +
           std::to_string(i % 97) + ".25," + (i % 2 == 0 ? "true" : "false") +
           "\n";
  }
  for (auto _ : state) {
    auto profile = Profiler::ProfileFile("data.csv", "lake/data.csv", csv);
    benchmark::DoNotOptimize(profile);
  }
  state.SetItemsProcessed(state.iterations() * rows);
}

void BM_Ingest_ProfileTable(benchmark::State& state) {
  // The CSV half of lake_build's profiling: seed 1's 120 joinable 800-row
  // tables, decoded from their CSV bytes once outside the loop; each
  // iteration profiles every column of every table.
  ThreadPool serial(1);
  workload::JoinableLakeOptions options;
  options.num_tables = 120;
  options.rows_per_table = 800;
  options.num_planted_pairs = 20;
  options.seed = 1001;
  std::vector<table::Table> tables;
  for (const table::Table& t :
       workload::MakeJoinableLake(options, &serial).tables) {
    tables.push_back(*table::Table::FromCsv(t.name(), t.ToCsv()));
  }
  int64_t cells = 0;
  for (const table::Table& t : tables) {
    cells += static_cast<int64_t>(t.num_rows() * t.num_columns());
  }
  for (auto _ : state) {
    for (const table::Table& t : tables) {
      auto profiles = Profiler::ProfileTable(t);
      benchmark::DoNotOptimize(profiles);
    }
  }
  state.SetItemsProcessed(state.iterations() * cells);
}

void BM_Ingest_KeywordExtraction(benchmark::State& state) {
  std::string text;
  for (int i = 0; i < 500; ++i) {
    text += "sensor reading anomaly detected in turbine bearing segment " +
            std::to_string(i) + "\n";
  }
  for (auto _ : state) {
    auto keywords = Profiler::ExtractKeywords(text);
    benchmark::DoNotOptimize(keywords);
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<int64_t>(text.size()));
}

}  // namespace

BENCHMARK(BM_Ingest_FormatDetection);
BENCHMARK(BM_Ingest_GemmsStructuralInference)->Arg(100)->Arg(500);
BENCHMARK(BM_Ingest_DatamaranTemplates)->Arg(4)->Arg(8)->Arg(16);
BENCHMARK(BM_Ingest_SklumaProfiling)->Arg(1000)->Arg(5000);
BENCHMARK(BM_Ingest_ProfileTable)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Ingest_KeywordExtraction);

BENCHMARK_MAIN();
