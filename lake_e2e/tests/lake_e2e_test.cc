// Tests of the benchmark's own logic: the sample rule, self-time
// subtraction, and the answer oracles on a tiny lake.

#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>
#include <unistd.h>

#include "core/data_lake.h"
#include "harness/oracle.h"
#include "harness/replay.h"
#include "harness/stats.h"
#include "harness/trace.h"
#include "ingest/profiler.h"
#include "query/federation.h"
#include "query/table_cache.h"

namespace lake_e2e {
namespace {

// ------------------------------------------------------------ sample rule

TEST(SampleRule, NearestRankQuantiles) {
  std::vector<double> v;
  for (int i = 1; i <= 100; ++i) v.push_back(i);
  EXPECT_EQ(Quantile(v, 0.5), 50);
  EXPECT_EQ(Quantile(v, 0.99), 99);
  EXPECT_EQ(Quantile(v, 1.0), 100);
  EXPECT_EQ(Quantile({}, 0.5), 0);
  EXPECT_EQ(Median({3, 1, 2}), 2);
}

TEST(SampleRule, TailNeedsTenSamplesBeyondIt) {
  // p99 over 1000 samples leaves exactly ten beyond it; over 999, nine.
  EXPECT_TRUE(TailSupported(1000, 0.99));
  EXPECT_FALSE(TailSupported(999, 0.99));
  EXPECT_TRUE(TailSupported(100, 0.9));
  EXPECT_FALSE(TailSupported(99, 0.9));
  EXPECT_FALSE(TailSupported(0, 0.5));
}

TEST(SampleRule, SummaryPicksHighestSupportedPercentile) {
  std::vector<double> v(1000);
  for (size_t i = 0; i < v.size(); ++i) v[i] = static_cast<double>(i);
  Summary s = Summarize(v);
  EXPECT_EQ(s.n, 1000u);
  EXPECT_DOUBLE_EQ(s.tail_q, 0.99);
  EXPECT_EQ(s.tail, 989);
  v.resize(10000);
  for (size_t i = 0; i < v.size(); ++i) v[i] = static_cast<double>(i);
  EXPECT_DOUBLE_EQ(Summarize(v).tail_q, 0.999);
  v.resize(50);
  EXPECT_DOUBLE_EQ(Summarize(v).tail_q, 0.75);
  v.resize(20);
  EXPECT_DOUBLE_EQ(Summarize(v).tail_q, 0);
}

TEST(SampleRule, WindowedQuantileAveragesSupportedWindows) {
  // Windows with medians 1 and 3 average to 2; a window too small for the
  // sample rule is left out.
  std::vector<TimedSample> s;
  for (int i = 0; i < 21; ++i) s.push_back({i * 10, 1.0});
  for (int i = 0; i < 21; ++i) s.push_back({1000 + i * 10, i < 11 ? 3.0 : 50.0});
  s.push_back({2500, 100.0});
  EXPECT_DOUBLE_EQ(WindowedQuantile(s, 1000, 0.5), 2.0);
  // No window supports the quantile: it is taken over all samples.
  EXPECT_DOUBLE_EQ(WindowedQuantile({{0, 5.0}, {1500, 7.0}}, 1000, 0.5), 5.0);
  EXPECT_DOUBLE_EQ(WindowedQuantile(s, 1000, 0.99), 100.0);
  EXPECT_EQ(WindowedQuantile({}, 1000, 0.5), 0);
}

// ------------------------------------------------------------- self time

SpanRecord Rec(const char* name, int64_t start, int64_t end, int32_t parent,
               int64_t excluded = 0) {
  SpanRecord r;
  r.name = name;
  r.start_ns = start;
  r.end_ns = end;
  r.parent = parent;
  r.excluded_ns = excluded;
  return r;
}

TEST(SelfTime, NestedSpansSubtractTheirChildren) {
  // root [0,100) > a [10,60) > b [20,30)
  std::vector<SpanRecord> spans = {Rec("e2e.r", 0, 100, -1),
                                   Rec("x.a", 10, 60, 0), Rec("y.b", 20, 30, 1)};
  std::vector<int64_t> self = SelfTimes(spans);
  EXPECT_EQ(self[0], 50);
  EXPECT_EQ(self[1], 40);
  EXPECT_EQ(self[2], 10);
}

TEST(SelfTime, SiblingsAreSummedAndOverlapCountedOnce) {
  // root [0,100) with siblings [10,20), [30,50) and [40,60) (overlapping).
  std::vector<SpanRecord> spans = {
      Rec("e2e.r", 0, 100, -1), Rec("x.a", 10, 20, 0), Rec("x.b", 30, 50, 0),
      Rec("x.c", 40, 60, 0)};
  std::vector<int64_t> self = SelfTimes(spans);
  EXPECT_EQ(self[0], 100 - 10 - 30);
  EXPECT_EQ(self[1], 10);
  EXPECT_EQ(self[2], 20);
  EXPECT_EQ(self[3], 20);
}

TEST(SelfTime, ProbesCostNoSpanAnything) {
  // A probe of 15 inside the child (so inside the root too).
  std::vector<SpanRecord> spans = {Rec("e2e.r", 0, 100, -1, 15),
                                   Rec("x.a", 10, 60, 0, 15)};
  std::vector<int64_t> self = SelfTimes(spans);
  EXPECT_EQ(self[1], 35);
  EXPECT_EQ(self[0], 50);
}

TEST(SelfTime, TracerRecordsNestingAndSyntheticChildren) {
  Tracer tracer;
  ThreadTrace* tt = tracer.NewThread();
  tt->BeginRequest();
  {
    Span root(tt, "e2e.req");
    {
      Span child(tt, "table.from_csv");
      tt->AddSynthetic("csv.parse", 0);
      Probe probe(tt);
    }
  }
  ASSERT_EQ(tt->spans().size(), 3u);
  EXPECT_EQ(tt->spans()[1].parent, 0);
  EXPECT_EQ(tt->spans()[2].parent, 1);
  EXPECT_EQ(tt->spans()[2].start_ns, tt->spans()[1].start_ns);
  TraceSummary s = tracer.Summarize();
  EXPECT_EQ(s.requests, 1u);
  EXPECT_EQ(s.Calls("table.from_csv"), 1u);
  EXPECT_EQ(s.Calls("csv.parse"), 1u);
  // Self times partition the root's duration.
  int64_t sum = 0;
  for (const auto& [layer, ns] : s.by_layer) sum += ns;
  EXPECT_EQ(sum, s.wall_ns);
}

// ------------------------------------------------------- answer oracles

class TinyLake : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = (std::filesystem::temp_directory_path() /
            ("lake_e2e_test_" + std::to_string(::getpid())))
               .string();
    std::filesystem::remove_all(dir_);
    src_ = MakeQuerySources(7, SourceSizes{3000, 300, 100});
    auto lake = lakekit::core::DataLake::Open(dir_);
    ASSERT_TRUE(lake.ok());
    lake_ = std::make_unique<lakekit::core::DataLake>(std::move(*lake));
    const std::string fact = FactCsv(src_.fact);
    ASSERT_TRUE(lake_->polystore()
                    .StoreObject("fact", "landing/fact/fact.csv", fact)
                    .ok());
    ASSERT_TRUE(lake_->IngestFile("customers", "customers.csv",
                                  CustomersCsv(src_.customers))
                    .ok());
    ASSERT_TRUE(lake_->IngestFile("products", "products.json",
                                  ProductsJson(src_.products))
                    .ok());
    lakekit::query::TableCacheOptions copts;
    copts.capacity_bytes = 64u << 20;
    cache_ = std::make_unique<lakekit::query::TableCache>(copts);
    lakekit::query::FederatedEngineOptions eopts;
    eopts.table_cache = cache_.get();
    engine_ = std::make_unique<lakekit::query::FederatedEngine>(
        &lake_->polystore(), eopts);
  }
  void TearDown() override {
    engine_.reset();
    cache_.reset();
    lake_.reset();
    std::filesystem::remove_all(dir_);
  }

  Answer Run(const std::string& sql) {
    auto r = engine_->Query(sql, lakekit::query::QueryOptions());
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    return r.ok() ? FromTable(*r) : Answer();
  }

  std::string dir_;
  QuerySources src_;
  std::unique_ptr<lakekit::core::DataLake> lake_;
  std::unique_ptr<lakekit::query::TableCache> cache_;
  std::unique_ptr<lakekit::query::FederatedEngine> engine_;
};

TEST_F(TinyLake, EveryShapeMatchesItsOracle) {
  SplitMix rng(3);
  for (int shape = 0; shape < kNumShapes; ++shape) {
    for (int i = 0; i < 4; ++i) {
      QueryInstance q =
          MakeInstance(static_cast<Shape>(shape), &rng, src_.fact.size());
      Answer expected = Expected(q, src_.fact, src_.customers, src_.products);
      ASSERT_FALSE(expected.rows.empty()) << q.sql;
      EXPECT_EQ(Compare(q, expected, Run(q.sql)), "") << q.sql;
    }
  }
}

TEST_F(TinyLake, DeliberatelyWrongAnswersFail) {
  SplitMix rng(5);
  for (int shape = 0; shape < kNumShapes; ++shape) {
    QueryInstance q =
        MakeInstance(static_cast<Shape>(shape), &rng, src_.fact.size());
    Answer expected = Expected(q, src_.fact, src_.customers, src_.products);
    Answer got = Run(q.sql);
    ASSERT_EQ(Compare(q, expected, got), "");

    Answer missing_row = got;
    missing_row.rows.pop_back();
    EXPECT_NE(Compare(q, expected, missing_row), "") << q.sql;

    Answer wrong_cell = got;
    Cell& c = wrong_cell.rows.front().back();
    if (auto* d = std::get_if<double>(&c)) {
      *d += 0.01;
    } else if (auto* i = std::get_if<int64_t>(&c)) {
      *i += 1;
    }
    EXPECT_NE(Compare(q, expected, wrong_cell), "") << q.sql;

    Answer renamed = got;
    renamed.columns.back() += "_x";
    EXPECT_NE(Compare(q, expected, renamed), "") << q.sql;
  }
}

TEST_F(TinyLake, AStaleVersionIsCaught) {
  // The answer over the landed version must not pass for the next one.
  SourceSizes sizes{3000, 300, 100};
  std::vector<FactRow> v1 = MakeFactVersion(7, sizes, 1);
  std::vector<FactRow> v2 = MakeFactVersion(7, sizes, 2);
  SplitMix rng(11);
  for (Shape shape : {Shape::kRange, Shape::kJoinGroup, Shape::kTopK}) {
    QueryInstance q = MakeInstance(shape, &rng, v1.size());
    Answer a1 = Expected(q, v1, src_.customers, src_.products);
    Answer a2 = Expected(q, v2, src_.customers, src_.products);
    EXPECT_NE(Compare(q, a2, a1), "") << q.sql;
  }
}

TEST_F(TinyLake, TracedQueryReplayEqualsTheEngine) {
  Tracer tracer;
  ThreadTrace* tt = tracer.NewThread();
  EngineParts parts;
  parts.polystore = &lake_->polystore();
  parts.cache = cache_.get();
  SplitMix rng(13);
  for (int shape = 0; shape < kNumShapes; ++shape) {
    QueryInstance q =
        MakeInstance(static_cast<Shape>(shape), &rng, src_.fact.size());
    lakekit::query::FederationStats stats;
    auto replay = Query(tt, parts, q.sql, &stats);
    ASSERT_TRUE(replay.ok()) << replay.status().ToString();
    Answer a = Run(q.sql);
    Answer b = FromTable(*replay);
    EXPECT_EQ(a.columns, b.columns);
    EXPECT_EQ(a.rows, b.rows) << q.sql;
  }
  TraceSummary s = tracer.Summarize();
  EXPECT_EQ(s.requests, static_cast<uint64_t>(kNumShapes));
  EXPECT_GT(s.Calls("query.parse"), 0u);
}

TEST_F(TinyLake, TracedProfileReplayEqualsTheProfiler) {
  const std::string csv = FactCsv(src_.fact);
  auto direct = lakekit::ingest::Profiler::ProfileFile("fact.csv", "p", csv);
  Tracer tracer;
  auto replay = ProfileFile(tracer.NewThread(), "fact.csv", "p", csv);
  ASSERT_TRUE(direct.ok());
  ASSERT_TRUE(replay.ok());
  EXPECT_EQ(DiffProfiles(*direct, *replay), "");
  EXPECT_EQ(tracer.Summarize().Calls("table.from_csv"), 1u);
}

}  // namespace
}  // namespace lake_e2e
