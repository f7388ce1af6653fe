#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "discovery/aurum.h"
#include "discovery/brute_force.h"
#include "discovery/common.h"
#include "discovery/corpus.h"
#include "discovery/d3l.h"
#include "discovery/josie.h"
#include "discovery/pexeso.h"
#include "discovery/union_search.h"
#include "text/embedding.h"
#include "workload/generator.h"

#include "name_gram_oracle.h"

namespace lakekit::discovery {
namespace {

// Shared fixture: a small lake with planted joinable pairs loaded into a
// corpus, reused across finder tests (building sketches is the slow part).
class DiscoveryTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    workload::JoinableLakeOptions options;
    options.num_tables = 24;
    options.rows_per_table = 100;
    options.num_planted_pairs = 8;
    options.overlap_jaccard = 0.6;
    lake_ = new workload::JoinableLake(workload::MakeJoinableLake(options));
    corpus_ = new Corpus();
    for (const auto& t : lake_->tables) {
      ASSERT_TRUE(corpus_->AddTable(t).ok());
    }
  }
  static void TearDownTestSuite() {
    delete corpus_;
    delete lake_;
    corpus_ = nullptr;
    lake_ = nullptr;
  }

  static ColumnId Col(const std::string& table, const std::string& column) {
    return *corpus_->FindColumn(table, column);
  }

  /// True when `matches` contains `expected` among its top entries.
  static bool Contains(const std::vector<ColumnMatch>& matches,
                       ColumnId expected) {
    for (const ColumnMatch& m : matches) {
      if (m.column == expected) return true;
    }
    return false;
  }

  static workload::JoinableLake* lake_;
  static Corpus* corpus_;
};

workload::JoinableLake* DiscoveryTest::lake_ = nullptr;
Corpus* DiscoveryTest::corpus_ = nullptr;

// ---------------------------------------------------------------- corpus

TEST_F(DiscoveryTest, CorpusBasics) {
  EXPECT_EQ(corpus_->num_tables(), 24u);
  EXPECT_EQ(corpus_->num_columns(), 24u * 5u);  // id, measure, 3 attrs
  EXPECT_TRUE(corpus_->TableIndex("table0").ok());
  EXPECT_FALSE(corpus_->TableIndex("nope").ok());
  EXPECT_FALSE(corpus_->FindColumn("table0", "nope").ok());
}

TEST_F(DiscoveryTest, DuplicateTableRejected) {
  Corpus corpus;
  auto t = table::Table::FromCsv("x", "a\n1\n");
  ASSERT_TRUE(corpus.AddTable(*t).ok());
  EXPECT_TRUE(corpus.AddTable(*t).status().IsAlreadyExists());
}

TEST_F(DiscoveryTest, SketchContents) {
  const ColumnSketch& id_sketch = corpus_->sketch(Col("table0", "id"));
  EXPECT_EQ(id_sketch.type, table::DataType::kInt64);
  EXPECT_EQ(id_sketch.distinct_values.size(), 100u);
  // A candidate key: no NULL, and every value distinct.
  EXPECT_EQ(id_sketch.row_count, 100u);
  EXPECT_EQ(id_sketch.null_count, 0u);
  EXPECT_DOUBLE_EQ(id_sketch.uniqueness(), 1.0);
  EXPECT_FALSE(id_sketch.numeric_values.empty());

  const ColumnSketch& attr = corpus_->sketch(Col("table0", "attr0"));
  EXPECT_EQ(attr.type, table::DataType::kString);
  EXPECT_FALSE(attr.embedding.empty());
  EXPECT_FALSE(attr.format_histogram.empty());
}

TEST(ColumnIdTest, PackedRoundTrip) {
  ColumnId id{123456, 789};
  EXPECT_EQ(ColumnId::FromPacked(id.Packed()), id);
}

TEST(FormatPatternTest, CollapsesRuns) {
  EXPECT_EQ(FormatPattern("AB-12"), "a-d");
  EXPECT_EQ(FormatPattern("2024/01/02"), "d/d/d");
  EXPECT_EQ(FormatPattern("abc"), "a");
  EXPECT_EQ(FormatPattern(""), "");
  EXPECT_EQ(FormatPattern("a1b2"), "adad");
}

TEST(ExactMeasuresTest, OverlapJaccardContainment) {
  Corpus corpus;
  auto t1 = table::Table::FromCsv("t1", "x\na\nb\nc\nd\n");
  auto t2 = table::Table::FromCsv("t2", "y\nc\nd\ne\nf\n");
  ASSERT_TRUE(corpus.AddTable(*t1).ok());
  ASSERT_TRUE(corpus.AddTable(*t2).ok());
  const ColumnSketch& a = corpus.sketch(*corpus.FindColumn("t1", "x"));
  const ColumnSketch& b = corpus.sketch(*corpus.FindColumn("t2", "y"));
  EXPECT_EQ(ExactOverlap(a, b), 2u);
  EXPECT_DOUBLE_EQ(ExactJaccard(a, b), 2.0 / 6.0);
  EXPECT_DOUBLE_EQ(ExactContainment(a, b), 0.5);
}

// ---------------------------------------------------------------- brute

TEST_F(DiscoveryTest, BruteForceFindsAllPlantedPairs) {
  BruteForceFinder finder(corpus_);
  for (const auto& pair : lake_->planted) {
    ColumnId qa = Col(pair.table_a, pair.column_a);
    ColumnId expected = Col(pair.table_b, pair.column_b);
    auto matches = finder.TopKJoinableColumns(qa, 3);
    EXPECT_TRUE(Contains(matches, expected))
        << pair.table_a << "." << pair.column_a << " -> " << pair.table_b;
    // Top match score approximates the planted Jaccard.
    ASSERT_FALSE(matches.empty());
    EXPECT_NEAR(matches[0].score, pair.target_jaccard, 0.05);
  }
}

TEST_F(DiscoveryTest, BruteForceGroundTruthPairCount) {
  BruteForceFinder finder(corpus_);
  auto pairs = finder.AllJoinablePairs(0.3);
  EXPECT_EQ(pairs.size(), lake_->planted.size());
}

TEST_F(DiscoveryTest, BruteForceBackgroundColumnHasNoMatches) {
  BruteForceFinder finder(corpus_);
  // Find a background (non-planted) attr column.
  std::set<std::string> planted_cols;
  for (const auto& p : lake_->planted) {
    planted_cols.insert(p.table_a + "." + p.column_a);
    planted_cols.insert(p.table_b + "." + p.column_b);
  }
  for (size_t t = 0; t < corpus_->num_tables(); ++t) {
    std::string name = corpus_->table(t).name();
    if (planted_cols.count(name + ".attr0") == 0) {
      auto matches = finder.TopKJoinableColumns(Col(name, "attr0"), 5);
      EXPECT_TRUE(matches.empty());
      return;
    }
  }
}

// ---------------------------------------------------------------- Aurum

class AurumTest : public DiscoveryTest {
 protected:
  static void SetUpTestSuite() {
    DiscoveryTest::SetUpTestSuite();
    finder_ = new AurumFinder(corpus_);
    ASSERT_TRUE(finder_->Build().ok());
  }
  static void TearDownTestSuite() {
    delete finder_;
    finder_ = nullptr;
    DiscoveryTest::TearDownTestSuite();
  }
  static AurumFinder* finder_;
};

AurumFinder* AurumTest::finder_ = nullptr;

TEST_F(AurumTest, FindsPlantedJoinablePairs) {
  size_t found = 0;
  for (const auto& pair : lake_->planted) {
    auto matches =
        finder_->TopKJoinableColumns(Col(pair.table_a, pair.column_a), 3);
    if (Contains(matches, Col(pair.table_b, pair.column_b))) ++found;
  }
  // LSH at J=0.6 with 32x4 banding collides with probability ~1.
  EXPECT_GE(found, lake_->planted.size() - 1);
}

TEST_F(AurumTest, JoinableTablesAggregation) {
  const auto& pair = lake_->planted[0];
  auto tables = finder_->TopKJoinableTables(*corpus_->TableIndex(pair.table_a), 5);
  ASSERT_FALSE(tables.empty());
  EXPECT_EQ(tables[0].table_name, pair.table_b);
}

TEST_F(AurumTest, SchemaSimilarColumnsShareName) {
  // Every table has an "id" column: all id columns are schema-similar.
  auto matches = finder_->SchemaSimilarColumns(Col("table0", "id"), 50);
  ASSERT_FALSE(matches.empty());
  for (const ColumnMatch& m : matches) {
    EXPECT_EQ(corpus_->sketch(m.column).column_name, "id");
  }
}

TEST_F(AurumTest, EkgHasTableHyperedges) {
  EXPECT_EQ(finder_->ekg().num_hyperedges(), corpus_->num_tables());
  EXPECT_EQ(finder_->ekg().HyperedgeNodes("table:table0").size(), 5u);
}

TEST_F(AurumTest, DiscoveryPathConnectsPlantedPair) {
  const auto& pair = lake_->planted[0];
  auto path = finder_->DiscoveryPath(Col(pair.table_a, pair.column_a),
                                     Col(pair.table_b, pair.column_b));
  ASSERT_GE(path.size(), 2u);
  EXPECT_EQ(path.front(), Col(pair.table_a, pair.column_a));
  EXPECT_EQ(path.back(), Col(pair.table_b, pair.column_b));
}

// ---------------------------------------------------------------- JOSIE

class JosieTest : public DiscoveryTest {
 protected:
  static void SetUpTestSuite() {
    DiscoveryTest::SetUpTestSuite();
    finder_ = new JosieFinder(corpus_);
    finder_->Build();
  }
  static void TearDownTestSuite() {
    delete finder_;
    finder_ = nullptr;
    DiscoveryTest::TearDownTestSuite();
  }
  static JosieFinder* finder_;
};

JosieFinder* JosieTest::finder_ = nullptr;

TEST_F(JosieTest, ExactTopKMatchesBruteForce) {
  BruteForceFinder brute(corpus_);
  for (const auto& pair : lake_->planted) {
    ColumnId q = Col(pair.table_a, pair.column_a);
    auto josie = finder_->TopKOverlapColumns(q, 5);
    auto exact = brute.TopKOverlapColumns(q, 5);
    ASSERT_EQ(josie.size(), exact.size());
    for (size_t i = 0; i < josie.size(); ++i) {
      EXPECT_EQ(josie[i].column, exact[i].column);
      EXPECT_DOUBLE_EQ(josie[i].score, exact[i].score);
    }
  }
}

TEST_F(JosieTest, OverlapCountIsExactIntersectionSize) {
  const auto& pair = lake_->planted[0];
  ColumnId qa = Col(pair.table_a, pair.column_a);
  ColumnId qb = Col(pair.table_b, pair.column_b);
  auto matches = finder_->TopKOverlapColumns(qa, 1);
  ASSERT_EQ(matches.size(), 1u);
  EXPECT_EQ(matches[0].column, qb);
  EXPECT_DOUBLE_EQ(
      matches[0].score,
      static_cast<double>(ExactOverlap(corpus_->sketch(qa),
                                       corpus_->sketch(qb))));
}

TEST_F(JosieTest, AdHocValueQuery) {
  const auto& pair = lake_->planted[0];
  const ColumnSketch& target =
      corpus_->sketch(Col(pair.table_b, pair.column_b));
  // Query with a subset of the target's values.
  // The first distinct values are the pair's *shared* values, so both
  // planted columns legitimately contain all of them (a tie at 20).
  std::vector<std::string> values;
  for (size_t i = 0; i < 20; ++i) {
    values.emplace_back(corpus_->dictionary()[target.distinct_values[i]]);
  }
  auto matches = finder_->TopKOverlapForValues(values, 2);
  ASSERT_EQ(matches.size(), 2u);
  bool target_found = false;
  for (const ColumnMatch& m : matches) {
    EXPECT_DOUBLE_EQ(m.score, 20.0);
    if (m.column == target.id) target_found = true;
  }
  EXPECT_TRUE(target_found);
}

TEST_F(JosieTest, JoinableTables) {
  const auto& pair = lake_->planted[0];
  auto tables =
      finder_->TopKJoinableTables(*corpus_->TableIndex(pair.table_a), 3);
  ASSERT_FALSE(tables.empty());
  EXPECT_EQ(tables[0].table_name, pair.table_b);
}

TEST_F(JosieTest, NoMatchesForUnseenValues) {
  auto matches =
      finder_->TopKOverlapForValues({"zzz_unseen_1", "zzz_unseen_2"}, 5);
  EXPECT_TRUE(matches.empty());
}

// ---------------------------------------------------------------- D3L

class D3lTest : public DiscoveryTest {
 protected:
  static void SetUpTestSuite() {
    DiscoveryTest::SetUpTestSuite();
    finder_ = new D3lFinder(corpus_);
    ASSERT_TRUE(finder_->Build().ok());
  }
  static void TearDownTestSuite() {
    delete finder_;
    finder_ = nullptr;
    DiscoveryTest::TearDownTestSuite();
  }
  static D3lFinder* finder_;
};

D3lFinder* D3lTest::finder_ = nullptr;

TEST_F(D3lTest, FeaturesOfPlantedPairAreStrong) {
  const auto& pair = lake_->planted[0];
  D3lFeatures f = finder_->ComputeFeatures(Col(pair.table_a, pair.column_a),
                                           Col(pair.table_b, pair.column_b));
  EXPECT_GT(f.values, 0.4);   // ~0.6 planted overlap
  EXPECT_GT(f.format, 0.5);   // same generator format
  // Unrelated background pair is weak on values.
  D3lFeatures g = finder_->ComputeFeatures(Col("table0", "id"),
                                           Col(pair.table_b, pair.column_b));
  EXPECT_LT(g.values, 0.1);
}

TEST_F(D3lTest, DistanceOrdersPlantedAboveBackground) {
  const auto& pair = lake_->planted[0];
  ColumnId qa = Col(pair.table_a, pair.column_a);
  ColumnId planted = Col(pair.table_b, pair.column_b);
  // Any background attr on another table.
  ColumnId background = Col(pair.table_b, "measure");
  EXPECT_LT(finder_->Distance(qa, planted), finder_->Distance(qa, background));
}

TEST_F(D3lTest, TopKFindsPlantedPairs) {
  size_t found = 0;
  for (const auto& pair : lake_->planted) {
    auto matches =
        finder_->TopKRelatedColumns(Col(pair.table_a, pair.column_a), 3);
    if (Contains(matches, Col(pair.table_b, pair.column_b))) ++found;
  }
  EXPECT_GE(found, lake_->planted.size() - 1);
}

TEST_F(D3lTest, TrainedWeightsFavorDiscriminativeFeatures) {
  std::vector<LabeledPair> pairs;
  for (const auto& p : lake_->planted) {
    pairs.push_back(LabeledPair{Col(p.table_a, p.column_a),
                                Col(p.table_b, p.column_b), true});
  }
  // Negatives: id vs attr columns across tables.
  for (size_t t = 0; t + 1 < corpus_->num_tables() && pairs.size() < 24;
       ++t) {
    pairs.push_back(LabeledPair{
        Col(corpus_->table(t).name(), "id"),
        Col(corpus_->table(t + 1).name(), "attr0"), false});
  }
  D3lFinder trained(corpus_);
  ASSERT_TRUE(trained.Build().ok());
  ASSERT_TRUE(trained.TrainWeights(pairs).ok());
  // Weights stay normalized (mean 1 across 5 dims).
  double total = 0;
  for (double w : trained.weights()) total += w;
  EXPECT_NEAR(total, 5.0, 1e-6);
  // Value overlap separates positives from negatives in this lake, so its
  // weight should be among the largest.
  double max_w = *std::max_element(trained.weights().begin(),
                                   trained.weights().end());
  EXPECT_GE(trained.weights()[1], max_w * 0.5);
  // Trained finder still retrieves planted pairs.
  const auto& pair = lake_->planted[0];
  auto matches =
      trained.TopKRelatedColumns(Col(pair.table_a, pair.column_a), 3);
  EXPECT_TRUE(Contains(matches, Col(pair.table_b, pair.column_b)));
}

TEST_F(D3lTest, TrainRequiresPairs) {
  D3lFinder f(corpus_);
  ASSERT_TRUE(f.Build().ok());
  EXPECT_TRUE(f.TrainWeights({}).IsInvalidArgument());
}

TEST_F(D3lTest, RelatedTables) {
  const auto& pair = lake_->planted[0];
  auto tables =
      finder_->TopKRelatedTables(*corpus_->TableIndex(pair.table_a), 3);
  ASSERT_FALSE(tables.empty());
  bool found = false;
  for (const auto& t : tables) {
    if (t.table_name == pair.table_b) found = true;
  }
  EXPECT_TRUE(found);
}

// ---------------------------------------------------------------- PEXESO

TEST(PexesoTest, FindsSemanticallyJoinableColumns) {
  // Two columns with *different* string values from the same semantic
  // domain: equality-based overlap is zero, but PEXESO links them.
  Corpus corpus;
  std::vector<std::string> colors_a{"red", "green", "blue", "cyan"};
  std::vector<std::string> colors_b{"crimson", "emerald", "navy", "teal"};
  std::vector<std::string> all;
  for (const auto& v : colors_a) all.push_back(v);
  for (const auto& v : colors_b) all.push_back(v);
  corpus.RegisterSemanticDomain("color", all);

  table::Table ta("paints", table::Schema({{"shade", table::DataType::kString, true}}));
  for (const auto& v : colors_a) ASSERT_TRUE(ta.AppendRow({table::Value(v)}).ok());
  table::Table tb("fabrics", table::Schema({{"tone", table::DataType::kString, true}}));
  for (const auto& v : colors_b) ASSERT_TRUE(tb.AppendRow({table::Value(v)}).ok());
  table::Table tc("misc", table::Schema({{"junk", table::DataType::kString, true}}));
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(tc.AppendRow({table::Value("junkvalue" + std::to_string(i))}).ok());
  }
  ASSERT_TRUE(corpus.AddTable(ta).ok());
  ASSERT_TRUE(corpus.AddTable(tb).ok());
  ASSERT_TRUE(corpus.AddTable(tc).ok());

  PexesoFinder finder(&corpus);
  finder.Build();
  EXPECT_GT(finder.num_indexed_values(), 0u);
  auto matches = finder.TopKSemanticJoinableColumns(
      *corpus.FindColumn("paints", "shade"), 5);
  ASSERT_FALSE(matches.empty());
  EXPECT_EQ(corpus.sketch(matches[0].column).table_name, "fabrics");
  // Equality-based overlap is zero: exact methods cannot find this pair.
  EXPECT_EQ(ExactOverlap(corpus.sketch(*corpus.FindColumn("paints", "shade")),
                         corpus.sketch(*corpus.FindColumn("fabrics", "tone"))),
            0u);
  // The junk table does not appear.
  for (const auto& m : matches) {
    EXPECT_NE(corpus.sketch(m.column).table_name, "misc");
  }
}

TEST(PexesoTest, TableAggregation) {
  Corpus corpus;
  corpus.RegisterSemanticDomain("animal", {"cat", "dog", "wolf", "lynx"});
  table::Table ta("zoo", table::Schema({{"species", table::DataType::kString, true}}));
  ASSERT_TRUE(ta.AppendRow({table::Value("cat")}).ok());
  ASSERT_TRUE(ta.AppendRow({table::Value("dog")}).ok());
  table::Table tb("shelter", table::Schema({{"kind", table::DataType::kString, true}}));
  ASSERT_TRUE(tb.AppendRow({table::Value("wolf")}).ok());
  ASSERT_TRUE(tb.AppendRow({table::Value("lynx")}).ok());
  ASSERT_TRUE(corpus.AddTable(ta).ok());
  ASSERT_TRUE(corpus.AddTable(tb).ok());
  PexesoFinder finder(&corpus);
  finder.Build();
  auto tables = finder.TopKSemanticJoinableTables(0, 3);
  ASSERT_FALSE(tables.empty());
  EXPECT_EQ(tables[0].table_name, "shelter");
}

TEST(PexesoTest, LongQueryColumnScoresOverTheValuesItScores) {
  // The query column has 200 distinct values and PEXESO scores its first 128;
  // the candidate holds exactly those 128, so every scored value matches.
  Corpus corpus;
  table::Table wide("wide", table::Schema({{"code", table::DataType::kString, true}}));
  table::Table lead("lead", table::Schema({{"code", table::DataType::kString, true}}));
  for (int i = 0; i < 200; ++i) {
    const table::Value v("code" + std::to_string(i));
    ASSERT_TRUE(wide.AppendRow({v}).ok());
    if (i < 128) {
      ASSERT_TRUE(lead.AppendRow({v}).ok());
    }
  }
  ASSERT_TRUE(corpus.AddTable(wide).ok());
  ASSERT_TRUE(corpus.AddTable(lead).ok());
  PexesoFinder finder(&corpus);
  finder.Build();
  auto matches = finder.TopKSemanticJoinableColumns(
      *corpus.FindColumn("wide", "code"), 5);
  ASSERT_EQ(matches.size(), 1u);
  EXPECT_EQ(matches[0].column, *corpus.FindColumn("lead", "code"));
  EXPECT_EQ(matches[0].score, 1.0);
}

TEST(PexesoTest, NonTextualQueryYieldsNothing) {
  Corpus corpus;
  auto t = table::Table::FromCsv("nums", "x\n1\n2\n3\n");
  ASSERT_TRUE(corpus.AddTable(*t).ok());
  PexesoFinder finder(&corpus);
  finder.Build();
  EXPECT_TRUE(
      finder.TopKSemanticJoinableColumns(*corpus.FindColumn("nums", "x"), 5)
          .empty());
}

// ---------------------------------------------------------------- union

TEST(UnionSearchTest, GroupMembersAreTopUnionable) {
  workload::UnionableLakeOptions options;
  options.num_groups = 3;
  options.tables_per_group = 3;
  options.rows_per_table = 60;
  auto lake = workload::MakeUnionableLake(options);
  Corpus corpus;
  for (const auto& [domain, terms] : lake.domains) {
    corpus.RegisterSemanticDomain(domain, terms);
  }
  for (const auto& t : lake.tables) {
    ASSERT_TRUE(corpus.AddTable(t).ok());
  }
  UnionSearch search(&corpus);
  // For each table, its top-(group size - 1) unionable tables are exactly
  // its group members.
  for (size_t q = 0; q < lake.tables.size(); ++q) {
    auto matches = search.TopKUnionableTables(q, options.tables_per_group - 1);
    ASSERT_EQ(matches.size(), options.tables_per_group - 1);
    for (const auto& m : matches) {
      EXPECT_EQ(lake.group_of[m.table_idx], lake.group_of[q])
          << "table " << q << " matched out-of-group " << m.table_name;
      EXPECT_GT(m.score, 0.3);
      EXPECT_EQ(m.alignment.size(), options.cols_per_table);
    }
  }
}

TEST(UnionSearchTest, AttributeUnionabilityOrdering) {
  workload::UnionableLakeOptions options;
  options.num_groups = 2;
  options.tables_per_group = 2;
  auto lake = workload::MakeUnionableLake(options);
  Corpus corpus;
  for (const auto& t : lake.tables) ASSERT_TRUE(corpus.AddTable(t).ok());
  UnionSearch search(&corpus);
  // Same column position within a group >> across groups.
  ColumnId a = *corpus.FindColumn(lake.tables[0].name(), "g0_field0");
  ColumnId same_group = *corpus.FindColumn(lake.tables[1].name(), "g0_field0");
  ColumnId other_group =
      *corpus.FindColumn(lake.tables[2].name(), "g1_field0");
  EXPECT_GT(search.AttributeUnionability(corpus.sketch(a),
                                         corpus.sketch(same_group)),
            search.AttributeUnionability(corpus.sketch(a),
                                         corpus.sketch(other_group)));
}

TEST(UnionSearchTest, AlignmentIsOneToOne) {
  workload::UnionableLakeOptions options;
  options.num_groups = 1;
  options.tables_per_group = 2;
  auto lake = workload::MakeUnionableLake(options);
  Corpus corpus;
  for (const auto& t : lake.tables) ASSERT_TRUE(corpus.AddTable(t).ok());
  UnionSearch search(&corpus);
  auto alignment = search.AlignTables(0, 1);
  std::set<uint64_t> used_q;
  std::set<uint64_t> used_c;
  for (const auto& a : alignment) {
    EXPECT_TRUE(used_q.insert(a.query_column.Packed()).second);
    EXPECT_TRUE(used_c.insert(a.candidate_column.Packed()).second);
  }
}

// The queries are const and keep their scratch per call, so callers on
// several threads get the answers one thread gets.
TEST(UnionSearchTest, ConcurrentQueriesMatchSerial) {
  workload::UnionableLakeOptions options;
  options.num_groups = 3;
  options.tables_per_group = 3;
  options.rows_per_table = 40;
  const workload::UnionableLake lake = workload::MakeUnionableLake(options);
  Corpus corpus;
  ASSERT_TRUE(corpus.AddTables(lake.tables).ok());
  const UnionSearch search(&corpus);
  const size_t n = corpus.num_tables();
  std::vector<std::vector<UnionMatch>> serial(n);
  for (size_t q = 0; q < n; ++q) serial[q] = search.TopKUnionableTables(q, n);
  constexpr size_t kThreads = 4;
  std::vector<std::vector<std::vector<UnionMatch>>> got(
      kThreads, std::vector<std::vector<UnionMatch>>(n));
  std::vector<std::thread> threads;
  for (size_t w = 0; w < kThreads; ++w) {
    threads.emplace_back([&search, &got, n, w] {
      for (size_t round = 0; round < 5; ++round) {
        for (size_t i = 0; i < n; ++i) {
          const size_t q = (i + w) % n;
          got[w][q] = search.TopKUnionableTables(q, n);
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (size_t w = 0; w < kThreads; ++w) {
    for (size_t q = 0; q < n; ++q) {
      ASSERT_EQ(got[w][q].size(), serial[q].size());
      for (size_t i = 0; i < serial[q].size(); ++i) {
        EXPECT_EQ(got[w][q][i].table_idx, serial[q][i].table_idx);
        EXPECT_EQ(got[w][q][i].score, serial[q][i].score);
        ASSERT_EQ(got[w][q][i].alignment.size(),
                  serial[q][i].alignment.size());
        for (size_t j = 0; j < serial[q][i].alignment.size(); ++j) {
          EXPECT_EQ(got[w][q][i].alignment[j].candidate_column,
                    serial[q][i].alignment[j].candidate_column);
          EXPECT_EQ(got[w][q][i].alignment[j].score,
                    serial[q][i].alignment[j].score);
        }
      }
    }
  }
}

// ------------------------------------------------------ string oracles

// Union search as it scored before sketches held packed name grams: the
// name signal from string q-grams per attribute pair, everything else as
// UnionSearch documents it. Kept as the oracle of the precomputed form.
double OracleUnionability(const Corpus& corpus, ColumnId a, ColumnId b,
                          const UnionSearchOptions& options = {}) {
  const ColumnSketch& sa = corpus.sketch(a);
  const ColumnSketch& sb = corpus.sketch(b);
  double name = oracle::StringGramJaccard(sa.column_name, sb.column_name);
  double values = sa.minhash.EstimateJaccard(sb.minhash);
  double embedding =
      std::max(0.0, text::CosineSimilarity(sa.embedding, sb.embedding));
  double score = options.name_weight * name + options.value_weight * values +
                 options.embedding_weight * embedding;
  if (sa.type != sb.type) score *= 0.5;
  return score;
}

std::vector<UnionMatch> OracleTopKUnionable(
    const Corpus& corpus, size_t query_table, size_t k,
    const UnionSearchOptions& options = {}) {
  std::vector<UnionMatch> out;
  const std::vector<const ColumnSketch*> qs =
      corpus.TableSketches(query_table);
  for (size_t t = 0; t < corpus.num_tables(); ++t) {
    if (t == query_table) continue;
    const std::vector<const ColumnSketch*> cs = corpus.TableSketches(t);
    struct Scored {
      size_t qi;
      size_t ci;
      double score;
    };
    std::vector<Scored> pairs;
    for (size_t i = 0; i < qs.size(); ++i) {
      for (size_t j = 0; j < cs.size(); ++j) {
        double score =
            OracleUnionability(corpus, qs[i]->id, cs[j]->id, options);
        if (score >= options.attribute_threshold) {
          pairs.push_back(Scored{i, j, score});
        }
      }
    }
    std::sort(pairs.begin(), pairs.end(), [](const Scored& a, const Scored& b) {
      return a.score > b.score;
    });
    std::vector<bool> q_used(qs.size(), false);
    std::vector<bool> c_used(cs.size(), false);
    UnionMatch match;
    match.table_idx = t;
    match.table_name = corpus.table(t).name();
    double sum = 0;
    for (const Scored& p : pairs) {
      if (q_used[p.qi] || c_used[p.ci]) continue;
      q_used[p.qi] = true;
      c_used[p.ci] = true;
      match.alignment.push_back(
          AttributeAlignment{qs[p.qi]->id, cs[p.ci]->id, p.score});
      sum += p.score;
    }
    if (match.alignment.empty()) continue;
    const double aligned = static_cast<double>(match.alignment.size());
    match.score =
        (sum / aligned) * (aligned / static_cast<double>(qs.size()));
    out.push_back(std::move(match));
  }
  std::sort(out.begin(), out.end(),
            [](const UnionMatch& a, const UnionMatch& b) {
              if (a.score != b.score) return a.score > b.score;
              return a.table_idx < b.table_idx;
            });
  if (out.size() > k) out.resize(k);
  return out;
}

/// Every table's full unionability ranking equals the oracle's, scores bit
/// for bit.
void ExpectUnionSearchMatchesOracle(const Corpus& corpus,
                                    const std::vector<size_t>& queries,
                                    const UnionSearchOptions& options = {}) {
  UnionSearch search(&corpus, options);
  for (size_t q : queries) {
    SCOPED_TRACE("query table " + corpus.table(q).name());
    const std::vector<UnionMatch> got =
        search.TopKUnionableTables(q, corpus.num_tables());
    const std::vector<UnionMatch> want =
        OracleTopKUnionable(corpus, q, corpus.num_tables(), options);
    ASSERT_EQ(got.size(), want.size());
    for (size_t i = 0; i < got.size(); ++i) {
      ASSERT_EQ(got[i].table_idx, want[i].table_idx);
      ASSERT_EQ(got[i].table_name, want[i].table_name);
      ASSERT_EQ(got[i].score, want[i].score);
      ASSERT_EQ(got[i].alignment.size(), want[i].alignment.size());
      for (size_t j = 0; j < got[i].alignment.size(); ++j) {
        EXPECT_EQ(got[i].alignment[j].query_column,
                  want[i].alignment[j].query_column);
        EXPECT_EQ(got[i].alignment[j].candidate_column,
                  want[i].alignment[j].candidate_column);
        EXPECT_EQ(got[i].alignment[j].score, want[i].alignment[j].score);
      }
    }
    for (const ColumnSketch* a : corpus.TableSketches(q)) {
      const ColumnSketch* b =
          corpus.TableSketches((q + 1) % corpus.num_tables())[0];
      EXPECT_EQ(search.AttributeUnionability(*a, *b),
                OracleUnionability(corpus, a->id, b->id, options));
    }
  }
}

/// The options the attribute bound must stay exact under: the defaults,
/// each signal alone, negative weights, threshold 0, a threshold no score
/// reaches, and a threshold equal to the exact score of one query's best
/// pair (that pair must stay aligned).
void ExpectSweptOptionsMatchOracle(const Corpus& corpus,
                                   const std::vector<size_t>& queries) {
  std::vector<UnionSearchOptions> sweep = {
      {},
      {0.4, 1.0, 0.0, 0.0},
      {0.4, 0.0, 1.0, 0.0},
      {0.4, 0.0, 0.0, 1.0},
      {0.2, 0.6, 0.5, -0.3},
      {0.3, -0.5, 0.5, 0.3},
      {0.0, 0.4, 0.3, 0.3},
      {1.5, 0.4, 0.3, 0.3},
  };
  size_t exact_query = 0;
  std::vector<UnionMatch> best;
  for (size_t q : queries) {
    best = OracleTopKUnionable(corpus, q, 1);
    exact_query = q;
    if (!best.empty()) break;
  }
  ASSERT_FALSE(best.empty());
  UnionSearchOptions exact;
  exact.attribute_threshold = best[0].alignment[0].score;
  sweep.push_back(exact);
  for (const UnionSearchOptions& o : sweep) {
    SCOPED_TRACE(::testing::Message()
                 << "threshold " << o.attribute_threshold << " weights "
                 << o.name_weight << "/" << o.value_weight << "/"
                 << o.embedding_weight);
    ExpectUnionSearchMatchesOracle(corpus, queries, o);
  }
  const std::vector<UnionMatch> at_exact =
      UnionSearch(&corpus, exact)
          .TopKUnionableTables(exact_query, corpus.num_tables());
  const auto it = std::find_if(
      at_exact.begin(), at_exact.end(), [&best](const UnionMatch& m) {
        return m.table_idx == best[0].table_idx;
      });
  ASSERT_NE(it, at_exact.end());
  EXPECT_EQ(it->alignment[0].score, exact.attribute_threshold);
}

// The lake the end-to-end discovery workload builds: 120 joinable tables
// with 20 planted pairs plus 8 union groups of 4 (fewer rows; names and
// shapes are what the name signal reads). Queried: every union table and
// every tenth joinable one.
constexpr size_t kShapedJoinableTables = 120;

std::vector<table::Table> LakeBuildShapedTables() {
  workload::JoinableLakeOptions jo;
  jo.num_tables = kShapedJoinableTables;
  jo.rows_per_table = 60;
  jo.num_planted_pairs = 20;
  jo.seed = 1001;
  workload::UnionableLakeOptions uo;
  uo.num_groups = 8;
  uo.tables_per_group = 4;
  uo.rows_per_table = 60;
  uo.seed = 1002;
  std::vector<table::Table> tables = workload::MakeJoinableLake(jo).tables;
  for (table::Table& t : workload::MakeUnionableLake(uo).tables) {
    tables.push_back(std::move(t));
  }
  return tables;
}

std::vector<size_t> LakeBuildShapedQueries(const Corpus& corpus) {
  std::vector<size_t> queries;
  for (size_t t = 0; t < corpus.num_tables(); ++t) {
    if (t >= kShapedJoinableTables || t % 10 == 0) queries.push_back(t);
  }
  return queries;
}

/// Twelve tables of one to four randomly named columns, string and int64
/// alternating, 30 rows over 40 values.
std::vector<table::Table> RandomNamesTables(uint64_t seed) {
  Rng rng(seed);
  std::vector<table::Table> tables;
  for (size_t t = 0; t < 12; ++t) {
    table::Schema schema;
    const size_t cols = 1 + rng.Below(4);
    for (size_t c = 0; c < cols; ++c) {
      schema.AddField(table::Field{
          oracle::RandomName(rng),
          c % 2 == 0 ? table::DataType::kString : table::DataType::kInt64,
          true});
    }
    table::Table table("t" + std::to_string(t), schema);
    for (size_t r = 0; r < 30; ++r) {
      std::vector<table::Value> row;
      for (size_t c = 0; c < cols; ++c) {
        const int64_t v = static_cast<int64_t>(rng.Below(40));
        if (c % 2 == 0) {
          row.emplace_back("v" + std::to_string(v));
        } else {
          row.emplace_back(v);
        }
      }
      EXPECT_TRUE(table.AppendRow(std::move(row)).ok());
    }
    tables.push_back(std::move(table));
  }
  return tables;
}

std::vector<size_t> AllTables(const Corpus& corpus) {
  std::vector<size_t> queries(corpus.num_tables());
  for (size_t q = 0; q < queries.size(); ++q) queries[q] = q;
  return queries;
}

TEST(UnionSearchOracleTest, MatchesStringGramsOnLakeBuildShapedLake) {
  Corpus corpus;
  ASSERT_TRUE(corpus.AddTables(LakeBuildShapedTables()).ok());
  ExpectUnionSearchMatchesOracle(corpus, LakeBuildShapedQueries(corpus));
}

TEST(UnionSearchOracleTest, MatchesStringGramsOnRandomNames) {
  for (uint64_t seed : {1, 2, 3}) {
    Corpus corpus;
    ASSERT_TRUE(corpus.AddTables(RandomNamesTables(seed)).ok());
    ExpectUnionSearchMatchesOracle(corpus, AllTables(corpus));
  }
}

// The attribute bound skips only pairs that cannot reach the threshold, so
// every option set answers exactly as scoring every pair does.
TEST(UnionSearchOracleTest, SweptOptionsOnLakeBuildShapedLake) {
  Corpus corpus;
  ASSERT_TRUE(corpus.AddTables(LakeBuildShapedTables()).ok());
  // Every other union table, then every thirtieth joinable one.
  std::vector<size_t> queries;
  for (size_t t = kShapedJoinableTables; t < corpus.num_tables(); t += 2) {
    queries.push_back(t);
  }
  for (size_t t = 0; t < kShapedJoinableTables; t += 30) queries.push_back(t);
  ExpectSweptOptionsMatchOracle(corpus, queries);
}

TEST(UnionSearchOracleTest, SweptOptionsOnRandomNames) {
  for (uint64_t seed : {1, 2, 3}) {
    Corpus corpus;
    ASSERT_TRUE(corpus.AddTables(RandomNamesTables(seed)).ok());
    ExpectSweptOptionsMatchOracle(corpus, AllTables(corpus));
  }
}

// Registered domains give string columns nonzero embeddings whose cosine
// carries pairs past the threshold, so the embedding signal is read.
TEST(UnionSearchOracleTest, SweptOptionsWithSemanticDomains) {
  workload::UnionableLakeOptions options;
  options.num_groups = 3;
  options.tables_per_group = 3;
  options.rows_per_table = 40;
  const workload::UnionableLake lake = workload::MakeUnionableLake(options);
  Corpus corpus;
  for (const auto& [domain, terms] : lake.domains) {
    corpus.RegisterSemanticDomain(domain, terms);
  }
  ASSERT_TRUE(corpus.AddTables(lake.tables).ok());
  UnionSearchOptions embedding_only{0.4, 0.0, 0.0, 1.0};
  EXPECT_FALSE(UnionSearch(&corpus, embedding_only)
                   .TopKUnionableTables(0, corpus.num_tables())
                   .empty());
  ExpectSweptOptionsMatchOracle(corpus, AllTables(corpus));
}

// All-NULL columns: empty value sets have all-max signatures, so their
// MinHash Jaccard is 1, and zero embeddings. The string columns' names
// share no 3-gram, so a negative name weight cannot lower their score.
TEST(UnionSearchOracleTest, SweptOptionsOnAllNullColumns) {
  std::vector<table::Table> tables;
  for (const char* name : {"empty", "void", "blank"}) {
    table::Schema schema;
    schema.AddField(table::Field{name, table::DataType::kString, true});
    schema.AddField(table::Field{"nothing",
                                 name[0] == 'b' ? table::DataType::kDouble
                                                : table::DataType::kInt64,
                                 true});
    table::Table t(std::string("t_") + name, schema);
    for (int r = 0; r < 5; ++r) {
      ASSERT_TRUE(t.AppendRow({table::Value(), table::Value()}).ok());
    }
    tables.push_back(std::move(t));
  }
  Corpus corpus;
  ASSERT_TRUE(corpus.AddTables(tables).ok());
  const ColumnSketch& a = corpus.sketch(*corpus.FindColumn("t_empty", "empty"));
  const ColumnSketch& b = corpus.sketch(*corpus.FindColumn("t_void", "void"));
  EXPECT_EQ(a.minhash.EstimateJaccard(b.minhash), 1.0);
  ExpectSweptOptionsMatchOracle(corpus, AllTables(corpus));
}

/// One column's distinct non-null rendered cells, straight from the table,
/// in first-row order.
std::vector<std::string> RenderedDistinct(const table::Table& t, size_t col) {
  std::vector<std::string> out;
  std::set<std::string> seen;
  for (const table::Value& v : t.column(col)) {
    if (v.is_null()) continue;
    std::string s = v.ToString();
    if (seen.insert(s).second) out.push_back(std::move(s));
  }
  return out;
}

size_t SetOverlap(const std::vector<std::string>& a,
                  const std::vector<std::string>& b) {
  const std::set<std::string> sb(b.begin(), b.end());
  size_t n = 0;
  for (const std::string& v : a) n += sb.count(v);
  return n;
}

// The sketches' ids, the exact measures and JOSIE's top-k against sets the
// test renders from the tables' cells itself.
TEST(ValueDictionaryTest, ExactMeasuresAndJosieMatchRenderedCellSets) {
  workload::JoinableLakeOptions options;
  options.num_tables = 16;
  options.rows_per_table = 80;
  options.num_planted_pairs = 5;
  workload::JoinableLake lake = workload::MakeJoinableLake(options);
  Corpus corpus;
  for (const table::Table& t : lake.tables) {
    ASSERT_TRUE(corpus.AddTable(t).ok());
  }
  // A mixed-type table: int 1 and double 1.0 render alike, NULLs drop out.
  table::Schema mixed;
  mixed.AddField(table::Field{"m", table::DataType::kDouble, true});
  table::Table extra("mixed", mixed);
  for (table::Value v : {table::Value(1.0), table::Value(2.5), table::Value(),
                         table::Value(1.0), table::Value(-0.0)}) {
    ASSERT_TRUE(extra.AppendRow({v}).ok());
  }
  ASSERT_TRUE(corpus.AddTable(extra).ok());

  std::vector<std::vector<std::string>> rendered;
  for (const ColumnSketch& s : corpus.sketches()) {
    rendered.push_back(RenderedDistinct(corpus.table(s.id.table_idx),
                                        s.id.col_idx));
    std::vector<std::string> from_ids;
    for (uint32_t id : s.distinct_values) {
      from_ids.emplace_back(corpus.dictionary()[id]);
    }
    ASSERT_EQ(from_ids, rendered.back())
        << s.table_name << "." << s.column_name;
    EXPECT_EQ(s.minhash.values(),
              corpus.minhasher().Compute(rendered.back()).values());
  }

  JosieFinder josie(&corpus);
  josie.Build();
  const std::vector<ColumnSketch>& sketches = corpus.sketches();
  for (size_t i = 0; i < sketches.size(); ++i) {
    std::vector<ColumnMatch> want;
    for (size_t j = 0; j < sketches.size(); ++j) {
      const size_t overlap = SetOverlap(rendered[i], rendered[j]);
      const size_t uni = rendered[i].size() + rendered[j].size() - overlap;
      ASSERT_EQ(ExactOverlap(sketches[i], sketches[j]), overlap);
      ASSERT_EQ(ExactJaccard(sketches[i], sketches[j]),
                uni == 0 ? 0.0
                         : static_cast<double>(overlap) /
                               static_cast<double>(uni));
      ASSERT_EQ(ExactContainment(sketches[i], sketches[j]),
                rendered[i].empty()
                    ? 0.0
                    : static_cast<double>(overlap) /
                          static_cast<double>(rendered[i].size()));
      if (overlap > 0 &&
          sketches[j].id.table_idx != sketches[i].id.table_idx) {
        want.push_back(
            ColumnMatch{sketches[j].id, static_cast<double>(overlap)});
      }
    }
    SortAndTruncate(&want, 5);
    EXPECT_EQ(josie.TopKOverlapColumns(sketches[i].id, 5), want)
        << sketches[i].table_name << "." << sketches[i].column_name;
  }
}

// ------------------------------------------------- parallel determinism

// The execution-layer contract (DESIGN.md): a parallel-built corpus is
// bit-identical to one built on a one-worker pool over the same lake, and
// to one built a table per AddTable call — sketch order, minhash values,
// embeddings, dictionary ids and bytes, everything discovery reads.
TEST(CorpusParallelTest, ParallelBuildMatchesSerialBitForBit) {
  workload::JoinableLakeOptions options;
  options.num_tables = 16;
  options.rows_per_table = 80;
  options.num_planted_pairs = 5;
  workload::JoinableLake lake = workload::MakeJoinableLake(options);

  ThreadPool one_worker(1);
  Corpus serial;
  ASSERT_TRUE(serial.AddTables(lake.tables, &one_worker).ok());

  ThreadPool pool(4);
  Corpus parallel;
  Result<std::vector<size_t>> indexes =
      parallel.AddTables(lake.tables, &pool);
  ASSERT_TRUE(indexes.ok());
  ASSERT_EQ(indexes->size(), lake.tables.size());
  for (size_t i = 0; i < indexes->size(); ++i) {
    EXPECT_EQ((*indexes)[i], i);
  }

  Corpus one_at_a_time;
  for (const auto& t : lake.tables) {
    ASSERT_TRUE(one_at_a_time.AddTable(t).ok());
  }

  for (const Corpus* other : {&parallel, &one_at_a_time}) {
    ASSERT_EQ(other->num_tables(), serial.num_tables());
    ASSERT_EQ(other->num_columns(), serial.num_columns());
    ASSERT_EQ(other->dictionary().size(), serial.dictionary().size());
    EXPECT_EQ(other->dictionary().bytes(), serial.dictionary().bytes());
    for (uint32_t id = 0; id < serial.dictionary().size(); ++id) {
      ASSERT_EQ(other->dictionary()[id], serial.dictionary()[id]);
    }
    for (size_t i = 0; i < serial.sketches().size(); ++i) {
      const ColumnSketch& s = serial.sketches()[i];
      const ColumnSketch& p = other->sketches()[i];
      SCOPED_TRACE(s.table_name + "." + s.column_name);
      EXPECT_EQ(p.id, s.id);
      EXPECT_EQ(p.table_name, s.table_name);
      EXPECT_EQ(p.column_name, s.column_name);
      EXPECT_EQ(p.type, s.type);
      EXPECT_EQ(p.distinct_values, s.distinct_values);
      EXPECT_EQ(p.sorted_values, s.sorted_values);
      EXPECT_EQ(p.name_grams, s.name_grams);
      EXPECT_EQ(p.minhash.values(), s.minhash.values());
      EXPECT_EQ(p.embedding, s.embedding);
      EXPECT_EQ(p.format_histogram, s.format_histogram);
      EXPECT_EQ(p.numeric_values, s.numeric_values);
      EXPECT_EQ(p.name_tokens, s.name_tokens);
      EXPECT_EQ(p.row_count, s.row_count);
      EXPECT_EQ(p.null_count, s.null_count);
    }
  }
}

TEST(CorpusParallelTest, AddTablesRejectsDuplicatesWithoutSideEffects) {
  workload::JoinableLakeOptions options;
  options.num_tables = 4;
  workload::JoinableLake lake = workload::MakeJoinableLake(options);

  Corpus corpus;
  ASSERT_TRUE(corpus.AddTable(lake.tables[1]).ok());
  // Batch contains a name already in the corpus: nothing may be ingested.
  Result<std::vector<size_t>> r = corpus.AddTables(lake.tables);
  EXPECT_TRUE(r.status().IsAlreadyExists());
  EXPECT_EQ(corpus.num_tables(), 1u);

  // Batch with an internal duplicate fails too.
  Corpus fresh;
  std::vector<table::Table> dup{lake.tables[0], lake.tables[0]};
  EXPECT_TRUE(fresh.AddTables(dup).status().IsAlreadyExists());
  EXPECT_EQ(fresh.num_tables(), 0u);
}

TEST(CorpusParallelTest, TableSketchesServesOwnColumnsInOrder) {
  workload::JoinableLakeOptions options;
  options.num_tables = 6;
  workload::JoinableLake lake = workload::MakeJoinableLake(options);
  Corpus corpus;
  ASSERT_TRUE(corpus.AddTables(lake.tables).ok());
  for (size_t t = 0; t < corpus.num_tables(); ++t) {
    std::vector<const ColumnSketch*> sketches = corpus.TableSketches(t);
    ASSERT_EQ(sketches.size(), corpus.table(t).num_columns());
    for (size_t c = 0; c < sketches.size(); ++c) {
      EXPECT_EQ(sketches[c]->id.table_idx, t);
      EXPECT_EQ(sketches[c]->id.col_idx, c);
    }
  }
  EXPECT_TRUE(corpus.TableSketches(corpus.num_tables()).empty());
}

// A column id the corpus does not hold stops the process, whether its table
// is past the end or its column past its table's width (which would
// otherwise read the next table's first column).
TEST(CorpusDeathTest, SketchOfUnknownColumnAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  workload::JoinableLakeOptions options;
  options.num_tables = 2;
  workload::JoinableLake lake = workload::MakeJoinableLake(options);
  Corpus corpus;
  ASSERT_TRUE(corpus.AddTables(lake.tables).ok());
  const auto width = static_cast<uint32_t>(corpus.table(0).num_columns());
  EXPECT_EQ(corpus.sketch(ColumnId{0, width - 1}).id,
            (ColumnId{0, width - 1}));
  EXPECT_DEATH(corpus.sketch(ColumnId{0, width}), "not in corpus");
  EXPECT_DEATH(corpus.sketch(ColumnId{2, 0}), "not in corpus");
}

// Finder builds are deterministic across pool sizes: same EKG edges, same
// PK-FK pairs, same query answers.
TEST(CorpusParallelTest, AurumBuildIsDeterministicAcrossPoolSizes) {
  workload::JoinableLakeOptions options;
  options.num_tables = 16;
  options.num_planted_pairs = 5;
  workload::JoinableLake lake = workload::MakeJoinableLake(options);
  Corpus corpus;
  ASSERT_TRUE(corpus.AddTables(lake.tables).ok());

  ThreadPool serial_pool(1);
  ThreadPool wide_pool(4);
  AurumFinder a(&corpus);
  AurumFinder b(&corpus);
  ASSERT_TRUE(a.Build(&serial_pool).ok());
  ASSERT_TRUE(b.Build(&wide_pool).ok());

  EXPECT_EQ(a.ekg().edges().size(), b.ekg().edges().size());
  EXPECT_EQ(a.PkFkPairs(), b.PkFkPairs());
  for (const auto& planted : lake.planted) {
    ColumnId q = *corpus.FindColumn(planted.table_a, planted.column_a);
    EXPECT_EQ(a.TopKJoinableColumns(q, 3), b.TopKJoinableColumns(q, 3));
  }
}

TEST(CorpusParallelTest, BruteForceAllPairsIsDeterministicAcrossPoolSizes) {
  workload::JoinableLakeOptions options;
  options.num_tables = 12;
  options.num_planted_pairs = 4;
  workload::JoinableLake lake = workload::MakeJoinableLake(options);
  Corpus corpus;
  ASSERT_TRUE(corpus.AddTables(lake.tables).ok());
  BruteForceFinder brute(&corpus);
  ThreadPool serial_pool(1);
  ThreadPool wide_pool(4);
  EXPECT_EQ(brute.AllJoinablePairs(0.3, &serial_pool),
            brute.AllJoinablePairs(0.3, &wide_pool));
}

}  // namespace
}  // namespace lakekit::discovery
