// The string counter behind column profiles, content keywords and column
// sketches, checked against the map-and-sort oracles in profile_oracle.h:
// every ColumnProfile field and every keyword list must match, and every
// column sketch's counts must equal the oracle profile's.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <iterator>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "common/hash.h"
#include "common/random.h"
#include "common/thread_pool.h"
#include "discovery/corpus.h"
#include "ingest/profiler.h"
#include "json/writer.h"
#include "profile_oracle.h"
#include "table/table.h"
#include "text/dictionary.h"
#include "workload/generator.h"

namespace lakekit {
namespace {

using ingest::ColumnProfile;
using ingest::Profiler;
using table::Value;

/// Doubles compare by bits, so NaN statistics match NaN and -0.0 is not 0.0.
void ExpectSameDouble(double got, double want, const char* field) {
  EXPECT_EQ(std::bit_cast<uint64_t>(got), std::bit_cast<uint64_t>(want))
      << field << ": " << got << " vs " << want;
}

void ExpectSameProfile(const ColumnProfile& got, const ColumnProfile& want) {
  EXPECT_EQ(got.name, want.name);
  EXPECT_EQ(got.type, want.type);
  EXPECT_EQ(got.row_count, want.row_count);
  EXPECT_EQ(got.null_count, want.null_count);
  EXPECT_EQ(got.distinct_count, want.distinct_count);
  ExpectSameDouble(got.min, want.min, "min");
  ExpectSameDouble(got.max, want.max, "max");
  ExpectSameDouble(got.mean, want.mean, "mean");
  ExpectSameDouble(got.stddev, want.stddev, "stddev");
  ExpectSameDouble(got.avg_length, want.avg_length, "avg_length");
  EXPECT_EQ(got.top_values, want.top_values);
  EXPECT_EQ(got.is_candidate_key, want.is_candidate_key);
}

// ------------------------------------------------------- the counter itself

TEST(StringCounterTest, CountsInFirstSeenOrderWithHashes) {
  text::StringCounter counter;
  for (const char* s : {"b", "a", "b", "", "a", "b"}) counter.Add(s);
  ASSERT_EQ(counter.size(), 3u);
  EXPECT_EQ(counter[0], "b");
  EXPECT_EQ(counter[1], "a");
  EXPECT_EQ(counter[2], "");
  EXPECT_EQ(counter.count(0), 3u);
  EXPECT_EQ(counter.count(1), 2u);
  EXPECT_EQ(counter.count(2), 1u);
  EXPECT_EQ(counter.hashes(),
            (std::vector<uint64_t>{Fnv1a64("b"), Fnv1a64("a"), Fnv1a64("")}));
  EXPECT_EQ(counter.dictionary().bytes(), "ba");
}

TEST(StringCounterTest, TopKBreaksTiesByBytes) {
  text::StringCounter counter;
  // "\xff" sorts after every ASCII byte: bytes compare unsigned.
  for (const char* s : {"\xff", "b", "a", "c", "c", "b", "\xff", ""}) {
    counter.Add(s);
  }
  auto strings = [&](size_t k) {
    std::vector<std::string> out;
    for (uint32_t id : counter.TopK(k)) out.emplace_back(counter[id]);
    return out;
  };
  EXPECT_TRUE(strings(0).empty());
  EXPECT_EQ(strings(1), (std::vector<std::string>{"b"}));
  EXPECT_EQ(strings(3), (std::vector<std::string>{"b", "c", "\xff"}));
  EXPECT_EQ(strings(99),
            (std::vector<std::string>{"b", "c", "\xff", "", "a"}));
}

// ------------------------------------------------- random columns vs oracle

/// A random cell of `kind` (0 int64, 1 double, 2 string, 3 bool), drawn
/// from a small pool so counts tie.
Value RandomCell(Rng& rng, int kind) {
  constexpr int64_t kTwo53 = int64_t{1} << 53;
  static const int64_t kInts[] = {kTwo53 - 1,
                                  kTwo53,
                                  kTwo53 + 1,
                                  -kTwo53 - 1,
                                  -kTwo53,
                                  -kTwo53 + 1,
                                  std::numeric_limits<int64_t>::min(),
                                  std::numeric_limits<int64_t>::max(),
                                  0,
                                  -1,
                                  7};
  static const double kDoubles[] = {-0.0,
                                    0.0,
                                    std::numeric_limits<double>::quiet_NaN(),
                                    std::numeric_limits<double>::infinity(),
                                    -std::numeric_limits<double>::infinity(),
                                    1.5,
                                    -2.25,
                                    9007199254740993.0,
                                    1e300};
  static const char* const kStrings[] = {
      "", "a", "b", "ab", "\x80", "\xff\xfe", "caf\xc3\xa9", "a\xc3\xa9",
      "Z", "z", "a b"};
  switch (kind) {
    case 0:
      return Value(kInts[rng.Below(std::size(kInts))]);
    case 1:
      return Value(kDoubles[rng.Below(std::size(kDoubles))]);
    case 2:
      return Value(kStrings[rng.Below(std::size(kStrings))]);
    default:
      return Value(rng.Below(2) == 0);
  }
}

/// A column of one kind (4 = mixed int64/double/string/bool cells, which
/// ProfileColumn accepts though a Table would not), with NULL runs.
std::vector<Value> RandomColumn(Rng& rng, int kind, size_t rows,
                                double null_rate) {
  std::vector<Value> column;
  while (column.size() < rows) {
    if (rng.NextDouble() < null_rate) {
      const size_t run = 1 + rng.Below(4);
      for (size_t i = 0; i < run && column.size() < rows; ++i) {
        column.emplace_back();
      }
      continue;
    }
    const int cell_kind = kind == 4 ? static_cast<int>(rng.Below(4)) : kind;
    column.push_back(RandomCell(rng, cell_kind));
  }
  return column;
}

TEST(ProfileOracleTest, RandomColumnsMatchFieldForField) {
  Rng rng(2024);
  for (int round = 0; round < 60; ++round) {
    const int kind = round % 5;
    const size_t rows = rng.Below(3) == 0 ? rng.Below(4) : 1 + rng.Below(300);
    const double null_rate = round % 7 == 0 ? 1.0 : 0.05 * (round % 4);
    const std::vector<Value> column = RandomColumn(rng, kind, rows, null_rate);
    for (size_t top_k : {0, 1, 5, 1000}) {
      SCOPED_TRACE("round " + std::to_string(round) + ", top_k " +
                   std::to_string(top_k));
      ExpectSameProfile(Profiler::ProfileColumn("c", column, top_k),
                        oracle::ProfileColumn("c", column, top_k));
    }
  }
}

TEST(ProfileOracleTest, EdgeColumnsMatchFieldForField) {
  const std::vector<std::vector<Value>> columns = {
      {},
      {Value(), Value(), Value()},
      {Value(-0.0), Value(0.0), Value(-0.0)},
      {Value(std::numeric_limits<double>::quiet_NaN()), Value(1.0),
       Value(std::numeric_limits<double>::quiet_NaN())},
      {Value(std::numeric_limits<int64_t>::min()),
       Value(std::numeric_limits<int64_t>::max())},
      {Value(""), Value(""), Value("\x80"), Value()},
      {Value(int64_t{1}), Value(1.0), Value("1"), Value(true)},
  };
  for (size_t i = 0; i < columns.size(); ++i) {
    for (size_t top_k : {0, 1, 5, 1000}) {
      SCOPED_TRACE("column " + std::to_string(i) + ", top_k " +
                   std::to_string(top_k));
      ExpectSameProfile(Profiler::ProfileColumn("e", columns[i], top_k),
                        oracle::ProfileColumn("e", columns[i], top_k));
    }
  }
}

TEST(ProfileOracleTest, RandomTextKeywordsMatchInOrder) {
  Rng rng(77);
  const char* const words[] = {"the",   "shard", "timeout", "42",  "ok",
                               "alpha", "beta",  "gamma",   "007", "Shard",
                               "caf\xc3\xa9", "delta", "and"};
  for (int round = 0; round < 40; ++round) {
    std::string text;
    const size_t n = rng.Below(200);
    for (size_t i = 0; i < n; ++i) {
      text += words[rng.Below(std::size(words))];
      text += rng.Below(5) == 0 ? "\n" : " ";
    }
    for (size_t k : {0, 1, 5, 10, 100}) {
      SCOPED_TRACE("round " + std::to_string(round) + ", k " +
                   std::to_string(k));
      EXPECT_EQ(Profiler::ExtractKeywords(text, k),
                oracle::ExtractKeywords(text, k));
    }
  }
}

// ---------------------------------------- a lake_build-shaped lake vs oracle

/// The raw files of a lake_build-shaped lake for `seed`: 120 joinable and 32
/// unionable 800-row CSV tables, 8 JSON document files and 8 logs.
std::vector<std::pair<std::string, std::string>> LakeFiles(uint64_t seed) {
  std::vector<std::pair<std::string, std::string>> files;
  ThreadPool serial(1);
  workload::JoinableLakeOptions jo;
  jo.num_tables = 120;
  jo.rows_per_table = 800;
  jo.num_planted_pairs = 20;
  jo.seed = seed * 1000 + 1;
  for (const table::Table& t : workload::MakeJoinableLake(jo, &serial).tables) {
    files.emplace_back(t.name() + ".csv", t.ToCsv());
  }
  workload::UnionableLakeOptions uo;
  uo.num_groups = 8;
  uo.tables_per_group = 4;
  uo.rows_per_table = 800;
  uo.seed = seed * 1000 + 2;
  for (const table::Table& t : workload::MakeUnionableLake(uo).tables) {
    files.emplace_back(t.name() + ".csv", t.ToCsv());
  }
  for (size_t i = 0; i < 8; ++i) {
    workload::EvolvingCorpusOptions eo;
    eo.docs_per_version = 80;
    eo.seed = seed * 1000 + 100 + i;
    workload::EvolvingCorpus corpus = workload::MakeEvolvingCorpus(eo);
    json::Array docs(corpus.documents.begin(), corpus.documents.end());
    files.emplace_back("docs" + std::to_string(i) + ".json",
                       json::Write(json::Value(std::move(docs))));
  }
  for (size_t i = 0; i < 8; ++i) {
    workload::LogCorpusOptions lo;
    lo.total_lines = 1500;
    lo.seed = seed * 1000 + 200 + i;
    files.emplace_back("log" + std::to_string(i) + ".log",
                       workload::MakeLogCorpus(lo).text);
  }
  return files;
}

TEST(ProfileOracleTest, LakeBuildShapedLakeMatchesFieldForField) {
  for (uint64_t seed : {1, 2, 3}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    std::vector<table::Table> tables;
    std::vector<ColumnProfile> oracle_profiles;
    size_t logs = 0;
    for (const auto& [name, content] : LakeFiles(seed)) {
      SCOPED_TRACE(name);
      Result<ingest::DecodedFile> decoded =
          Profiler::DecodeFile(name, "lake/" + name, content);
      ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
      if (decoded->table.num_columns() == 0) {
        ++logs;
        EXPECT_FALSE(decoded->profile.keywords.empty());
        EXPECT_EQ(decoded->profile.keywords, oracle::ExtractKeywords(content));
        continue;
      }
      const table::Table& t = decoded->table;
      ASSERT_EQ(decoded->profile.columns.size(), t.num_columns());
      for (size_t c = 0; c < t.num_columns(); ++c) {
        SCOPED_TRACE(t.schema().field(c).name);
        ColumnProfile want =
            oracle::ProfileColumn(t.schema().field(c).name, t.column(c));
        ExpectSameProfile(decoded->profile.columns[c], want);
        oracle_profiles.push_back(std::move(want));
      }
      tables.push_back(std::move(decoded->table));
    }
    EXPECT_EQ(logs, 8u);
    EXPECT_EQ(tables.size(), 160u);

    // Sketches count their columns as the oracle profiles do.
    discovery::Corpus corpus;
    ThreadPool pool(2);
    ASSERT_TRUE(corpus.AddTables(std::move(tables), &pool).ok());
    ASSERT_EQ(corpus.sketches().size(), oracle_profiles.size());
    for (size_t i = 0; i < oracle_profiles.size(); ++i) {
      const discovery::ColumnSketch& s = corpus.sketches()[i];
      const ColumnProfile& p = oracle_profiles[i];
      SCOPED_TRACE(s.table_name + "." + s.column_name);
      EXPECT_EQ(s.column_name, p.name);
      EXPECT_EQ(s.row_count, p.row_count);
      EXPECT_EQ(s.null_count, p.null_count);
      EXPECT_EQ(s.sorted_values.size(), p.distinct_count);
      ExpectSameDouble(s.uniqueness(), p.uniqueness(), "uniqueness");
      ExpectSameDouble(s.null_fraction(), p.null_fraction(), "null_fraction");
    }
  }
}

}  // namespace
}  // namespace lakekit
