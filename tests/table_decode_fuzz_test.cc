#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <string_view>
#include <vector>

#include "common/random.h"
#include "common/string_util.h"
#include "csv/csv.h"
#include "json/parser.h"
#include "table/table.h"

// Seeded mutation fuzz of the two table decoders, Table::FromCsv and
// Table::FromJson. Every input either fails with a Status or decodes into a
// table whose cells are NULL or of their field's type; a CSV field that is
// non-empty after trimming never decodes to NULL; and a decoded CSV table
// re-decodes from its own ToCsv() against its own schema. Every failure
// message carries the schedule number and the input, so a hit replays
// deterministically.

namespace lakekit::table {
namespace {

/// Number of random documents per decoder. CI can crank this up for soak
/// runs without a rebuild.
int NumSchedules() {
  constexpr int kDefault = 48;
  const char* env = std::getenv("LAKEKIT_FUZZ_SCHEDULES");
  if (env == nullptr) return kDefault;
  int n = std::atoi(env);
  return n > 0 ? n : kDefault;
}

/// Fields at the edges of the numeric parsers: past int64, negative zero,
/// the IEEE specials, past double, 2^53 + 1, a leading zero, a leading
/// space.
const std::vector<std::string>& EdgeFields() {
  static const std::vector<std::string> kFields = {
      "99999999999999999999", "-0",  "nan", "inf",  "1e999",
      "9007199254740993",     "007", " x",  "true", "1.5",
      "-3",                   "",    "a b", "false"};
  return kFields;
}

/// Fixed seed corpus: always decoded, whatever the schedule count.
const std::vector<std::string>& CsvCorpus() {
  static const std::vector<std::string> kDocs = {
      "id\n99999999999999999999\n1\n",
      "id,name,score\n1,ada,2.5\n2,bob,\n3,\"c,d\",1e3\n",
      "a,b,c\ntrue,-0,nan\nfalse,inf,007\n, x,9007199254740993\n",
      "x,y\n1e999,-0\n2, 7 \n",
      "q\n\"\"\"quoted\"\"\"\n\" x\"\n",
  };
  return kDocs;
}

const std::vector<std::string>& JsonCorpus() {
  static const std::vector<std::string> kDocs = {
      R"([{"n": 99999999999999999999}, {"n": 1}])",
      R"([{"a": 1, "b": "x"}, {"a": 2.5, "c": [1, 2]}, {"b": null}])",
      R"([{"v": -0}, {"v": 1e999}, {"v": true}, {"v": " x"}])",
      R"([{"k": 9007199254740993}, {"k": "007"}, {"k": {"nested": false}}])",
  };
  return kDocs;
}

/// A random CSV document: 1-4 columns, 0-6 records, fields drawn from the
/// edge pool and from random numbers and words.
std::string RandomCsv(Rng& rng) {
  const size_t cols = 1 + rng.Below(4);
  const size_t rows = rng.Below(7);
  std::string doc;
  for (size_t c = 0; c < cols; ++c) {
    if (c > 0) doc += ',';
    doc += "c" + std::to_string(c);
  }
  doc += '\n';
  for (size_t r = 0; r < rows; ++r) {
    for (size_t c = 0; c < cols; ++c) {
      if (c > 0) doc += ',';
      switch (rng.Below(4)) {
        case 0:
          doc += std::to_string(rng.Between(-1000, 1000));
          break;
        case 1:
          doc += std::to_string(rng.NextDouble() * 100.0);
          break;
        case 2:
          doc += rng.NextWord(3);
          break;
        default:
          doc += EdgeFields()[rng.Below(EdgeFields().size())];
          break;
      }
    }
    doc += '\n';
  }
  return doc;
}

/// A random JSON array of flat objects over a few shared keys.
std::string RandomJson(Rng& rng) {
  static const char* kTokens[] = {
      "99999999999999999999", "-0",   "1e999", "9007199254740993", "007",
      "\" x\"",               "\"nan\"", "1.5", "-3",  "true", "false",
      "null",                 "[1, \"a\"]", "{\"z\": 1}", "\"\""};
  const size_t n_tokens = sizeof(kTokens) / sizeof(kTokens[0]);
  std::string doc = "[";
  const size_t rows = rng.Below(6);
  for (size_t r = 0; r < rows; ++r) {
    if (r > 0) doc += ", ";
    doc += "{";
    const size_t keys = rng.Below(4);
    for (size_t k = 0; k < keys; ++k) {
      if (k > 0) doc += ", ";
      doc += "\"k" + std::to_string(rng.Below(3)) + "\": ";
      doc += kTokens[rng.Below(n_tokens)];
    }
    doc += "}";
  }
  doc += "]";
  return doc;
}

/// Applies 1-4 random mutations: byte flips, truncation, inserted quotes,
/// delimiters and newlines, and inserted edge fields.
std::string Mutate(Rng& rng, std::string doc) {
  static const char kInserts[] = {'"', ',', '\n', '\r', ' ', '{', '}',
                                  '[', ']', ':'};
  const size_t mutations = 1 + rng.Below(4);
  for (size_t i = 0; i < mutations; ++i) {
    const size_t pos = doc.empty() ? 0 : rng.Below(doc.size() + 1);
    switch (rng.Below(4)) {
      case 0:
        if (pos < doc.size()) {
          doc[pos] = static_cast<char>(doc[pos] ^ (1 + rng.Below(255)));
        }
        break;
      case 1:
        doc.resize(pos);
        break;
      case 2:
        doc.insert(doc.begin() + pos, kInserts[rng.Below(sizeof(kInserts))]);
        break;
      default:
        doc.insert(pos, EdgeFields()[rng.Below(EdgeFields().size())]);
        break;
    }
  }
  return doc;
}

::testing::AssertionResult CellsFitTheirFields(const Table& t) {
  for (size_t c = 0; c < t.num_columns(); ++c) {
    const DataType type = t.schema().field(c).type;
    if (t.column(c).size() != t.num_rows()) {
      return ::testing::AssertionFailure() << "column " << c << " is ragged";
    }
    for (size_t r = 0; r < t.num_rows(); ++r) {
      const Value& v = t.at(r, c);
      if (!v.is_null() && v.type() != type) {
        return ::testing::AssertionFailure()
               << "cell (" << r << ", " << c << ") is "
               << DataTypeName(v.type()) << " in a " << DataTypeName(type)
               << " field";
      }
    }
  }
  return ::testing::AssertionSuccess();
}

/// Same schema, same rows, and cells of the same type that render the
/// same (so NaN matches NaN and -0.0 does not match 0.0).
::testing::AssertionResult SameCells(const Table& a, const Table& b) {
  if (!(a.schema() == b.schema()) || a.num_rows() != b.num_rows()) {
    return ::testing::AssertionFailure()
           << "[" << a.schema().ToString() << "] x " << a.num_rows()
           << " vs [" << b.schema().ToString() << "] x " << b.num_rows();
  }
  for (size_t r = 0; r < a.num_rows(); ++r) {
    for (size_t c = 0; c < a.num_columns(); ++c) {
      const Value& x = a.at(r, c);
      const Value& y = b.at(r, c);
      if (x.type() != y.type() || x.ToString() != y.ToString()) {
        return ::testing::AssertionFailure()
               << "cell (" << r << ", " << c << "): '" << x.ToString()
               << "' vs '" << y.ToString() << "'";
      }
    }
  }
  return ::testing::AssertionSuccess();
}

void CheckCsv(const std::string& doc) {
  SCOPED_TRACE("csv input: \"" + doc + "\"");
  Result<Table> t = Table::FromCsv("fuzz", doc);
  if (!t.ok()) return;
  ASSERT_TRUE(CellsFitTheirFields(*t));
  // The decoder tokenizes with csv::Parse, so its records line up with the
  // table's rows.
  Result<csv::CsvData> data = csv::Parse(doc);
  ASSERT_TRUE(data.ok());
  ASSERT_EQ(data->records.size(), t->num_rows());
  for (size_t r = 0; r < t->num_rows(); ++r) {
    for (size_t c = 0; c < t->num_columns(); ++c) {
      const std::string& field = data->records[r][c];
      EXPECT_EQ(Trim(field).empty(), t->at(r, c).is_null())
          << "field '" << field << "' at (" << r << ", " << c << ") of a "
          << DataTypeName(t->schema().field(c).type) << " column";
    }
  }
  Result<Table> again = Table::FromCsv("fuzz", t->ToCsv(), t->schema());
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  EXPECT_TRUE(SameCells(*t, *again));
}

void CheckJson(const std::string& doc) {
  SCOPED_TRACE("json input: " + doc);
  Result<json::Value> parsed = json::Parse(doc);
  if (!parsed.ok()) return;
  Result<Table> t = Table::FromJson("fuzz", *parsed);
  if (!t.ok()) return;
  ASSERT_TRUE(CellsFitTheirFields(*t));
  // A present, non-null JSON value never decodes to NULL.
  const json::Array& rows = parsed->as_array();
  ASSERT_EQ(rows.size(), t->num_rows());
  for (size_t r = 0; r < rows.size(); ++r) {
    for (size_t c = 0; c < t->num_columns(); ++c) {
      const json::Value* v = rows[r].Get(t->schema().field(c).name);
      if (v != nullptr && !v->is_null()) {
        EXPECT_FALSE(t->at(r, c).is_null()) << "(" << r << ", " << c << ")";
      }
    }
  }
}

TEST(TableDecodeFuzzTest, SeedCorpusDecodesCleanly) {
  for (const std::string& doc : CsvCorpus()) CheckCsv(doc);
  for (const std::string& doc : JsonCorpus()) CheckJson(doc);
}

TEST(TableDecodeFuzzTest, MutatedCsvKeepsTheTableInvariant) {
  const int schedules = NumSchedules();
  Rng rng(20261017);
  for (int i = 0; i < schedules; ++i) {
    SCOPED_TRACE("schedule " + std::to_string(i));
    const std::string base =
        rng.Below(3) == 0 ? CsvCorpus()[rng.Below(CsvCorpus().size())]
                          : RandomCsv(rng);
    CheckCsv(base);
    CheckCsv(Mutate(rng, base));
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST(TableDecodeFuzzTest, MutatedJsonKeepsTheTableInvariant) {
  const int schedules = NumSchedules();
  Rng rng(20261018);
  for (int i = 0; i < schedules; ++i) {
    SCOPED_TRACE("schedule " + std::to_string(i));
    const std::string base =
        rng.Below(3) == 0 ? JsonCorpus()[rng.Below(JsonCorpus().size())]
                          : RandomJson(rng);
    CheckJson(base);
    CheckJson(Mutate(rng, base));
    if (::testing::Test::HasFatalFailure()) return;
  }
}

}  // namespace
}  // namespace lakekit::table
