#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/random.h"
#include "csv/csv.h"

// Seeded mutation fuzz of csv::Tokenize against an independent oracle: a
// character-at-a-time tokenizer that builds every field as a std::string,
// sharing no code with the zero-copy one under test, plus the header and
// record-width checks. Every input must give the oracle's header and
// records, or its exact status; every field must be a view into the input
// or into the grid's own buffer, also after the grid is moved; and
// csv::Parse must copy out the same records. Every failure message carries
// the schedule number and the input, so a hit replays deterministically.

namespace lakekit::csv {
namespace {

/// Number of random schedules. CI can crank this up for soak runs without
/// a rebuild.
int NumSchedules() {
  constexpr int kDefault = 48;
  const char* env = std::getenv("LAKEKIT_FUZZ_SCHEDULES");
  if (env == nullptr) return kDefault;
  int n = std::atoi(env);
  return n > 0 ? n : kDefault;
}

// ------------------------------------------------------------------ oracle

/// Splits raw CSV text into records of fields, honoring quoting.
Result<std::vector<std::vector<std::string>>> Tokenize(std::string_view text,
                                                       char delim) {
  std::vector<std::vector<std::string>> records;
  std::vector<std::string> current;
  std::string field;
  bool in_quotes = false;
  bool field_started = false;
  size_t i = 0;

  auto end_field = [&] {
    current.push_back(std::move(field));
    field.clear();
    field_started = false;
  };
  auto end_record = [&] {
    end_field();
    records.push_back(std::move(current));
    current.clear();
  };

  while (i < text.size()) {
    char c = text[i];
    if (in_quotes) {
      if (c == '"') {
        if (i + 1 < text.size() && text[i + 1] == '"') {
          field.push_back('"');
          i += 2;
        } else {
          in_quotes = false;
          ++i;
        }
      } else {
        field.push_back(c);
        ++i;
      }
      continue;
    }
    if (c == '"' && field.empty() && !field_started) {
      in_quotes = true;
      field_started = true;
      ++i;
    } else if (c == delim) {
      end_field();
      ++i;
    } else if (c == '\r') {
      ++i;  // Tolerate CRLF.
    } else if (c == '\n') {
      end_record();
      ++i;
    } else {
      field.push_back(c);
      field_started = true;
      ++i;
    }
  }
  if (in_quotes) {
    return Status::Corruption("CSV: unterminated quoted field");
  }
  // Flush a final record without trailing newline.
  if (field_started || !field.empty() || !current.empty()) {
    end_record();
  }
  return records;
}

/// The oracle's Parse: header and ragged-record checks over Tokenize.
Result<CsvData> OracleParse(std::string_view text,
                            const ParseOptions& options) {
  LAKEKIT_ASSIGN_OR_RETURN(auto records, Tokenize(text, options.delimiter));
  CsvData out;
  if (records.empty()) {
    if (options.has_header) {
      return Status::Corruption("CSV: empty input but header expected");
    }
    return out;
  }
  size_t start = 0;
  if (options.has_header) {
    out.header = std::move(records[0]);
    start = 1;
  } else {
    out.header.reserve(records[0].size());
    for (size_t c = 0; c < records[0].size(); ++c) {
      out.header.push_back("col" + std::to_string(c));
    }
  }
  for (size_t r = start; r < records.size(); ++r) {
    if (records[r].size() != out.header.size()) {
      return Status::Corruption(
          "CSV: record " + std::to_string(r) + " has " +
          std::to_string(records[r].size()) + " fields, expected " +
          std::to_string(out.header.size()));
    }
    out.records.push_back(std::move(records[r]));
  }
  return out;
}

// -------------------------------------------------------------- generators

const char kDelimiters[] = {',', '\t', ';'};

/// A field drawn from the shapes the grammar treats differently: plain,
/// empty, quoted (with delimiters, newlines, '\r' and doubled quotes
/// inside), text after a closing quote, a bare or leading or trailing
/// '\r', a quote after the first byte, and spaces.
std::string RandomField(Rng& rng, char delim) {
  const std::string d(1, delim);
  switch (rng.Below(12)) {
    case 0:
      return "";
    case 1:
      return std::to_string(rng.Between(-1000, 1000));
    case 2:
      return "\"" + rng.NextWord(1 + rng.Below(4)) + d + "x\"";
    case 3:
      return "\"a\"\"b\"";
    case 4:
      return "\"\"";
    case 5:
      return "\"a\"b";
    case 6:
      return "x\ry";
    case 7:
      return "\r\"q\"\r";
    case 8:
      return "p\"q";
    case 9:
      return "\"line\nbreak\r\n\"";
    case 10:
      return " " + rng.NextWord(2) + " ";
    default:
      return rng.NextWord(1 + rng.Below(5));
  }
}

/// A document of 0-5 records, mostly of one width: records end in "\n",
/// "\r\n" or "\r\r\n", some lines are empty, and the last newline may be
/// missing.
std::string RandomDoc(Rng& rng, char delim) {
  static const char* kEnds[] = {"\n", "\r\n", "\r\r\n"};
  const size_t width = 1 + rng.Below(3);
  const size_t records = rng.Below(6);
  std::string doc;
  for (size_t r = 0; r < records; ++r) {
    if (rng.Below(8) == 0) doc += kEnds[rng.Below(3)];  // an empty line
    const size_t fields = rng.Below(6) == 0 ? 1 + rng.Below(4) : width;
    for (size_t f = 0; f < fields; ++f) {
      if (f > 0) doc += delim;
      doc += RandomField(rng, delim);
    }
    if (r + 1 < records || rng.Below(3) != 0) doc += kEnds[rng.Below(3)];
  }
  return doc;
}

/// Up to 24 bytes over the characters the grammar reacts to.
std::string RandomBytes(Rng& rng) {
  static const char kAlphabet[] = {'a', 'b', '"', '"', ',', ';', '\t',
                                   '\n', '\r', ' ', '1'};
  std::string doc(rng.Below(25), ' ');
  for (char& c : doc) c = kAlphabet[rng.Below(sizeof(kAlphabet))];
  return doc;
}

/// Applies 1-3 mutations: inserted quotes, delimiters, newlines and '\r's,
/// deleted bytes, and truncation (which leaves quotes unterminated).
std::string Mutate(Rng& rng, std::string doc) {
  static const char kInserts[] = {'"', ',', ';', '\t', '\n', '\r', 'z'};
  const size_t mutations = 1 + rng.Below(3);
  for (size_t i = 0; i < mutations; ++i) {
    const size_t pos = rng.Below(doc.size() + 1);
    switch (rng.Below(3)) {
      case 0:
        doc.insert(doc.begin() + pos, kInserts[rng.Below(sizeof(kInserts))]);
        break;
      case 1:
        if (pos < doc.size()) doc.erase(pos, 1);
        break;
      default:
        doc.resize(pos);
        break;
    }
  }
  return doc;
}

// ------------------------------------------------------------------ checks

std::string Escaped(std::string_view s) {
  std::string out;
  for (char c : s) {
    if (c == '\n') {
      out += "\\n";
    } else if (c == '\r') {
      out += "\\r";
    } else if (c == '\t') {
      out += "\\t";
    } else {
      out.push_back(c);
    }
  }
  return out;
}

/// Whether `view` lies inside `range` (an empty view may sit at its end).
bool Within(std::string_view view, std::string_view range) {
  const auto v = reinterpret_cast<uintptr_t>(view.data());
  const auto r = reinterpret_cast<uintptr_t>(range.data());
  return v >= r && v + view.size() <= r + range.size();
}

::testing::AssertionResult SameAsOracle(const FieldGrid& grid,
                                        std::string_view text,
                                        const CsvData& want) {
  if (grid.header() != want.header) {
    return ::testing::AssertionFailure() << "header differs";
  }
  if (grid.num_records() != want.records.size()) {
    return ::testing::AssertionFailure()
           << grid.num_records() << " records, oracle has "
           << want.records.size();
  }
  for (size_t r = 0; r < want.records.size(); ++r) {
    for (size_t c = 0; c < grid.num_columns(); ++c) {
      const std::string_view field = grid.field(r, c);
      if (field != want.records[r][c]) {
        return ::testing::AssertionFailure()
               << "field (" << r << ", " << c << ") is \"" << Escaped(field)
               << "\", oracle \"" << Escaped(want.records[r][c]) << "\"";
      }
      if (!Within(field, text) && !Within(field, grid.unescaped())) {
        return ::testing::AssertionFailure()
               << "field (" << r << ", " << c
               << ") views neither the input nor the grid's buffer";
      }
    }
  }
  return ::testing::AssertionSuccess();
}

void Check(const std::string& text, const ParseOptions& options) {
  SCOPED_TRACE("input \"" + Escaped(text) + "\", delimiter '" +
               Escaped(std::string(1, options.delimiter)) + "'" +
               (options.has_header ? "" : ", no header"));
  const Result<CsvData> want = OracleParse(text, options);
  // Qualified: the oracle's Tokenize hides the product's here.
  Result<FieldGrid> grid = csv::Tokenize(text, options);
  const Result<CsvData> parsed = Parse(text, options);
  if (!want.ok()) {
    ASSERT_FALSE(grid.ok());
    EXPECT_EQ(grid.status().code(), want.status().code());
    EXPECT_EQ(grid.status().message(), want.status().message());
    ASSERT_FALSE(parsed.ok());
    EXPECT_EQ(parsed.status().message(), want.status().message());
    return;
  }
  ASSERT_TRUE(grid.ok()) << grid.status().ToString();
  EXPECT_TRUE(SameAsOracle(*grid, text, *want));
  // Views into the grid's buffer survive a move of the grid.
  const FieldGrid moved = std::move(*grid);
  EXPECT_TRUE(SameAsOracle(moved, text, *want));
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->header, want->header);
  EXPECT_EQ(parsed->records, want->records);
}

/// Checks `text` under every delimiter, with and without a header, and
/// under delimiters the grammar also gives a meaning to.
void CheckAllOptions(const std::string& text) {
  for (char delim : {',', '\t', ';', '"', '\r', '\n'}) {
    for (bool has_header : {true, false}) {
      Check(text, ParseOptions{delim, has_header});
    }
  }
}

TEST(CsvFuzzTest, EdgeCorpusMatchesTheOracle) {
  const std::vector<std::string> corpus = {
      "",
      "\r",
      "\n",
      "\r\n\r\n",
      "a",
      "a\n",
      "a\n\"\"",
      "a\n\"",
      "a\n\"\"\"",
      "a,b\n\"x\"\"y\",\"a\"b\n",
      "a,b\n1\n\"open\n",
      "a,b\n1,2\n\n3,4\n",
      "a,b\r\n1,2\r\n",
      "a\nx\ry\n",
      "a\n\r\"q\"\r\n",
      "a\n\"q\"\rx\n",
      "a\n\"q\" \n",
      "a\np\"q\n",
      "a;b\tc\n1;2\t3\n",
      "a,\n,\n",
      "\"h\"\"\",b\n1,2",
  };
  for (const std::string& text : corpus) CheckAllOptions(text);
}

TEST(CsvFuzzTest, MutatedDocumentsMatchTheOracle) {
  const int schedules = NumSchedules();
  Rng rng(20261017);
  for (int i = 0; i < schedules; ++i) {
    SCOPED_TRACE("schedule " + std::to_string(i));
    for (char delim : kDelimiters) {
      const std::string doc = RandomDoc(rng, delim);
      const bool has_header = rng.Below(2) == 0;
      Check(doc, ParseOptions{delim, has_header});
      Check(Mutate(rng, doc), ParseOptions{delim, has_header});
    }
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST(CsvFuzzTest, RandomBytesMatchTheOracle) {
  const int schedules = NumSchedules();
  Rng rng(20261018);
  for (int i = 0; i < schedules; ++i) {
    SCOPED_TRACE("schedule " + std::to_string(i));
    for (int k = 0; k < 8; ++k) CheckAllOptions(RandomBytes(rng));
    if (::testing::Test::HasFatalFailure()) return;
  }
}

}  // namespace
}  // namespace lakekit::csv
