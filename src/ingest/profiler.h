#ifndef LAKEKIT_INGEST_PROFILER_H_
#define LAKEKIT_INGEST_PROFILER_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "json/value.h"
#include "storage/polystore.h"
#include "table/table.h"

namespace lakekit::ingest {

/// Content statistics of one column (Skluma-style, survey Sec. 5.1; these
/// are also the "signatures" Aurum profiles columns with in Sec. 6.2.1).
struct ColumnProfile {
  std::string name;
  table::DataType type = table::DataType::kString;
  size_t row_count = 0;
  size_t null_count = 0;
  size_t distinct_count = 0;
  /// Numeric columns only.
  double min = 0;
  double max = 0;
  double mean = 0;
  double stddev = 0;
  /// String columns only.
  double avg_length = 0;
  /// Most frequent non-null values (value, count): count descending, ties
  /// by value bytes ascending.
  std::vector<std::pair<std::string, size_t>> top_values;
  /// True when every non-null value is distinct and nulls are absent —
  /// a candidate (primary) key.
  bool is_candidate_key = false;

  double null_fraction() const {
    return row_count == 0 ? 0.0
                          : static_cast<double>(null_count) /
                                static_cast<double>(row_count);
  }
  double uniqueness() const {
    size_t non_null = row_count - null_count;
    return non_null == 0 ? 0.0
                         : static_cast<double>(distinct_count) /
                               static_cast<double>(non_null);
  }
};

/// Content- and context-metadata of one ingested file (Skluma).
struct FileProfile {
  std::string name;
  std::string path;
  std::string extension;
  uint64_t size_bytes = 0;
  storage::DataFormat format = storage::DataFormat::kUnknown;
  size_t num_records = 0;
  std::vector<ColumnProfile> columns;
  /// Top content keywords (free-text and unknown formats).
  std::vector<std::string> keywords;
};

/// One raw file decoded once: its profile, and what its bytes decoded to.
struct DecodedFile {
  FileProfile profile;
  /// CSV: the parsed table; JSON: the table the documents flatten to. Named
  /// after the file. Empty for other formats.
  table::Table table;
  /// JSON only: the documents (array elements, the single object, or one
  /// per NDJSON line).
  std::vector<json::Value> documents;
};

/// Skluma-style extensible profiling: file context (name/path/size/extension)
/// first, then format-specific content extractors.
class Profiler {
 public:
  /// Profiles a single column of values, which hold one type as a
  /// `table::Table` column does. The profile's type is the first non-NULL
  /// cell's (kString when every cell is NULL).
  static ColumnProfile ProfileColumn(std::string name,
                                     const std::vector<table::Value>& values,
                                     size_t top_k = 5);

  /// Profiles every column of a table.
  static std::vector<ColumnProfile> ProfileTable(const table::Table& t,
                                                 size_t top_k = 5);

  /// Detects the format, decodes the bytes once and profiles what they
  /// decoded to (CSV -> column profiles, JSON -> flattened column profiles,
  /// logs and unknown text -> keywords). The one format dispatch of ingest.
  static Result<DecodedFile> DecodeFile(std::string_view name,
                                        std::string_view path,
                                        std::string_view content);

  /// `DecodeFile`'s profile alone.
  static Result<FileProfile> ProfileFile(std::string_view name,
                                         std::string_view path,
                                         std::string_view content);

  /// Top-k content keywords: most frequent word tokens, stopwords and pure
  /// numbers removed; ties by token bytes ascending.
  static std::vector<std::string> ExtractKeywords(std::string_view text,
                                                  size_t k = 10);
};

}  // namespace lakekit::ingest

#endif  // LAKEKIT_INGEST_PROFILER_H_
