#include "ingest/profiler.h"

#include <algorithm>
#include <cmath>
#include <unordered_set>

#include "common/string_util.h"
#include "ingest/format_detect.h"
#include "json/parser.h"
#include "text/dictionary.h"
#include "text/tokenize.h"

namespace lakekit::ingest {

using storage::DataFormat;
using table::DataType;
using table::Table;
using table::Value;

ColumnProfile Profiler::ProfileColumn(std::string name,
                                      const std::vector<Value>& values,
                                      size_t top_k) {
  ColumnProfile p;
  p.name = std::move(name);
  p.row_count = values.size();

  auto first = std::find_if(values.begin(), values.end(),
                            [](const Value& v) { return !v.is_null(); });
  p.type = first == values.end() ? DataType::kString : first->type();

  text::StringCounter counts;
  std::string rendered;
  double sum = 0;
  double sq_sum = 0;
  size_t numeric_count = 0;
  size_t string_length_sum = 0;
  size_t string_count = 0;

  for (const Value& v : values) {
    if (v.is_null()) {
      ++p.null_count;
      continue;
    }
    counts.Add(v.Render(&rendered));
    if (v.is_numeric()) {
      const double d = v.as_double();
      p.min = numeric_count == 0 ? d : std::min(p.min, d);
      p.max = numeric_count == 0 ? d : std::max(p.max, d);
      sum += d;
      sq_sum += d * d;
      ++numeric_count;
    }
    if (v.is_string()) {
      string_length_sum += v.as_string().size();
      ++string_count;
    }
  }
  p.distinct_count = counts.size();
  if (numeric_count > 0) {
    p.mean = sum / static_cast<double>(numeric_count);
    double variance =
        sq_sum / static_cast<double>(numeric_count) - p.mean * p.mean;
    p.stddev = variance > 0 ? std::sqrt(variance) : 0.0;
  }
  if (string_count > 0) {
    p.avg_length = static_cast<double>(string_length_sum) /
                   static_cast<double>(string_count);
  }
  const size_t non_null = p.row_count - p.null_count;
  p.is_candidate_key =
      non_null > 0 && p.null_count == 0 && p.distinct_count == non_null;

  for (uint32_t id : counts.TopK(top_k)) {
    p.top_values.emplace_back(std::string(counts[id]), counts.count(id));
  }
  return p;
}

std::vector<ColumnProfile> Profiler::ProfileTable(const Table& t,
                                                  size_t top_k) {
  std::vector<ColumnProfile> out;
  out.reserve(t.num_columns());
  for (size_t c = 0; c < t.num_columns(); ++c) {
    out.push_back(
        ProfileColumn(t.schema().field(c).name, t.column(c), top_k));
  }
  return out;
}

std::vector<std::string> Profiler::ExtractKeywords(std::string_view content,
                                                   size_t k) {
  static const std::unordered_set<std::string> kStopwords = {
      "the", "a",  "an",  "of", "to",  "in",  "and", "or",  "is",  "are",
      "for", "on", "at",  "by", "with", "from", "as", "it",  "this", "that",
      "was", "be", "has", "had", "not", "but",  "if", "then", "else"};
  text::StringCounter counts;
  for (const std::string& token : text::Tokenize(content)) {
    if (token.size() < 3) continue;
    if (kStopwords.count(token) > 0) continue;
    if (LooksLikeInteger(token)) continue;
    counts.Add(token);
  }
  std::vector<std::string> keywords;
  for (uint32_t id : counts.TopK(k)) keywords.emplace_back(counts[id]);
  return keywords;
}

Result<DecodedFile> Profiler::DecodeFile(std::string_view name,
                                         std::string_view path,
                                         std::string_view content) {
  DecodedFile decoded;
  FileProfile& profile = decoded.profile;
  profile.name = std::string(name);
  profile.path = std::string(path);
  profile.size_bytes = content.size();
  size_t dot = name.rfind('.');
  profile.extension =
      dot == std::string_view::npos ? "" : std::string(name.substr(dot + 1));
  profile.format = DetectFormat(name, content);

  switch (profile.format) {
    case DataFormat::kCsv: {
      LAKEKIT_ASSIGN_OR_RETURN(decoded.table,
                               Table::FromCsv(profile.name, content));
      profile.num_records = decoded.table.num_rows();
      profile.columns = ProfileTable(decoded.table);
      break;
    }
    case DataFormat::kJson: {
      // Whole-file array, single object, or NDJSON: parsed once, flattened
      // where it lies, then its elements move into the documents.
      json::Value docs;
      Result<json::Value> whole = json::Parse(content);
      if (whole.ok() && whole->is_array()) {
        docs = std::move(whole).value();
      } else if (whole.ok() && whole->is_object()) {
        json::Array one;
        one.push_back(std::move(whole).value());
        docs = json::Value(std::move(one));
      } else {
        LAKEKIT_ASSIGN_OR_RETURN(json::Array lines, json::ParseLines(content));
        docs = json::Value(std::move(lines));
      }
      LAKEKIT_ASSIGN_OR_RETURN(decoded.table,
                               Table::FromJson(profile.name, docs));
      profile.num_records = decoded.table.num_rows();
      profile.columns = ProfileTable(decoded.table);
      decoded.documents = std::move(docs.as_array());
      break;
    }
    case DataFormat::kLog:
    case DataFormat::kUnknown: {
      size_t lines = 0;
      for (char c : content) {
        if (c == '\n') ++lines;
      }
      profile.num_records = lines;
      profile.keywords = ExtractKeywords(content);
      break;
    }
    case DataFormat::kBinary:
    case DataFormat::kGraph:
      // Context metadata only.
      break;
  }
  return decoded;
}

Result<FileProfile> Profiler::ProfileFile(std::string_view name,
                                          std::string_view path,
                                          std::string_view content) {
  LAKEKIT_ASSIGN_OR_RETURN(DecodedFile decoded,
                           DecodeFile(name, path, content));
  return std::move(decoded.profile);
}

}  // namespace lakekit::ingest
