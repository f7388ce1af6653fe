#ifndef LAKEKIT_TESTS_PROFILE_ORACLE_H_
#define LAKEKIT_TESTS_PROFILE_ORACLE_H_

// The map-and-sort form of the Skluma profile and of content keywords:
// every non-NULL cell's `ToString()` counted in a string-keyed hash map,
// then every distinct value sorted to keep the top k. The profiler now
// counts through one `text::StringCounter` with a partial top-k; these are
// the oracles it must match field for field.

#include <algorithm>
#include <cmath>
#include <string>
#include <string_view>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/string_util.h"
#include "ingest/profiler.h"
#include "table/value.h"
#include "text/tokenize.h"

namespace lakekit::oracle {

inline ingest::ColumnProfile ProfileColumn(
    std::string name, const std::vector<table::Value>& values,
    size_t top_k = 5) {
  using table::DataType;
  using table::Value;
  ingest::ColumnProfile p;
  p.name = std::move(name);
  p.row_count = values.size();

  auto first = std::find_if(values.begin(), values.end(),
                            [](const Value& v) { return !v.is_null(); });
  p.type = first == values.end() ? DataType::kString : first->type();

  std::unordered_map<std::string, size_t> counts;
  double sum = 0;
  double sq_sum = 0;
  size_t numeric_count = 0;
  size_t string_length_sum = 0;
  size_t string_count = 0;
  bool first_numeric = true;

  for (const Value& v : values) {
    if (v.is_null()) {
      ++p.null_count;
      continue;
    }
    ++counts[v.ToString()];
    if (v.is_numeric()) {
      double d = v.as_double();
      if (first_numeric) {
        p.min = d;
        p.max = d;
        first_numeric = false;
      } else {
        p.min = std::min(p.min, d);
        p.max = std::max(p.max, d);
      }
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

  std::vector<std::pair<std::string, size_t>> freq(counts.begin(),
                                                   counts.end());
  std::sort(freq.begin(), freq.end(), [](const auto& a, const auto& b) {
    if (a.second != b.second) return a.second > b.second;
    return a.first < b.first;
  });
  if (freq.size() > top_k) freq.resize(top_k);
  p.top_values = std::move(freq);
  return p;
}

inline std::vector<std::string> ExtractKeywords(std::string_view content,
                                                size_t k = 10) {
  static const std::unordered_set<std::string> kStopwords = {
      "the", "a",  "an",  "of", "to",  "in",  "and", "or",  "is",  "are",
      "for", "on", "at",  "by", "with", "from", "as", "it",  "this", "that",
      "was", "be", "has", "had", "not", "but",  "if", "then", "else"};
  std::unordered_map<std::string, size_t> counts;
  for (const std::string& token : text::Tokenize(content)) {
    if (token.size() < 3) continue;
    if (kStopwords.count(token) > 0) continue;
    if (LooksLikeInteger(token)) continue;
    ++counts[token];
  }
  std::vector<std::pair<std::string, size_t>> freq(counts.begin(),
                                                   counts.end());
  std::sort(freq.begin(), freq.end(), [](const auto& a, const auto& b) {
    if (a.second != b.second) return a.second > b.second;
    return a.first < b.first;
  });
  std::vector<std::string> keywords;
  for (size_t i = 0; i < freq.size() && i < k; ++i) {
    keywords.push_back(freq[i].first);
  }
  return keywords;
}

}  // namespace lakekit::oracle

#endif  // LAKEKIT_TESTS_PROFILE_ORACLE_H_
