#include "organize/dsknn.h"

#include <algorithm>
#include <cmath>
#include <map>

#include "ingest/profiler.h"
#include "text/levenshtein.h"

namespace lakekit::organize {

namespace {

/// Neighbors consulted per classification.
constexpr size_t kNeighbors = 3;
/// Below this similarity to every neighbor, the dataset founds a new
/// category.
constexpr double kNewCategoryThreshold = 0.55;
/// Blend of schema-name Levenshtein similarity vs numeric feature
/// similarity.
constexpr double kNameWeight = 0.5;

}  // namespace

DatasetFeatures DsKnnOrganizer::ExtractFeatures(const table::Table& t) {
  DatasetFeatures f;
  f.dataset_name = t.name();
  f.num_columns = static_cast<double>(t.num_columns());
  f.num_rows = static_cast<double>(t.num_rows());
  std::vector<ingest::ColumnProfile> profiles =
      ingest::Profiler::ProfileTable(t);
  size_t numeric = 0;
  double uniq_sum = 0;
  double null_sum = 0;
  double mean_sum = 0;
  double len_sum = 0;
  size_t mean_count = 0;
  size_t len_count = 0;
  for (const ingest::ColumnProfile& p : profiles) {
    if (p.type == table::DataType::kInt64 ||
        p.type == table::DataType::kDouble) {
      ++numeric;
      mean_sum += p.mean;
      ++mean_count;
    }
    if (p.type == table::DataType::kString) {
      len_sum += p.avg_length;
      ++len_count;
    }
    uniq_sum += p.uniqueness();
    null_sum += p.null_fraction();
  }
  const double cols = std::max(1.0, f.num_columns);
  f.numeric_column_fraction = static_cast<double>(numeric) / cols;
  f.avg_uniqueness = uniq_sum / cols;
  f.avg_null_fraction = null_sum / cols;
  f.avg_numeric_mean = mean_count == 0 ? 0 : mean_sum / static_cast<double>(mean_count);
  f.avg_string_length = len_count == 0 ? 0 : len_sum / static_cast<double>(len_count);

  std::vector<std::string> names = t.schema().FieldNames();
  std::sort(names.begin(), names.end());
  for (const std::string& n : names) {
    if (!f.schema_signature.empty()) f.schema_signature += "|";
    f.schema_signature += n;
  }
  return f;
}

double DsKnnOrganizer::Similarity(const DatasetFeatures& a,
                                  const DatasetFeatures& b) const {
  // Numeric features: each axis contributes a ratio-based similarity.
  auto ratio_sim = [](double x, double y) {
    double m = std::max(std::abs(x), std::abs(y));
    if (m == 0) return 1.0;
    return 1.0 - std::abs(x - y) / m;
  };
  double feature_sim =
      (ratio_sim(a.num_columns, b.num_columns) +
       ratio_sim(std::log1p(a.num_rows), std::log1p(b.num_rows)) +
       ratio_sim(a.numeric_column_fraction, b.numeric_column_fraction) +
       ratio_sim(a.avg_uniqueness, b.avg_uniqueness) +
       ratio_sim(a.avg_null_fraction, b.avg_null_fraction) +
       ratio_sim(a.avg_string_length, b.avg_string_length)) /
      6.0;
  double name_sim =
      text::LevenshteinSimilarity(a.schema_signature, b.schema_signature);
  return kNameWeight * name_sim + (1.0 - kNameWeight) * feature_sim;
}

size_t DsKnnOrganizer::AddDataset(const table::Table& t) {
  DatasetFeatures features = ExtractFeatures(t);

  // k nearest neighbors among classified datasets.
  std::vector<std::pair<double, size_t>> scored;  // (similarity, index)
  for (size_t i = 0; i < classified_.size(); ++i) {
    scored.emplace_back(Similarity(features, classified_[i]), i);
  }
  std::sort(scored.begin(), scored.end(),
            [](const auto& a, const auto& b) { return a.first > b.first; });
  if (scored.size() > kNeighbors) scored.resize(kNeighbors);

  size_t category;
  if (scored.empty() || scored[0].first < kNewCategoryThreshold) {
    category = categories_.size();
    categories_.emplace_back();
  } else {
    // Majority vote among neighbors above the threshold.
    std::map<size_t, size_t> votes;
    for (const auto& [sim, idx] : scored) {
      if (sim >= kNewCategoryThreshold) {
        ++votes[category_of_[idx]];
      }
    }
    category = scored[0].second;  // placeholder
    size_t best_votes = 0;
    size_t best_category = category_of_[scored[0].second];
    for (const auto& [cat, count] : votes) {
      if (count > best_votes) {
        best_votes = count;
        best_category = cat;
      }
    }
    category = best_category;
  }
  categories_[category].push_back(features.dataset_name);
  classified_.push_back(std::move(features));
  category_of_.push_back(category);
  return category;
}

size_t DsKnnOrganizer::CategoryOf(const std::string& dataset_name) const {
  for (size_t i = 0; i < classified_.size(); ++i) {
    if (classified_[i].dataset_name == dataset_name) return category_of_[i];
  }
  return static_cast<size_t>(-1);
}

}  // namespace lakekit::organize
