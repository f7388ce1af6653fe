#ifndef LAKEKIT_ORGANIZE_DSKNN_H_
#define LAKEKIT_ORGANIZE_DSKNN_H_

#include <string>
#include <vector>

#include "table/table.h"

namespace lakekit::organize {

/// Numeric features of a dataset used for proximity mining (DS-Prox /
/// DS-kNN, survey Sec. 6.1.2): metadata-based features (attribute counts,
/// type mix) plus data-based features (uniqueness, null fractions,
/// numeric means).
struct DatasetFeatures {
  std::string dataset_name;
  double num_columns = 0;
  double num_rows = 0;
  double numeric_column_fraction = 0;
  double avg_uniqueness = 0;
  double avg_null_fraction = 0;
  double avg_numeric_mean = 0;
  double avg_string_length = 0;
  /// Concatenated, sorted attribute names for the Levenshtein schema signal.
  std::string schema_signature;
};

/// DS-kNN: incremental dataset categorization. Each arriving dataset is
/// compared (feature distance + Levenshtein over schema signatures) to the
/// already-classified datasets; the majority category among its k nearest
/// neighbors wins, or a new category is founded when nothing is close —
/// exactly the incremental organization loop the survey describes.
class DsKnnOrganizer {
 public:
  /// Feature extraction (data preparation step).
  static DatasetFeatures ExtractFeatures(const table::Table& t);

  /// Similarity in [0,1] of two feature vectors.
  double Similarity(const DatasetFeatures& a, const DatasetFeatures& b) const;

  /// Classifies a dataset; returns its category id (possibly new).
  size_t AddDataset(const table::Table& t);

  size_t num_categories() const { return categories_.size(); }

  /// Dataset names per category.
  const std::vector<std::vector<std::string>>& categories() const {
    return categories_;
  }

  /// Category of a previously added dataset; SIZE_MAX when unknown.
  size_t CategoryOf(const std::string& dataset_name) const;

 private:
  std::vector<DatasetFeatures> classified_;
  std::vector<size_t> category_of_;  // parallel to classified_
  std::vector<std::vector<std::string>> categories_;
};

}  // namespace lakekit::organize

#endif  // LAKEKIT_ORGANIZE_DSKNN_H_
