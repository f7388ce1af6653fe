#ifndef LAKEKIT_DISCOVERY_D3L_H_
#define LAKEKIT_DISCOVERY_D3L_H_

#include <array>
#include <memory>
#include <vector>

#include "discovery/common.h"
#include "text/lsh.h"

namespace lakekit::discovery {

/// The five D3L relatedness features (survey Table 3): attribute-name
/// similarity, instance-value overlap, embedding similarity, value-format
/// similarity, and numeric-distribution similarity. Each is a similarity in
/// [0,1]; D3L combines them as a weighted Euclidean distance in the
/// 5-dimensional space of (1 - feature) coordinates.
struct D3lFeatures {
  double name = 0;
  double values = 0;
  double embedding = 0;
  double format = 0;
  double distribution = 0;

  std::array<double, 5> AsArray() const {
    return {name, values, embedding, format, distribution};
  }
};

/// A labeled training pair for feature-weight learning.
struct LabeledPair {
  ColumnId a;
  ColumnId b;
  bool related = false;
};

/// D3L (survey Sec. 6.2.1): multi-evidence dataset discovery. Candidate
/// columns come from two LSH indexes (value MinHash and name-q-gram
/// MinHash); each candidate is scored by the weighted Euclidean distance of
/// its five-feature vector, with weights trained by logistic regression on
/// relatedness ground truth — the paper's trained feature coefficients.
class D3lFinder {
 public:
  explicit D3lFinder(const Corpus* corpus) : corpus_(corpus) {}

  /// Builds both LSH indexes. Per-column name-q-gram MinHashing fans out
  /// over `pool` (nullptr -> ThreadPool::Default(); size-1 pool = serial
  /// opt-out); LSH insertion stays serial so index layout is deterministic.
  /// Columns the corpus gains after Build are not indexed; a query on one
  /// gets value candidates only.
  Status Build(ThreadPool* pool = nullptr);

  /// Raw feature vector of a column pair.
  D3lFeatures ComputeFeatures(ColumnId a, ColumnId b) const;

  /// Trains the feature weights from labeled pairs (logistic regression on
  /// the 5 features). Without training, all weights are 1 (unweighted).
  Status TrainWeights(const std::vector<LabeledPair>& pairs);

  /// Weighted Euclidean distance between two columns (lower = more related).
  double Distance(ColumnId a, ColumnId b) const;

  /// Top-k related columns via candidate generation + distance ranking.
  /// Scores returned are negated distances so higher = better, matching the
  /// other finders.
  std::vector<ColumnMatch> TopKRelatedColumns(ColumnId query, size_t k) const;

  /// Top-k related tables for augmenting a query table (survey Sec. 7.1
  /// exploration mode 2).
  std::vector<TableMatch> TopKRelatedTables(size_t table_idx, size_t k) const;

  const std::array<double, 5>& weights() const { return weights_; }
  bool built() const { return built_; }

 private:
  std::vector<ColumnId> Candidates(const ColumnSketch& query) const;

  const Corpus* corpus_;
  std::array<double, 5> weights_{1, 1, 1, 1, 1};
  double bias_ = 0;
  std::unique_ptr<text::LshIndex> value_lsh_;
  std::unique_ptr<text::LshIndex> name_lsh_;
  std::vector<text::MinHashSignature> name_signatures_;  // per sketch
  bool built_ = false;
};

}  // namespace lakekit::discovery

#endif  // LAKEKIT_DISCOVERY_D3L_H_
