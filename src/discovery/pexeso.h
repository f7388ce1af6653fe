#ifndef LAKEKIT_DISCOVERY_PEXESO_H_
#define LAKEKIT_DISCOVERY_PEXESO_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "discovery/common.h"
#include "text/embedding.h"

namespace lakekit::discovery {

/// PEXESO (survey Sec. 6.2.3, Table 3): joinable-table discovery for
/// *semantically* joinable textual columns — values match by embedding
/// proximity rather than string equality, so "NL" joins "Netherlands" when
/// the embedding model places them together. Vectors are bucketed by the
/// sign pattern of random hyperplane projections (our grid substitute);
/// queries probe the home bucket plus all Hamming-distance-1 buckets and
/// verify candidates with the exact cosine threshold.
class PexesoFinder {
 public:
  explicit PexesoFinder(const Corpus* corpus) : corpus_(corpus) {}

  /// Embeds and indexes the textual values of every textual column.
  void Build();

  /// Top-k semantically joinable columns for a textual query column, scored
  /// by matched-value fraction. Columns matching under half of the query's
  /// values are dropped.
  std::vector<ColumnMatch> TopKSemanticJoinableColumns(ColumnId query,
                                                       size_t k) const;

  /// Top-k semantically joinable tables.
  std::vector<TableMatch> TopKSemanticJoinableTables(size_t table_idx,
                                                     size_t k) const;

  bool built() const { return built_; }
  size_t num_indexed_values() const { return entries_.size(); }

 private:
  struct Entry {
    uint64_t column_packed = 0;
    text::DenseVector vector;
  };

  uint64_t BucketOf(const text::DenseVector& v) const;
  /// Entry indexes in the home bucket and all Hamming-1 neighbors.
  std::vector<size_t> Probe(const text::DenseVector& v) const;

  const Corpus* corpus_;
  std::vector<text::DenseVector> hyperplanes_;
  std::vector<Entry> entries_;
  std::unordered_map<uint64_t, std::vector<size_t>> buckets_;
  bool built_ = false;
};

}  // namespace lakekit::discovery

#endif  // LAKEKIT_DISCOVERY_PEXESO_H_
