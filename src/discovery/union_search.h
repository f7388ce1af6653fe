#ifndef LAKEKIT_DISCOVERY_UNION_SEARCH_H_
#define LAKEKIT_DISCOVERY_UNION_SEARCH_H_

#include <vector>

#include "discovery/common.h"

namespace lakekit::discovery {

struct UnionSearchOptions {
  /// Minimum per-attribute unionability for two columns to align.
  double attribute_threshold = 0.4;
  /// Weights of the three attribute-unionability signals.
  double name_weight = 0.4;
  double value_weight = 0.3;
  double embedding_weight = 0.3;
};

/// One aligned attribute pair in a unionability result.
struct AttributeAlignment {
  ColumnId query_column;
  ColumnId candidate_column;
  double score = 0;
};

/// A unionable-table result: the candidate table, its aggregate score, and
/// the attribute alignment that produced it.
struct UnionMatch {
  size_t table_idx = 0;
  std::string table_name;
  double score = 0;
  std::vector<AttributeAlignment> alignment;
};

/// Table union search (Nargesian et al., cited throughout survey Sec. 6.1.3
/// and 6.2 as the unionability counterpart of join discovery): two tables
/// are unionable when their attributes can be aligned so that aligned
/// attributes draw from the same domain. Attribute unionability blends a
/// name signal (3-gram Jaccard over the sketches' precomputed name grams),
/// a value-domain signal (MinHash Jaccard)
/// and a semantic signal (embedding cosine); table unionability is the mean
/// aligned-attribute score scaled by alignment coverage.
class UnionSearch {
 public:
  UnionSearch(const Corpus* corpus, UnionSearchOptions options = {});

  /// Unionability of one attribute pair in [0,1].
  double AttributeUnionability(const ColumnSketch& a,
                               const ColumnSketch& b) const;

  /// Greedy best-first alignment between the columns of two tables; pairs
  /// below attribute_threshold are left unaligned.
  std::vector<AttributeAlignment> AlignTables(size_t query_table,
                                              size_t candidate_table) const;

  /// Top-k unionable tables for the query table, each scored by its mean
  /// aligned-attribute score * (aligned / query columns).
  std::vector<UnionMatch> TopKUnionableTables(size_t query_table,
                                              size_t k) const;

 private:
  const Corpus* corpus_;
  UnionSearchOptions options_;
};

}  // namespace lakekit::discovery

#endif  // LAKEKIT_DISCOVERY_UNION_SEARCH_H_
