#ifndef LAKEKIT_INTEGRATE_SCHEMA_MATCH_H_
#define LAKEKIT_INTEGRATE_SCHEMA_MATCH_H_

#include <cstddef>
#include <vector>

#include "table/table.h"

namespace lakekit::integrate {

/// One matched attribute pair between two schemas.
struct AttributeMatch {
  size_t left_col = 0;
  size_t right_col = 0;
  double score = 0;
};

/// Hybrid schema matching (survey Sec. 6.3): a name-based matcher (q-gram
/// Jaccard over attribute names) combined with an instance-based matcher
/// (value-set Jaccard over sampled distinct values), with a type-mismatch
/// penalty, then greedy 1:1 stable matching — the classic first step of
/// every lake data-integration pipeline (Constance, ALITE).
class SchemaMatcher {
 public:
  /// Similarity of one column pair in [0,1].
  double ColumnSimilarity(const table::Table& left, size_t left_col,
                          const table::Table& right, size_t right_col) const;

  /// Greedy 1:1 matching between the two schemas, highest score first.
  std::vector<AttributeMatch> Match(const table::Table& left,
                                    const table::Table& right) const;
};

}  // namespace lakekit::integrate

#endif  // LAKEKIT_INTEGRATE_SCHEMA_MATCH_H_
