#ifndef LAKEKIT_QUERY_ZONE_MAP_H_
#define LAKEKIT_QUERY_ZONE_MAP_H_

#include <cstddef>
#include <vector>

#include "query/vec.h"
#include "table/table.h"
#include "table/value.h"

namespace lakekit::query {

/// Min/max + null statistics of one column over one kMorselSize-row chunk —
/// the statistics-as-metadata the survey's metadata systems catalog (PAPERS:
/// Sawadogo et al.), kept at morsel granularity so the vectorized engine can
/// skip whole morsels (`CompiledExpr::EvaluateRange`).
///
/// `min`/`max` are materialized Value copies of the column's type (a
/// Table's cells always hold their field's type), found by comparing cells
/// as that type (int64 exactly, never through double). Pruning compares
/// them under Value's cross-type total order (NULL < bool < numeric <
/// string), so they bound a chunk against a literal of any type. They are
/// only meaningful when `has_values`; `unordered` marks a chunk containing
/// a NaN double, whose comparisons violate trichotomy — pruning must not
/// trust the range (EvaluateRange returns kMaybe).
struct ZoneStats {
  table::Value min;
  table::Value max;
  size_t row_count = 0;
  size_t null_count = 0;
  bool has_values = false;  // any non-null cell in the chunk
  bool unordered = false;   // saw NaN: range untrusted
};

/// Per-column, per-chunk statistics of a table, chunked at kMorselSize so
/// chunk m covers exactly the rows of Filter's morsel m. Built once at cache
/// admission time (query/table_cache.h) and immutable afterwards.
class ZoneMap {
 public:
  ZoneMap() = default;

  /// Scans `t` once, column-at-a-time and typed by each field's schema
  /// type, building stats for every (chunk, column) pair.
  static ZoneMap Build(const table::Table& t);

  size_t num_chunks() const { return num_columns_ == 0 ? 0 : stats_.size() / num_columns_; }
  size_t num_columns() const { return num_columns_; }

  const ZoneStats& stats(size_t chunk, size_t col) const {
    return stats_[chunk * num_columns_ + col];
  }

  /// The `num_columns()` stats of one chunk, contiguous in column order —
  /// the shape EvaluateRange consumes.
  const ZoneStats* chunk(size_t chunk_index) const {
    return stats_.data() + chunk_index * num_columns_;
  }

  /// Approximate heap footprint, for cache charge accounting.
  size_t memory_bytes() const;

 private:
  size_t num_columns_ = 0;
  std::vector<ZoneStats> stats_;  // chunk-major: [chunk * num_columns_ + col]
};

}  // namespace lakekit::query

#endif  // LAKEKIT_QUERY_ZONE_MAP_H_
