#ifndef LAKEKIT_DISCOVERY_JOSIE_H_
#define LAKEKIT_DISCOVERY_JOSIE_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "discovery/common.h"

namespace lakekit::discovery {

/// JOSIE (survey Sec. 6.2.1, Table 3): exact top-k overlap set similarity
/// search for joinable-table discovery. Columns are sets of distinct
/// values; the index is an inverted list token -> columns containing it,
/// over the corpus dictionary's integer ids (JOSIE's global tokens). A
/// query reads the posting list of each of its values and counts, per
/// column, the values it shares; the counts are exact intersection sizes.
class JosieFinder {
 public:
  explicit JosieFinder(const Corpus* corpus) : corpus_(corpus) {}

  /// Builds the inverted index over every corpus column.
  void Build();

  /// Exact top-k columns by intersection size with the query column
  /// (same-table columns excluded). No human threshold needed — that is
  /// JOSIE's point versus fixed-θ overlap search.
  std::vector<ColumnMatch> TopKOverlapColumns(ColumnId query, size_t k) const;

  /// Exact top-k columns by intersection with an ad-hoc value set.
  std::vector<ColumnMatch> TopKOverlapForValues(
      const std::vector<std::string>& values, size_t k,
      std::optional<uint32_t> exclude_table = {}) const;

  /// Top-k joinable tables for a whole query table.
  std::vector<TableMatch> TopKJoinableTables(size_t table_idx, size_t k) const;

  /// Statistics: how many posting entries the last query scanned (for the
  /// bench's cost accounting).
  size_t last_query_postings_scanned() const {
    return last_query_postings_scanned_;
  }

  bool built() const { return built_; }
  size_t index_size() const { return built_ ? offsets_.size() - 1 : 0; }

 private:
  /// Top-k columns by how many of the dictionary ids `ids` they hold.
  std::vector<ColumnMatch> TopK(const std::vector<uint32_t>& ids, size_t k,
                                std::optional<uint32_t> exclude_table) const;

  const Corpus* corpus_;
  /// Posting lists in one CSR layout: the columns holding token v are
  /// columns_[offsets_[v], offsets_[v + 1]), as ascending indexes into the
  /// corpus's sketches.
  std::vector<uint64_t> offsets_;
  std::vector<uint32_t> columns_;
  bool built_ = false;
  mutable size_t last_query_postings_scanned_ = 0;
};

}  // namespace lakekit::discovery

#endif  // LAKEKIT_DISCOVERY_JOSIE_H_
