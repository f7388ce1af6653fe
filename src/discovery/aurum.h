#ifndef LAKEKIT_DISCOVERY_AURUM_H_
#define LAKEKIT_DISCOVERY_AURUM_H_

#include <vector>

#include "discovery/common.h"
#include "metamodel/ekg.h"

namespace lakekit::discovery {

/// Aurum (survey Sec. 6.2.1, Table 3): profiles every column into MinHash
/// signatures, indexes them in a banding LSH, and materializes an Enterprise
/// Knowledge Graph whose weighted edges record content similarity
/// (Jaccard via MinHash), schema similarity (TF-IDF cosine over attribute
/// names), and inferred PK-FK relationships. Queries — joinable columns,
/// related tables, discovery paths — run against the EKG, turning the
/// O(n²) all-pairs comparison into LSH-candidate verification.
class AurumFinder {
 public:
  explicit AurumFinder(const Corpus* corpus) : corpus_(corpus) {}

  /// Builds the EKG through a banding LSH over the corpus signatures
  /// (`kLshBands` x `kLshRows`), which is freed when the build ends. Call
  /// once after the corpus is loaded.
  ///
  /// LSH insertion and EKG mutation stay serial; the expensive per-column
  /// candidate verification (content edges, schema-edge cosines, PK-FK
  /// containment checks) fans out over `pool` (nullptr ->
  /// ThreadPool::Default(); size-1 pool = serial opt-out), with results
  /// merged in deterministic column order.
  Status Build(ThreadPool* pool = nullptr);

  /// Top-k joinable columns for `query` via EKG content edges.
  std::vector<ColumnMatch> TopKJoinableColumns(ColumnId query,
                                               size_t k) const;

  /// Top-k related tables for a whole query table (best column edge per
  /// candidate table).
  std::vector<TableMatch> TopKJoinableTables(size_t table_idx, size_t k) const;

  /// Columns schema-similar to `query` (attribute-name signal).
  std::vector<ColumnMatch> SchemaSimilarColumns(ColumnId query,
                                                size_t k) const;

  /// Inferred PK-FK pairs (fk column, pk column).
  const std::vector<std::pair<ColumnId, ColumnId>>& PkFkPairs() const {
    return pkfk_pairs_;
  }

  /// A discovery path between two columns following content-similarity
  /// edges, as the EKG primitive Aurum exposes.
  std::vector<ColumnId> DiscoveryPath(ColumnId from, ColumnId to,
                                      size_t max_hops = 6) const;

  /// One node per corpus column: node i + 1 is `corpus->sketches()[i]`.
  const metamodel::Ekg& ekg() const { return ekg_; }
  bool built() const { return built_; }

 private:
  const Corpus* corpus_;
  metamodel::Ekg ekg_;
  std::vector<std::pair<ColumnId, ColumnId>> pkfk_pairs_;
  bool built_ = false;
};

}  // namespace lakekit::discovery

#endif  // LAKEKIT_DISCOVERY_AURUM_H_
