#ifndef LAKEKIT_DISCOVERY_UNION_SEARCH_H_
#define LAKEKIT_DISCOVERY_UNION_SEARCH_H_

#include <cstdint>
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
///
/// Queries read a scoring index built at construction, as JOSIE's is by
/// `Build`: construct it once the corpus is complete, since tables added
/// later are not searched. An attribute pair whose score cannot reach
/// attribute_threshold, bounded from its types, its embeddings' zeroness
/// and its name and value signals, is skipped before its remaining
/// signals; every other pair is scored by the one formula, so alignments,
/// scores and rankings are those of scoring every pair. The queries are
/// const and keep their scratch per call, so they may run concurrently.
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
  /// One call's state for one query table (union_search.cc).
  struct Query;

  /// The one scoring formula over the three signals.
  double Score(double name, double values, double embedding,
               bool same_type) const;
  Query StartQuery(size_t query_table) const;
  /// The kernel both queries share: appends the query's alignment with one
  /// table to `out`.
  void Align(Query* query, size_t candidate_table,
             std::vector<AttributeAlignment>* out) const;

  /// What the index holds per column (an index into corpus sketches).
  struct Column {
    table::DataType type = table::DataType::kString;
    /// Whether the embedding has a nonzero norm, by `CosineSimilarity`'s
    /// own test: a cosine with a zero embedding is 0.
    bool nonzero_embedding = false;
    /// Shared by every column with equal name grams.
    uint32_t name_id = 0;
  };

  const Corpus* corpus_;
  UnionSearchOptions options_;
  /// A pair whose score bound is below this cannot reach
  /// attribute_threshold: the threshold less a rounding margin.
  double floor_ = 0;
  /// Table t's columns are [table_begin_[t], table_begin_[t + 1]).
  std::vector<size_t> table_begin_;
  std::vector<Column> columns_;
  /// The distinct name-gram sets, by name id.
  std::vector<std::vector<uint32_t>> names_;
  /// Every column's MinHash signature, kMinHashSize values each.
  std::vector<uint64_t> minhashes_;
};

}  // namespace lakekit::discovery

#endif  // LAKEKIT_DISCOVERY_UNION_SEARCH_H_
