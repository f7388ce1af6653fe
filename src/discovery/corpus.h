#ifndef LAKEKIT_DISCOVERY_CORPUS_H_
#define LAKEKIT_DISCOVERY_CORPUS_H_

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "common/thread_pool.h"
#include "table/table.h"
#include "text/dictionary.h"
#include "text/embedding.h"
#include "text/minhash.h"

namespace lakekit::discovery {

/// Identifies one column in a corpus: (table index, column index).
struct ColumnId {
  uint32_t table_idx = 0;
  uint32_t col_idx = 0;

  /// Packed form used as LSH item id.
  uint64_t Packed() const {
    return (static_cast<uint64_t>(table_idx) << 32) | col_idx;
  }
  static ColumnId FromPacked(uint64_t packed) {
    return ColumnId{static_cast<uint32_t>(packed >> 32),
                    static_cast<uint32_t>(packed & 0xFFFFFFFFu)};
  }
  bool operator==(const ColumnId&) const = default;
  bool operator<(const ColumnId& o) const {
    return Packed() < o.Packed();
  }
};

/// All precomputed per-column evidence the discovery methods share: the
/// survey's Table 3 shows every system extracting some subset of these
/// signals, so the corpus computes them once per ingested table.
struct ColumnSketch {
  ColumnId id;
  std::string table_name;
  std::string column_name;
  table::DataType type = table::DataType::kString;

  /// Distinct non-null values rendered as strings, as `Corpus::dictionary()`
  /// ids in first-seen row order (PEXESO reads a prefix of this order).
  std::vector<uint32_t> distinct_values;
  /// The same ids ascending, for the exact set measures and JOSIE's index.
  std::vector<uint32_t> sorted_values;
  /// MinHash signature of the value set (Aurum, D3L).
  text::MinHashSignature minhash;
  /// Cells in the column, and how many of them are NULL.
  size_t row_count = 0;
  size_t null_count = 0;
  /// Lowercased attribute-name tokens (schema signal).
  std::vector<std::string> name_tokens;
  /// Packed name 3-grams (`text::NameGrams`): union search, D3L, Juneau.
  std::vector<uint32_t> name_grams;
  /// Histogram of value format patterns: each value maps to a class string
  /// (digits->'d', letters->'a', other kept); pattern -> count (D3L's
  /// "data value representation pattern" signal).
  std::map<std::string, size_t> format_histogram;
  /// Numeric values (for KS distribution similarity); empty for non-numeric.
  std::vector<double> numeric_values;
  /// Mean embedding of value tokens (semantic signal; D3L/PEXESO).
  text::DenseVector embedding;

  bool is_textual() const { return type == table::DataType::kString; }

  /// `ingest::ColumnProfile`'s measures, with the distinct count read off
  /// the value set: Aurum's key-ness filter and Juneau's null and key
  /// signals.
  double null_fraction() const {
    return row_count == 0 ? 0.0
                          : static_cast<double>(null_count) /
                                static_cast<double>(row_count);
  }
  double uniqueness() const {
    size_t non_null = row_count - null_count;
    return non_null == 0 ? 0.0
                         : static_cast<double>(sorted_values.size()) /
                               static_cast<double>(non_null);
  }
};

/// Exact overlap |A ∩ B| of two columns' distinct-value sets.
size_t ExactOverlap(const ColumnSketch& a, const ColumnSketch& b);

/// Exact Jaccard |A ∩ B| / |A ∪ B|.
double ExactJaccard(const ColumnSketch& a, const ColumnSketch& b);

/// Exact containment |A ∩ B| / |A| (how much of `a` appears in `b`).
double ExactContainment(const ColumnSketch& a, const ColumnSketch& b);

/// Maps a raw value to its format-pattern class string, collapsing runs:
/// "AB-12" -> "a-d", "2024/01/02" -> "d/d/d".
std::string FormatPattern(std::string_view value);

/// Sketch sizes, the same for every corpus.
/// MinHash signature length: Aurum's and D3L's value LSH bands * rows.
inline constexpr size_t kMinHashSize = 128;
/// Aurum's and D3L's banding LSH over that signature.
inline constexpr size_t kLshBands = 32;
inline constexpr size_t kLshRows = 4;
static_assert(kLshBands * kLshRows == kMinHashSize,
              "LSH bands * rows must equal the MinHash signature length");
/// Embedding dimension: PEXESO's hyperplanes span it.
inline constexpr size_t kEmbeddingDim = 64;
/// Distinct numeric values retained per column for KS tests.
inline constexpr size_t kNumericSampleCap = 2048;
/// Value tokens embedded per column.
inline constexpr size_t kEmbeddingTokenCap = 256;

/// A lake-wide collection of tables with per-column sketches. All discovery
/// methods (Aurum, JOSIE, D3L, PEXESO, union search, brute force) run over
/// one shared corpus so their comparison in the Table 3 bench is apples to
/// apples.
class Corpus {
 public:
  Corpus();

  /// Ingests one table: `AddTables` with a one-table batch on the default
  /// pool. Returns the table index. Table names must be unique.
  Result<size_t> AddTable(table::Table t);

  /// Batch ingestion, the one path that builds column sketches: adds every
  /// table, building all column sketches in parallel on `pool` (nullptr ->
  /// ThreadPool::Default(); a pool of size 1 is the serial opt-out). Returns
  /// the table indexes, in input order.
  ///
  /// Determinism contract: each sketch is a pure function of its column,
  /// and results are written to pre-sized slots, so sketch order and every
  /// signature/embedding are bit-identical however the tables are batched —
  /// one call or one per table — and whatever the pool's size. Dictionary
  /// ids follow the first appearance of each value over (table, column,
  /// row), assigned by one serial pass after the parallel one, so they are
  /// bit-identical under the same conditions.
  ///
  /// Fails without side effects if any name is a duplicate (within the batch
  /// or against already-ingested tables). Not safe to call concurrently with
  /// other mutating or reading Corpus methods.
  Result<std::vector<size_t>> AddTables(std::vector<table::Table> tables,
                                        ThreadPool* pool = nullptr);

  size_t num_tables() const { return tables_.size(); }
  size_t num_columns() const { return sketches_.size(); }

  const table::Table& table(size_t idx) const { return tables_[idx]; }
  Result<size_t> TableIndex(std::string_view name) const;

  /// Sketch of a column by id. Aborts if the id names no column here.
  const ColumnSketch& sketch(ColumnId id) const;
  /// All sketches, iteration order = insertion order.
  const std::vector<ColumnSketch>& sketches() const { return sketches_; }
  /// Sketches belonging to one table: O(columns of that table), served from
  /// the contiguous range recorded at ingestion time.
  std::vector<const ColumnSketch*> TableSketches(size_t table_idx) const;

  /// Column lookup by names.
  Result<ColumnId> FindColumn(std::string_view table,
                              std::string_view column) const;

  /// Every distinct value of every column, interned once.
  const text::StringDictionary& dictionary() const { return dictionary_; }
  const text::MinHasher& minhasher() const { return minhasher_; }
  const text::EmbeddingModel& embedder() const { return embedder_; }

  /// Gives the embedder ground-truth domains (testing/benchmarks): tokens of
  /// one semantic domain embed close together.
  void RegisterSemanticDomain(const std::string& domain,
                              const std::vector<std::string>& tokens);

 private:
  text::MinHasher minhasher_;
  text::EmbeddingModel embedder_;
  text::StringDictionary dictionary_;
  std::vector<table::Table> tables_;
  std::vector<ColumnSketch> sketches_;
  /// [begin, end) into sketches_ per table (columns are contiguous).
  std::vector<std::pair<size_t, size_t>> sketch_range_;
  std::map<std::string, size_t, std::less<>> table_index_;
};

}  // namespace lakekit::discovery

#endif  // LAKEKIT_DISCOVERY_CORPUS_H_
