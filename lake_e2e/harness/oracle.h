#ifndef LAKE_E2E_HARNESS_ORACLE_H_
#define LAKE_E2E_HARNESS_ORACLE_H_

// Answer oracles for the query workloads. The sources are generated here as
// plain rows, written out as CSV/JSON bytes by this file's own formatting,
// and every expected answer is computed from those rows in plain
// int64_t/double/std::string code: nothing here goes through table::Value
// comparisons, query/ or reference_ops, so a bug those share cannot hide.

#include <cstdint>
#include <string>
#include <variant>
#include <vector>

namespace lakekit::table {
class Table;
}

namespace lake_e2e {

/// SplitMix64: the benchmark's own generator, independent of lakekit's Rng.
class SplitMix {
 public:
  explicit SplitMix(uint64_t seed) : state_(seed) {}
  uint64_t Next();
  /// Uniform in [0, bound); bound > 0.
  uint64_t Below(uint64_t bound) { return Next() % bound; }

 private:
  uint64_t state_;
};

/// Object-tier fact table, clustered on `id` (rows are written in id order).
/// Money is held in integer cents and written with two decimals.
struct FactRow {
  int64_t id = 0;
  int64_t cust = 0;
  int64_t prod = 0;
  int64_t qty = 0;
  int64_t amount_cents = 0;
};

/// Relational table ingested from CSV.
struct CustomerRow {
  int64_t cust_id = 0;
  std::string region;
  int64_t tier = 0;
  int64_t balance_cents = 0;
};

/// Document collection ingested from a JSON array.
struct ProductDoc {
  int64_t prod_id = 0;
  std::string category;
  std::string title;
  int64_t price_cents = 0;
};

struct SourceSizes {
  size_t fact_rows = 0;
  size_t customers = 0;
  size_t products = 0;
};

struct QuerySources {
  std::vector<FactRow> fact;
  std::vector<CustomerRow> customers;
  std::vector<ProductDoc> products;
};

QuerySources MakeQuerySources(uint64_t seed, const SourceSizes& sizes);

/// Content of version `version` of the fact table: its row count and its
/// amounts both change with the version, so consecutive versions give
/// different answers to every query shape.
std::vector<FactRow> MakeFactVersion(uint64_t seed, const SourceSizes& sizes,
                                     uint64_t version);

std::string FactCsv(const std::vector<FactRow>& rows);
std::string CustomersCsv(const std::vector<CustomerRow>& rows);
std::string ProductsJson(const std::vector<ProductDoc>& docs);

/// A plain result cell.
using Cell = std::variant<std::monostate, int64_t, double, std::string>;

struct Answer {
  std::vector<std::string> columns;
  std::vector<std::vector<Cell>> rows;
};

/// The four query shapes of the query workloads.
enum class Shape {
  kRange,       // selective range filter on the clustered key
  kJoinGroup,   // fact x documents join, pushed predicates, GROUP BY
  kGroupAggs,   // GROUP BY with several aggregates (relational source)
  kTopK,        // ORDER BY ... LIMIT
};
inline constexpr int kNumShapes = 4;
const char* ShapeName(Shape shape);

/// One concrete query: its SQL plus the parameters the oracle needs.
struct QueryInstance {
  Shape shape = Shape::kRange;
  std::string sql;
  int64_t lo = 0;     // kRange/kJoinGroup: id range [lo, hi)
  int64_t hi = 0;
  int64_t min_cents = 0;  // kJoinGroup: price >= min_cents (half-cent literal)
  int64_t min_int = 0;    // kGroupAggs: tier >= ; kTopK: qty >=
};

inline constexpr size_t kTopKLimit = 10;

/// Draws an instance of `shape` over a fact table of `fact_rows` rows.
QueryInstance MakeInstance(Shape shape, SplitMix* rng, size_t fact_rows);

/// The expected answer, from plain rows.
Answer Expected(const QueryInstance& q, const std::vector<FactRow>& fact,
                const std::vector<CustomerRow>& customers,
                const std::vector<ProductDoc>& products);

/// Reads a lakekit result table into plain cells (type tags and raw
/// getters only; no Value comparison).
Answer FromTable(const lakekit::table::Table& t);

/// Compares a result with the expected answer under the shape's rules
/// (grouped and filtered results as multisets; top-k by its ordered sort
/// keys, with any tie-break). Returns "" on a match, else what differs.
std::string Compare(const QueryInstance& q, const Answer& expected,
                    const Answer& got);

}  // namespace lake_e2e

#endif  // LAKE_E2E_HARNESS_ORACLE_H_
