#ifndef LAKEKIT_TABLE_TABLE_H_
#define LAKEKIT_TABLE_TABLE_H_

#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "csv/csv.h"
#include "json/value.h"
#include "table/schema.h"
#include "table/value.h"

namespace lakekit::table {

/// An in-memory, column-oriented relational table.
///
/// `Table` is the common currency of the maintenance and exploration tiers:
/// dataset discovery, integration, cleaning and the query engine all consume
/// and produce tables. Storage is columnar (`std::vector<Value>` per field)
/// which keeps per-column profiling — the hot path of every discovery
/// algorithm — cache-friendly.
///
/// Invariant: every cell is NULL or of its field's type. It is checked
/// where cells enter a table — AppendRow per cell, AppendRowsFrom and
/// FromColumns per column — and the decoders establish it by construction:
/// FromCsv decodes a column only into the type SniffType picked or the
/// caller's schema gave, and FromJson coerces each cell to its column's
/// widened type.
class Table {
 public:
  Table() = default;
  Table(std::string name, Schema schema);

  const std::string& name() const { return name_; }
  void set_name(std::string name) { name_ = std::move(name); }
  const Schema& schema() const { return schema_; }

  size_t num_rows() const { return num_rows_; }
  size_t num_columns() const { return schema_.num_fields(); }

  /// Appends a row of exactly num_columns() values, each NULL or of its
  /// field's type. On a mismatch it returns InvalidArgument and leaves the
  /// table unchanged.
  Status AppendRow(std::vector<Value> row);

  /// Reserves capacity for `rows` rows in every column.
  void Reserve(size_t rows);

  /// Appends `n` rows of `src`, identified by row index (or rows [0, n) in
  /// order when `rows` is nullptr), column-wise — the gather primitive of
  /// the vectorized query engine (no per-row materialization). Returns
  /// InvalidArgument, appending nothing, unless `src` has this table's
  /// schema and every row read is below `src.num_rows()`.
  Status AppendRowsFrom(const Table& src, const uint32_t* rows, size_t n);

  /// A row index that reads as NULL in a `ColumnSource`.
  static constexpr uint32_t kNullRow = 0xffffffffu;

  /// One column of a table built by FromColumns: column `column` of
  /// `*table`, read at `rows[0, num_rows)` (each index below
  /// `table->num_rows()`, or kNullRow, which reads NULL), or at rows
  /// [0, num_rows) in order when `rows` is nullptr.
  struct ColumnSource {
    const Table* table = nullptr;
    size_t column = 0;
    const uint32_t* rows = nullptr;
  };

  /// Builds a table whose column i is gathered from `sources[i]`. Its cells
  /// come from other tables, so they already hold their source field's
  /// type: each field's type is checked once against its source field's,
  /// never per cell. InvalidArgument on a type mismatch, a null table, a
  /// missing column or a row index past the source's rows. `num_rows` is
  /// explicit so zero-column tables (e.g. an empty projection) keep their
  /// row count.
  static Result<Table> FromColumns(std::string name, Schema schema,
                                   const std::vector<ColumnSource>& sources,
                                   size_t num_rows);

  /// Cell accessor (no bounds checking beyond assert in debug builds).
  const Value& at(size_t row, size_t col) const { return columns_[col][row]; }

  /// Full column accessor.
  const std::vector<Value>& column(size_t col) const { return columns_[col]; }

  /// Column by name, or error.
  Result<size_t> ColumnIndex(std::string_view name) const;

  /// Materializes row `row` as a vector of values.
  std::vector<Value> Row(size_t row) const;

  /// Serializes to CSV with a header row.
  std::string ToCsv() const;

  /// Parses CSV text into a table, sniffing each column's type from the
  /// data (`SniffType`), then decoding it as the overload below does.
  static Result<Table> FromCsv(std::string name, std::string_view csv_text);

  /// Decodes CSV text against a known schema: fields empty after trimming
  /// become NULL, every other field is parsed as its column's type (a bool
  /// is "true" or "false", an int64 or a double the whole trimmed field
  /// read by std::from_chars, a string the field as written). Returns
  /// Corruption when the header differs from the schema's field names or a
  /// non-empty field does not parse as its type.
  static Result<Table> FromCsv(std::string name, std::string_view csv_text,
                               Schema schema);

  /// Builds a table from a JSON array of flat objects. The schema is the
  /// union of keys in first-seen order; missing keys become NULL; nested
  /// values are serialized back to JSON strings (schema-on-read flattening).
  /// A column's type widens over its cells (`WidenType`, string when all
  /// NULL) and each cell is coerced to it (`CoerceValue`).
  static Result<Table> FromJson(std::string name, const json::Value& doc);

  /// Serializes to a JSON array of objects.
  json::Value ToJson() const;

  bool operator==(const Table& other) const;

 private:
  /// The one CSV decode loop behind both FromCsv overloads: each column
  /// decoded straight from the tokenized fields.
  static Result<Table> FromGrid(std::string name, const csv::FieldGrid& grid,
                                Schema schema);

  std::string name_;
  Schema schema_;
  std::vector<std::vector<Value>> columns_;
  size_t num_rows_ = 0;
};

/// Approximate heap bytes of a decoded table (cells plus string payloads).
/// The one size estimate every byte-accounting consumer shares: the
/// TableCache charge (query/table_cache.h) and per-query memory budgeting
/// (common/memory_budget.h) both price a table with this.
size_t EstimateTableBytes(const Table& t);

/// Infers the DataType of a column of raw fields (CSV type sniffing): bool
/// if every field non-empty after trimming is true/false, int64 if every
/// one parses into an int64_t, double if every one parses as a double,
/// else string (also when no field is non-empty). A sniffed type is one
/// `Table::FromCsv` decodes every non-empty field into.
DataType SniffType(std::span<const std::string_view> values);

/// The widening rule: the type of a column whose cells have types `a` and
/// `b`. NULL widens to the other type, int64 with double to double, and
/// any other mix to string.
DataType WidenType(DataType a, DataType b);

/// The coercion rule: `v` converted to a field of type `type` — int64 to
/// double, and anything to its ToString() for a string field. NULL and
/// cells already of `type` come back unchanged, and so does every pair the
/// widening rule never produces (which AppendRow then rejects).
Value CoerceValue(Value v, DataType type);

}  // namespace lakekit::table

#endif  // LAKEKIT_TABLE_TABLE_H_
