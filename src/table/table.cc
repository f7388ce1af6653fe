#include "table/table.h"

#include <algorithm>
#include <cassert>
#include <charconv>

#include "common/string_util.h"
#include "json/writer.h"

namespace lakekit::table {

namespace {

/// One past the largest row index in rows[0, n): how many rows a gather
/// reads from its source. With `null_row_reads_null`, kNullRow reads none.
uint64_t RowsRead(const uint32_t* rows, size_t n, bool null_row_reads_null) {
  uint64_t read = 0;
  for (size_t k = 0; k < n; ++k) {
    if (null_row_reads_null && rows[k] == Table::kNullRow) continue;
    read = std::max(read, uint64_t{rows[k]} + 1);
  }
  return read;
}

}  // namespace

Table::Table(std::string name, Schema schema)
    : name_(std::move(name)),
      schema_(std::move(schema)),
      columns_(schema_.num_fields()) {}

Status Table::AppendRow(std::vector<Value> row) {
  if (row.size() != schema_.num_fields()) {
    return Status::InvalidArgument(
        "row has " + std::to_string(row.size()) + " values, schema has " +
        std::to_string(schema_.num_fields()) + " fields");
  }
  for (size_t i = 0; i < row.size(); ++i) {
    const Field& field = schema_.field(i);
    if (!row[i].is_null() && row[i].type() != field.type) {
      return Status::InvalidArgument(
          "column '" + field.name + "' is " +
          std::string(DataTypeName(field.type)) + ", cell is " +
          std::string(DataTypeName(row[i].type())));
    }
  }
  for (size_t i = 0; i < row.size(); ++i) {
    columns_[i].push_back(std::move(row[i]));
  }
  ++num_rows_;
  return Status::OK();
}

void Table::Reserve(size_t rows) {
  for (auto& column : columns_) column.reserve(rows);
}

Status Table::AppendRowsFrom(const Table& src, const uint32_t* rows,
                             size_t n) {
  if (src.schema_ != schema_) {
    return Status::InvalidArgument("AppendRowsFrom: schema mismatch");
  }
  const uint64_t read =
      rows == nullptr ? n : RowsRead(rows, n, /*null_row_reads_null=*/false);
  if (read > src.num_rows_) {
    return Status::InvalidArgument(
        "AppendRowsFrom: reads " + std::to_string(read) + " rows, source has " +
        std::to_string(src.num_rows_));
  }
  for (size_t c = 0; c < columns_.size(); ++c) {
    const std::vector<Value>& from = src.columns_[c];
    std::vector<Value>& to = columns_[c];
    if (rows == nullptr) {
      to.insert(to.end(), from.begin(), from.begin() + n);
    } else {
      for (size_t k = 0; k < n; ++k) to.push_back(from[rows[k]]);
    }
  }
  num_rows_ += n;
  return Status::OK();
}

Result<Table> Table::FromColumns(std::string name, Schema schema,
                                 const std::vector<ColumnSource>& sources,
                                 size_t num_rows) {
  if (sources.size() != schema.num_fields()) {
    return Status::InvalidArgument(
        "FromColumns: " + std::to_string(sources.size()) +
        " columns for a schema of " + std::to_string(schema.num_fields()) +
        " fields");
  }
  for (size_t c = 0; c < sources.size(); ++c) {
    const ColumnSource& src = sources[c];
    if (src.table == nullptr) {
      return Status::InvalidArgument("FromColumns: column " +
                                     std::to_string(c) + " has no source");
    }
    if (src.column >= src.table->num_columns()) {
      return Status::InvalidArgument("FromColumns: no source column " +
                                     std::to_string(src.column));
    }
    const DataType from = src.table->schema().field(src.column).type;
    if (from != schema.field(c).type) {
      return Status::InvalidArgument(
          "FromColumns: column '" + schema.field(c).name + "' is " +
          std::string(DataTypeName(schema.field(c).type)) +
          ", its source is " + std::string(DataTypeName(from)));
    }
    // Columns of one table gathered through one index array (a join side)
    // share a bounds check: one pass over the indexes, never over cells.
    const bool checked = c > 0 && src.table == sources[c - 1].table &&
                         src.rows == sources[c - 1].rows;
    if (checked) continue;
    const uint64_t read =
        src.rows == nullptr
            ? num_rows
            : RowsRead(src.rows, num_rows, /*null_row_reads_null=*/true);
    if (read > src.table->num_rows()) {
      return Status::InvalidArgument(
          "FromColumns: reads " + std::to_string(read) + " rows, source has " +
          std::to_string(src.table->num_rows()));
    }
  }
  Table t(std::move(name), std::move(schema));
  for (size_t c = 0; c < sources.size(); ++c) {
    const ColumnSource& src = sources[c];
    const std::vector<Value>& from = src.table->columns_[src.column];
    std::vector<Value>& to = t.columns_[c];
    if (src.rows == nullptr) {
      to.assign(from.begin(), from.begin() + num_rows);
      continue;
    }
    to.reserve(num_rows);
    for (size_t k = 0; k < num_rows; ++k) {
      const uint32_t r = src.rows[k];
      if (r == kNullRow) {
        to.emplace_back();
      } else {
        to.push_back(from[r]);
      }
    }
  }
  t.num_rows_ = num_rows;
  return t;
}

Result<size_t> Table::ColumnIndex(std::string_view name) const {
  if (auto idx = schema_.IndexOf(name)) return *idx;
  return Status::NotFound("no column '" + std::string(name) + "' in table '" +
                          name_ + "'");
}

std::vector<Value> Table::Row(size_t row) const {
  std::vector<Value> out;
  out.reserve(num_columns());
  for (size_t c = 0; c < num_columns(); ++c) out.push_back(columns_[c][row]);
  return out;
}

std::string Table::ToCsv() const {
  csv::CsvData data;
  data.header = schema_.FieldNames();
  data.records.reserve(num_rows_);
  for (size_t r = 0; r < num_rows_; ++r) {
    std::vector<std::string> record;
    record.reserve(num_columns());
    for (size_t c = 0; c < num_columns(); ++c) {
      record.push_back(columns_[c][r].ToString());
    }
    data.records.push_back(std::move(record));
  }
  return csv::Write(data);
}

namespace {

/// Parses all of `v` as a T the way decoding does (std::from_chars).
template <typename T>
bool ParseAll(std::string_view v, T* out) {
  auto [ptr, ec] = std::from_chars(v.data(), v.data() + v.size(), *out);
  return ec == std::errc() && ptr == v.data() + v.size();
}

/// Appends the cell a field non-empty after trimming decodes to in a
/// `type` column (`v` trimmed, `raw` as written; see Table::FromCsv).
/// False, appending nothing, when it does not parse as `type`.
template <DataType type>
bool AppendCell(std::string_view v, std::string_view raw,
                std::vector<Value>& cells) {
  if constexpr (type == DataType::kBool) {
    if (v != "true" && v != "false") return false;
    cells.emplace_back(v == "true");
  } else if constexpr (type == DataType::kInt64) {
    int64_t i = 0;
    if (!ParseAll(v, &i)) return false;
    cells.emplace_back(i);
  } else if constexpr (type == DataType::kDouble) {
    double d = 0;
    if (!ParseAll(v, &d)) return false;
    cells.emplace_back(d);
  } else if constexpr (type == DataType::kString) {
    cells.emplace_back(std::string(raw));
  } else {
    return false;  // a NULL column holds only empty fields
  }
  return true;
}

/// Appends one `type` cell per field, NULL for a field empty after
/// trimming. Returns the index of the first field that does not parse,
/// having appended the cells before it, or fields.size().
template <DataType type>
size_t DecodeFields(std::span<const std::string_view> fields,
                    std::vector<Value>& cells) {
  for (size_t r = 0; r < fields.size(); ++r) {
    const std::string_view v = Trim(fields[r]);
    if (v.empty()) {
      cells.emplace_back();
    } else if (!AppendCell<type>(v, fields[r], cells)) {
      return r;
    }
  }
  return fields.size();
}

/// DecodeFields with the type switch outside the row loop.
size_t DecodeColumn(DataType type, std::span<const std::string_view> fields,
                    std::vector<Value>& cells) {
  switch (type) {
    case DataType::kBool:
      return DecodeFields<DataType::kBool>(fields, cells);
    case DataType::kInt64:
      return DecodeFields<DataType::kInt64>(fields, cells);
    case DataType::kDouble:
      return DecodeFields<DataType::kDouble>(fields, cells);
    case DataType::kString:
      return DecodeFields<DataType::kString>(fields, cells);
    case DataType::kNull:
      break;
  }
  return DecodeFields<DataType::kNull>(fields, cells);
}

}  // namespace

DataType SniffType(std::span<const std::string_view> values) {
  bool all_int = true;
  bool all_num = true;
  bool all_bool = true;
  bool any_non_empty = false;
  for (const std::string_view raw : values) {
    std::string_view v = Trim(raw);
    if (v.empty()) continue;
    any_non_empty = true;
    int64_t i = 0;
    double d = 0;
    if (all_int && !ParseAll(v, &i)) all_int = false;
    // Every int64 spelling is a double one too, so the double parse waits
    // for the first field that is not an int64.
    if (!all_int && all_num && !ParseAll(v, &d)) all_num = false;
    if (all_bool && v != "true" && v != "false") all_bool = false;
    if (!all_int && !all_num && !all_bool) break;
  }
  if (!any_non_empty) return DataType::kString;
  if (all_bool) return DataType::kBool;
  if (all_int) return DataType::kInt64;
  if (all_num) return DataType::kDouble;
  return DataType::kString;
}

DataType WidenType(DataType a, DataType b) {
  if (a == b || b == DataType::kNull) return a;
  if (a == DataType::kNull) return b;
  const bool numeric_pair =
      (a == DataType::kInt64 && b == DataType::kDouble) ||
      (a == DataType::kDouble && b == DataType::kInt64);
  return numeric_pair ? DataType::kDouble : DataType::kString;
}

Value CoerceValue(Value v, DataType type) {
  if (v.is_null() || v.type() == type) return v;
  if (type == DataType::kDouble && v.is_int()) {
    return Value(static_cast<double>(v.as_int()));
  }
  if (type == DataType::kString) return Value(v.ToString());
  return v;
}

Result<Table> Table::FromGrid(std::string name, const csv::FieldGrid& grid,
                              Schema schema) {
  Table t(std::move(name), std::move(schema));
  // Columns decode one at a time; the error names the first bad field in
  // row-major order.
  size_t bad_row = grid.num_records();
  size_t bad_col = 0;
  for (size_t c = 0; c < t.num_columns(); ++c) {
    const size_t r =
        DecodeColumn(t.schema_.field(c).type, grid.column(c), t.columns_[c]);
    if (r < bad_row) {
      bad_row = r;
      bad_col = c;
    }
  }
  if (bad_row < grid.num_records()) {
    return Status::Corruption(
        "CSV field '" + std::string(grid.field(bad_row, bad_col)) +
        "' of column '" + t.schema_.field(bad_col).name + "' is not " +
        std::string(DataTypeName(t.schema_.field(bad_col).type)));
  }
  t.num_rows_ = grid.num_records();
  return t;
}

Result<Table> Table::FromCsv(std::string name, std::string_view csv_text) {
  LAKEKIT_ASSIGN_OR_RETURN(csv::FieldGrid grid, csv::Tokenize(csv_text));
  Schema schema;
  for (size_t c = 0; c < grid.num_columns(); ++c) {
    schema.AddField(
        Field{grid.header()[c], SniffType(grid.column(c)), /*nullable=*/true});
  }
  return FromGrid(std::move(name), grid, std::move(schema));
}

Result<Table> Table::FromCsv(std::string name, std::string_view csv_text,
                             Schema schema) {
  LAKEKIT_ASSIGN_OR_RETURN(csv::FieldGrid grid, csv::Tokenize(csv_text));
  if (grid.header() != schema.FieldNames()) {
    return Status::Corruption("CSV header '" + Join(grid.header(), ",") +
                              "' does not match the schema [" +
                              schema.ToString() + "]");
  }
  return FromGrid(std::move(name), grid, std::move(schema));
}

namespace {

Value JsonToCell(const json::Value& v) {
  switch (v.type()) {
    case json::Type::kNull:
      return Value::Null();
    case json::Type::kBool:
      return Value(v.as_bool());
    case json::Type::kInt:
      return Value(v.as_int());
    case json::Type::kDouble:
      return Value(v.as_double());
    case json::Type::kString:
      return Value(v.as_string());
    case json::Type::kArray:
    case json::Type::kObject:
      // Schema-on-read flattening: nested structures become JSON strings.
      return Value(json::Write(v));
  }
  return Value::Null();
}

}  // namespace

Result<Table> Table::FromJson(std::string name, const json::Value& doc) {
  if (!doc.is_array()) {
    return Status::InvalidArgument("Table::FromJson expects a JSON array");
  }
  // Pass 1: union of keys in first-seen order.
  std::vector<std::string> keys;
  for (const json::Value& row : doc.as_array()) {
    if (!row.is_object()) {
      return Status::InvalidArgument(
          "Table::FromJson expects an array of objects");
    }
    for (const auto& [k, v] : row.as_object().entries()) {
      bool seen = false;
      for (const auto& existing : keys) {
        if (existing == k) {
          seen = true;
          break;
        }
      }
      if (!seen) keys.push_back(k);
    }
  }
  // Pass 2: cells column-wise, then widen each column's type over its
  // cells and coerce them to it.
  Table t(std::move(name), Schema());
  t.columns_.resize(keys.size());
  for (const json::Value& row : doc.as_array()) {
    for (size_t c = 0; c < keys.size(); ++c) {
      const json::Value* v = row.Get(keys[c]);
      t.columns_[c].push_back(v == nullptr ? Value::Null() : JsonToCell(*v));
    }
  }
  for (size_t c = 0; c < keys.size(); ++c) {
    DataType type = DataType::kNull;
    for (const Value& v : t.columns_[c]) type = WidenType(type, v.type());
    if (type == DataType::kNull) type = DataType::kString;
    for (Value& v : t.columns_[c]) v = CoerceValue(std::move(v), type);
    t.schema_.AddField(Field{keys[c], type, /*nullable=*/true});
  }
  t.num_rows_ = doc.as_array().size();
  return t;
}

json::Value Table::ToJson() const {
  json::Array rows;
  rows.reserve(num_rows_);
  for (size_t r = 0; r < num_rows_; ++r) {
    json::Object obj;
    for (size_t c = 0; c < num_columns(); ++c) {
      const Value& v = columns_[c][r];
      switch (v.type()) {
        case DataType::kNull:
          obj.Set(schema_.field(c).name, json::Value(nullptr));
          break;
        case DataType::kBool:
          obj.Set(schema_.field(c).name, json::Value(v.as_bool()));
          break;
        case DataType::kInt64:
          obj.Set(schema_.field(c).name, json::Value(v.as_int()));
          break;
        case DataType::kDouble:
          obj.Set(schema_.field(c).name, json::Value(v.as_double()));
          break;
        case DataType::kString:
          obj.Set(schema_.field(c).name, json::Value(v.as_string()));
          break;
      }
    }
    rows.emplace_back(std::move(obj));
  }
  return json::Value(std::move(rows));
}

bool Table::operator==(const Table& other) const {
  return schema_ == other.schema_ && columns_ == other.columns_;
}

size_t EstimateTableBytes(const Table& t) {
  size_t bytes = sizeof(Table) + t.name().capacity();
  for (size_t col = 0; col < t.num_columns(); ++col) {
    const std::vector<Value>& cells = t.column(col);
    bytes += cells.capacity() * sizeof(Value);
    if (t.schema().field(col).type != DataType::kString) continue;
    for (const Value& v : cells) {
      if (const std::string* s = v.get_string()) bytes += s->capacity();
    }
  }
  return bytes;
}

}  // namespace lakekit::table
