#ifndef LAKEKIT_TABLE_VALUE_H_
#define LAKEKIT_TABLE_VALUE_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <type_traits>
#include <variant>

namespace lakekit::table {

/// Logical column type of the relational layer.
enum class DataType { kNull, kBool, kInt64, kDouble, kString };

/// Stable name for a DataType ("int64", "string", ...).
std::string_view DataTypeName(DataType type);

/// Parses a DataType name produced by DataTypeName.
DataType DataTypeFromName(std::string_view name);

/// A single relational cell: NULL, bool, int64, double, or string.
///
/// Values are ordered (NULL sorts first, then by type, then by value) and
/// hashable so they can key hash joins and group-bys.
class Value {
 public:
  Value() : data_(std::monostate{}) {}
  Value(bool b) : data_(b) {}                         // NOLINT
  Value(int64_t i) : data_(i) {}                      // NOLINT
  Value(int i) : data_(static_cast<int64_t>(i)) {}    // NOLINT
  Value(double d) : data_(d) {}                       // NOLINT
  Value(std::string s) : data_(std::move(s)) {}       // NOLINT
  Value(const char* s) : data_(std::string(s)) {}     // NOLINT
  Value(std::string_view s) : data_(std::string(s)) {}  // NOLINT

  static Value Null() { return Value(); }

  bool is_null() const { return std::holds_alternative<std::monostate>(data_); }
  bool is_bool() const { return std::holds_alternative<bool>(data_); }
  bool is_int() const { return std::holds_alternative<int64_t>(data_); }
  bool is_double() const { return std::holds_alternative<double>(data_); }
  bool is_string() const { return std::holds_alternative<std::string>(data_); }
  bool is_numeric() const { return is_int() || is_double(); }

  /// The variant's alternatives are declared in DataType order (checked
  /// by the static_asserts next to data_).
  DataType type() const { return static_cast<DataType>(data_.index()); }

  bool as_bool() const { return std::get<bool>(data_); }
  int64_t as_int() const { return std::get<int64_t>(data_); }
  /// Numeric widening accessor: int64 and double both convert.
  double as_double() const {
    return is_int() ? static_cast<double>(as_int()) : std::get<double>(data_);
  }
  const std::string& as_string() const { return std::get<std::string>(data_); }

  /// Non-throwing typed accessors (nullptr on type mismatch): one variant
  /// index load instead of a holds_alternative check followed by a checked
  /// std::get. These are what batch lane builders use per cell.
  const bool* get_bool() const { return std::get_if<bool>(&data_); }
  const int64_t* get_int() const { return std::get_if<int64_t>(&data_); }
  const double* get_double() const { return std::get_if<double>(&data_); }
  const std::string* get_string() const {
    return std::get_if<std::string>(&data_);
  }

  /// Renders the value for CSV/debug output. NULL renders as "".
  std::string ToString() const;

  /// `ToString()`'s text without copying a string cell: its own bytes, or
  /// any other cell rendered into `*buffer`, which callers reuse across
  /// cells. Valid until this value or `*buffer` changes.
  std::string_view Render(std::string* buffer) const {
    if (const std::string* s = get_string()) return *s;
    return *buffer = ToString();
  }

  /// Total order: NULL < bool < numeric < string; numerics compare by value
  /// across int64/double.
  bool operator==(const Value& other) const;
  bool operator<(const Value& other) const;
  bool operator!=(const Value& other) const { return !(*this == other); }
  bool operator<=(const Value& other) const { return !(other < *this); }
  bool operator>(const Value& other) const { return other < *this; }
  bool operator>=(const Value& other) const { return !(*this < other); }

  /// Stable 64-bit hash, consistent with operator== (numerics hash by
  /// double value).
  uint64_t Hash() const;

 private:
  using Data = std::variant<std::monostate, bool, int64_t, double, std::string>;

  /// The alternative of Data that holds a cell of `type`.
  template <DataType type>
  using Alternative =
      std::variant_alternative_t<static_cast<size_t>(type), Data>;

  // type() casts the variant index to a DataType, so the alternatives must
  // stay in DataType order.
  static_assert(std::is_same_v<Alternative<DataType::kNull>, std::monostate>);
  static_assert(std::is_same_v<Alternative<DataType::kBool>, bool>);
  static_assert(std::is_same_v<Alternative<DataType::kInt64>, int64_t>);
  static_assert(std::is_same_v<Alternative<DataType::kDouble>, double>);
  static_assert(std::is_same_v<Alternative<DataType::kString>, std::string>);

  Data data_;
};

/// Hash functor for unordered containers keyed by Value.
struct ValueHash {
  size_t operator()(const Value& v) const { return static_cast<size_t>(v.Hash()); }
};

}  // namespace lakekit::table

#endif  // LAKEKIT_TABLE_VALUE_H_
