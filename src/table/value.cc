#include "table/value.h"

#include <array>
#include <charconv>
#include <cmath>

#include "common/hash.h"

namespace lakekit::table {

std::string_view DataTypeName(DataType type) {
  switch (type) {
    case DataType::kNull:
      return "null";
    case DataType::kBool:
      return "bool";
    case DataType::kInt64:
      return "int64";
    case DataType::kDouble:
      return "double";
    case DataType::kString:
      return "string";
  }
  return "unknown";
}

DataType DataTypeFromName(std::string_view name) {
  if (name == "bool") return DataType::kBool;
  if (name == "int64") return DataType::kInt64;
  if (name == "double") return DataType::kDouble;
  if (name == "string") return DataType::kString;
  return DataType::kNull;
}

std::string Value::ToString() const {
  switch (type()) {
    case DataType::kNull:
      return "";
    case DataType::kBool:
      return as_bool() ? "true" : "false";
    case DataType::kInt64:
      return std::to_string(as_int());
    case DataType::kDouble: {
      std::array<char, 32> buf;
      auto [ptr, ec] =
          std::to_chars(buf.data(), buf.data() + buf.size(), as_double());
      return std::string(buf.data(), ptr);
    }
    case DataType::kString:
      return as_string();
  }
  return "";
}

namespace {
/// Order rank for the cross-type total order.
int TypeRank(const Value& v) {
  switch (v.type()) {
    case DataType::kNull:
      return 0;
    case DataType::kBool:
      return 1;
    case DataType::kInt64:
    case DataType::kDouble:
      return 2;  // Numerics compare with each other.
    case DataType::kString:
      return 3;
  }
  return 4;
}
}  // namespace

bool Value::operator==(const Value& other) const {
  if (is_numeric() && other.is_numeric()) {
    return as_double() == other.as_double();
  }
  return data_ == other.data_;
}

bool Value::operator<(const Value& other) const {
  int ra = TypeRank(*this);
  int rb = TypeRank(other);
  if (ra != rb) return ra < rb;
  switch (type()) {
    case DataType::kNull:
      return false;
    case DataType::kBool:
      return !as_bool() && other.as_bool();
    case DataType::kInt64:
    case DataType::kDouble:
      return as_double() < other.as_double();
    case DataType::kString:
      return as_string() < other.as_string();
  }
  return false;
}

uint64_t Value::Hash() const {
  switch (type()) {
    case DataType::kNull:
      return 0x6e756c6cULL;
    case DataType::kBool:
      return as_bool() ? 0x74727565ULL : 0x66616c73ULL;
    case DataType::kInt64:
    case DataType::kDouble: {
      double d = as_double();
      if (d == 0.0) d = 0.0;  // Normalize -0.0.
      uint64_t bits;
      static_assert(sizeof(bits) == sizeof(d));
      __builtin_memcpy(&bits, &d, sizeof(bits));
      return Mix64(bits ^ 0x6e756d62ULL);
    }
    case DataType::kString:
      return Fnv1a64(as_string());
  }
  return 0;
}

}  // namespace lakekit::table
