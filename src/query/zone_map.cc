#include "query/zone_map.h"

#include <cmath>
#include <type_traits>

namespace lakekit::query {

using table::Table;
using table::Value;

namespace {

template <typename T>
const T* Get(const Value& v) {
  if constexpr (std::is_same_v<T, bool>) {
    return v.get_bool();
  } else if constexpr (std::is_same_v<T, int64_t>) {
    return v.get_int();
  } else {
    return v.get_double();
  }
}

/// Stats of rows [begin, end) of a bool, int64 or double column, compared
/// as T: exact for int64. A NaN compares false both ways, as under Value's
/// order, and marks the chunk unordered.
template <typename T>
void ScanChunk(const std::vector<Value>& cells, size_t begin, size_t end,
               ZoneStats& zs) {
  T lo{};
  T hi{};
  for (size_t r = begin; r < end; ++r) {
    const T* v = Get<T>(cells[r]);
    if (v == nullptr) {
      ++zs.null_count;
      continue;
    }
    if constexpr (std::is_same_v<T, double>) {
      if (std::isnan(*v)) zs.unordered = true;
    }
    if (!zs.has_values) {
      lo = *v;
      hi = *v;
      zs.has_values = true;
    } else {
      if (*v < lo) lo = *v;
      if (hi < *v) hi = *v;
    }
  }
  if (zs.has_values) {
    zs.min = Value(lo);
    zs.max = Value(hi);
  }
}

/// ScanChunk for a string column. A bound is copied from its cell each
/// time it moves, so it keeps the capacity those copies leave, which
/// memory_bytes charges.
void ScanStringChunk(const std::vector<Value>& cells, size_t begin,
                     size_t end, ZoneStats& zs) {
  const std::string* lo = nullptr;
  const std::string* hi = nullptr;
  for (size_t r = begin; r < end; ++r) {
    const std::string* v = cells[r].get_string();
    if (v == nullptr) {
      ++zs.null_count;
      continue;
    }
    if (lo == nullptr || *v < *lo) {
      lo = v;
      zs.min = cells[r];
    }
    if (hi == nullptr || *hi < *v) {
      hi = v;
      zs.max = cells[r];
    }
  }
  zs.has_values = lo != nullptr;
}

}  // namespace

ZoneMap ZoneMap::Build(const Table& t) {
  ZoneMap zm;
  zm.num_columns_ = t.num_columns();
  const size_t rows = t.num_rows();
  const size_t chunks = NumMorsels(rows);
  zm.stats_.resize(chunks * zm.num_columns_);
  // Column-at-a-time, each chunk scanned as its column's schema type: every
  // cell is NULL or of that type, so cells are read typed, never through
  // Value's cross-type order.
  for (size_t col = 0; col < zm.num_columns_; ++col) {
    const std::vector<Value>& cells = t.column(col);
    const table::DataType type = t.schema().field(col).type;
    for (size_t m = 0; m < chunks; ++m) {
      const size_t begin = m * kMorselSize;
      const size_t end = std::min(rows, begin + kMorselSize);
      ZoneStats& zs = zm.stats_[m * zm.num_columns_ + col];
      zs.row_count = end - begin;
      switch (type) {
        case table::DataType::kBool:
          ScanChunk<bool>(cells, begin, end, zs);
          break;
        case table::DataType::kInt64:
          ScanChunk<int64_t>(cells, begin, end, zs);
          break;
        case table::DataType::kDouble:
          ScanChunk<double>(cells, begin, end, zs);
          break;
        case table::DataType::kString:
          ScanStringChunk(cells, begin, end, zs);
          break;
        case table::DataType::kNull:
          zs.null_count = zs.row_count;
          break;
      }
    }
  }
  return zm;
}

namespace {

size_t ValueBytes(const Value& v) {
  size_t bytes = sizeof(Value);
  if (const std::string* s = v.get_string()) bytes += s->capacity();
  return bytes;
}

}  // namespace

size_t ZoneMap::memory_bytes() const {
  size_t bytes = sizeof(ZoneMap) + stats_.capacity() * sizeof(ZoneStats);
  for (const ZoneStats& zs : stats_) {
    if (zs.has_values) {
      bytes += ValueBytes(zs.min) + ValueBytes(zs.max) - 2 * sizeof(Value);
    }
  }
  return bytes;
}

}  // namespace lakekit::query
