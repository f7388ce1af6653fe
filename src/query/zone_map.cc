#include "query/zone_map.h"

#include <cmath>
#include <type_traits>

namespace lakekit::query {

using table::Table;
using table::Value;

namespace {

/// Stats of rows [begin, end) of a bool, int64 or double column, read
/// through the cell rule's getter. Bounds compare as T, not through the
/// rule's Less: they are statistics, exact for int64 where the rule
/// compares through double, and an exact bound rounds to the double the
/// rule would have kept, so it bounds the chunk under the rule and under
/// Value's order alike. A NaN compares false both ways, as under Value's
/// order, and marks the chunk unordered.
template <typename Rule>
void ScanChunk(const std::vector<Value>& cells, size_t begin, size_t end,
               ZoneStats& zs) {
  using T = typename Rule::Payload;
  T lo{};
  T hi{};
  for (size_t r = begin; r < end; ++r) {
    const T* v = Rule::Get(cells[r]);
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
    const std::string* v = CellRule<std::string_view>::Get(cells[r]);
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
      VisitCellRule(type, [&](auto rule) {
        using Rule = decltype(rule);
        if constexpr (std::is_same_v<typename Rule::Payload,
                                     std::string_view>) {
          ScanStringChunk(cells, begin, end, zs);
        } else {
          ScanChunk<Rule>(cells, begin, end, zs);
        }
      });
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
