#ifndef LAKEKIT_TABLE_ROW_KEY_H_
#define LAKEKIT_TABLE_ROW_KEY_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/hash.h"
#include "table/table.h"
#include "table/value.h"

namespace lakekit::table {

/// Two ways to key a tuple of cells.
///
/// A `GroupKey` follows `Value`'s rule: two keys are equal when their cells
/// are elementwise `Value::operator==` (so 0.0 equals -0.0, NULL equals
/// NULL, and Value(1) differs from Value("1")). Group-by, the query
/// engine's cross-morsel merge and the denial-constraint checker key on it.
struct GroupKey {
  std::vector<Value> values;
  /// `Value::Hash` of the cells, combined in order: equal keys hash equal.
  uint64_t hash = 0xa99ec0de5eedULL;

  void Add(const Value& v) {
    hash = HashCombine(hash, v.Hash());
    values.push_back(v);
  }

  bool operator==(const GroupKey& other) const {
    return hash == other.hash && values == other.values;
  }
};

struct GroupKeyHash {
  size_t operator()(const GroupKey& k) const {
    return static_cast<size_t>(k.hash);
  }
};

/// A rendered key follows the cells' `ToString()` spelling instead, so an
/// int64 5 and a string "5" key alike (an int64 column can be included in
/// a string column). It is self-delimiting, so no two tuples share a key:
/// a NULL is one 0x00 byte, and any other cell is 0x01, its rendering with
/// each 0x00 byte written 0x00 0xff, then 0x00 0x01. Byte order of two
/// keys of one cell is NULL first, then the renderings' byte order.
void AppendRenderedKey(const Value& v, std::string* key);

/// The rendered key of row `row`'s cells in columns `cols`, in order.
std::string RenderedRowKey(const Table& t, const std::vector<size_t>& cols,
                           size_t row);

}  // namespace lakekit::table

#endif  // LAKEKIT_TABLE_ROW_KEY_H_
