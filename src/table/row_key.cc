#include "table/row_key.h"

namespace lakekit::table {

void AppendRenderedKey(const Value& v, std::string* key) {
  if (v.is_null()) {
    key->push_back('\x00');
    return;
  }
  key->push_back('\x01');
  for (const char c : v.ToString()) {
    key->push_back(c);
    if (c == '\x00') key->push_back('\xff');
  }
  key->append("\x00\x01", 2);
}

std::string RenderedRowKey(const Table& t, const std::vector<size_t>& cols,
                           size_t row) {
  std::string key;
  for (const size_t c : cols) AppendRenderedKey(t.at(row, c), &key);
  return key;
}

}  // namespace lakekit::table
