#include "evolution/inclusion_deps.h"

#include <unordered_set>

#include "table/row_key.h"

namespace lakekit::evolution {

std::string InclusionDependency::ToString() const {
  std::string out = dependent_table + "[";
  for (size_t i = 0; i < dependent_columns.size(); ++i) {
    if (i > 0) out += ",";
    out += dependent_columns[i];
  }
  out += "] <= " + referenced_table + "[";
  for (size_t i = 0; i < referenced_columns.size(); ++i) {
    if (i > 0) out += ",";
    out += referenced_columns[i];
  }
  out += "]";
  return out;
}

bool HoldsInclusion(const table::Table& dependent,
                    const std::vector<size_t>& dep_cols,
                    const table::Table& referenced,
                    const std::vector<size_t>& ref_cols) {
  std::unordered_set<std::string> referenced_tuples;
  for (size_t r = 0; r < referenced.num_rows(); ++r) {
    referenced_tuples.insert(table::RenderedRowKey(referenced, ref_cols, r));
  }
  for (size_t r = 0; r < dependent.num_rows(); ++r) {
    const std::string key = table::RenderedRowKey(dependent, dep_cols, r);
    if (referenced_tuples.count(key) == 0) return false;
  }
  return dependent.num_rows() > 0;
}

std::vector<InclusionDependency> DiscoverInclusionDependencies(
    const std::vector<table::Table>& tables, const IndOptions& options) {
  std::vector<InclusionDependency> out;

  // Each column's rendered keys, built once: every unary check reads them,
  // and their count less the NULL key is the column's distinct count for
  // the min_distinct filter (a rendered key is injective on the rendering).
  struct ColumnKeys {
    std::unordered_set<std::string> keys;
    size_t distinct = 0;
  };
  std::vector<std::vector<ColumnKeys>> columns(tables.size());
  for (size_t t = 0; t < tables.size(); ++t) {
    columns[t].resize(tables[t].num_columns());
    for (size_t c = 0; c < tables[t].num_columns(); ++c) {
      ColumnKeys& col = columns[t][c];
      for (size_t r = 0; r < tables[t].num_rows(); ++r) {
        col.keys.insert(table::RenderedRowKey(tables[t], {c}, r));
      }
      col.distinct = col.keys.size() - col.keys.count(std::string(1, '\0'));
    }
  }
  // HoldsInclusion on one column each, over the prebuilt key sets.
  auto holds = [&](size_t a, size_t ca, size_t b, size_t cb) {
    const std::unordered_set<std::string>& dep = columns[a][ca].keys;
    const std::unordered_set<std::string>& ref = columns[b][cb].keys;
    if (tables[a].num_rows() == 0 || dep.size() > ref.size()) return false;
    for (const std::string& key : dep) {
      if (ref.count(key) == 0) return false;
    }
    return true;
  };

  // Unary INDs between all cross-table column pairs.
  struct Unary {
    size_t dep_table;
    size_t dep_col;
    size_t ref_table;
    size_t ref_col;
  };
  std::vector<Unary> unary;
  for (size_t a = 0; a < tables.size(); ++a) {
    for (size_t b = 0; b < tables.size(); ++b) {
      if (a == b) continue;
      for (size_t ca = 0; ca < tables[a].num_columns(); ++ca) {
        if (columns[a][ca].distinct < options.min_distinct) continue;
        for (size_t cb = 0; cb < tables[b].num_columns(); ++cb) {
          if (columns[b][cb].distinct < options.min_distinct) continue;
          if (holds(a, ca, b, cb)) {
            unary.push_back(Unary{a, ca, b, cb});
            out.push_back(InclusionDependency{
                tables[a].name(),
                {tables[a].schema().field(ca).name},
                tables[b].name(),
                {tables[b].schema().field(cb).name}});
          }
        }
      }
    }
  }

  // k-ary (k=2 here; higher arities extend the same candidate join): pair
  // two unary INDs over the same table pair with distinct columns, verify
  // on tuples.
  if (options.max_arity >= 2) {
    for (size_t i = 0; i < unary.size(); ++i) {
      for (size_t j = i + 1; j < unary.size(); ++j) {
        const Unary& u = unary[i];
        const Unary& v = unary[j];
        if (u.dep_table != v.dep_table || u.ref_table != v.ref_table) continue;
        if (u.dep_col == v.dep_col || u.ref_col == v.ref_col) continue;
        if (HoldsInclusion(tables[u.dep_table], {u.dep_col, v.dep_col},
                           tables[u.ref_table], {u.ref_col, v.ref_col})) {
          out.push_back(InclusionDependency{
              tables[u.dep_table].name(),
              {tables[u.dep_table].schema().field(u.dep_col).name,
               tables[u.dep_table].schema().field(v.dep_col).name},
              tables[u.ref_table].name(),
              {tables[u.ref_table].schema().field(u.ref_col).name,
               tables[u.ref_table].schema().field(v.ref_col).name}});
        }
      }
    }
  }
  return out;
}

}  // namespace lakekit::evolution
