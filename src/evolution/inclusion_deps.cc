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

  // Distinct counts for the min_distinct filter.
  auto distinct_count = [](const table::Table& t, size_t col) {
    std::unordered_set<std::string> values;
    for (const table::Value& v : t.column(col)) {
      if (!v.is_null()) values.insert(v.ToString());
    }
    return values.size();
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
        if (distinct_count(tables[a], ca) < options.min_distinct) continue;
        for (size_t cb = 0; cb < tables[b].num_columns(); ++cb) {
          if (distinct_count(tables[b], cb) < options.min_distinct) continue;
          if (HoldsInclusion(tables[a], {ca}, tables[b], {cb})) {
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
