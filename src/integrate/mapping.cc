#include "integrate/mapping.h"

#include <numeric>

#include "integrate/schema_match.h"

namespace lakekit::integrate {

namespace {

/// Union-find over (source, column) slots.
class UnionFind {
 public:
  explicit UnionFind(size_t n) : parent_(n) {
    std::iota(parent_.begin(), parent_.end(), 0);
  }
  size_t Find(size_t x) {
    while (parent_[x] != x) {
      parent_[x] = parent_[parent_[x]];
      x = parent_[x];
    }
    return x;
  }
  void Union(size_t a, size_t b) { parent_[Find(a)] = Find(b); }

 private:
  std::vector<size_t> parent_;
};

}  // namespace

Result<IntegrationResult> IntegrateSchemas(
    const std::vector<table::Table>& sources) {
  if (sources.empty()) {
    return Status::InvalidArgument("no sources to integrate");
  }
  // Global slot numbering across sources.
  std::vector<size_t> slot_offset(sources.size());
  size_t total_slots = 0;
  for (size_t s = 0; s < sources.size(); ++s) {
    slot_offset[s] = total_slots;
    total_slots += sources[s].num_columns();
  }
  UnionFind uf(total_slots);
  const SchemaMatcher matcher;

  // Pairwise matching; union matched slots (transitively merges columns
  // matched through intermediaries).
  for (size_t a = 0; a < sources.size(); ++a) {
    for (size_t b = a + 1; b < sources.size(); ++b) {
      for (const AttributeMatch& m : matcher.Match(sources[a], sources[b])) {
        uf.Union(slot_offset[a] + m.left_col, slot_offset[b] + m.right_col);
      }
    }
  }

  // One integrated attribute per union-find root, named and typed by the
  // earliest slot in the group.
  IntegrationResult result;
  std::map<size_t, size_t> integrated_of_root;  // root slot -> column index
  for (size_t s = 0; s < sources.size(); ++s) {
    SchemaMapping mapping;
    mapping.source_table = sources[s].name();
    for (size_t c = 0; c < sources[s].num_columns(); ++c) {
      size_t root = uf.Find(slot_offset[s] + c);
      auto it = integrated_of_root.find(root);
      size_t integrated_col;
      if (it == integrated_of_root.end()) {
        integrated_col = result.integrated.num_fields();
        integrated_of_root[root] = integrated_col;
        result.integrated.AddField(sources[s].schema().field(c));
      } else {
        integrated_col = it->second;
        // Type widening on conflict.
        const table::DataType merged =
            result.integrated.field(integrated_col).type;
        const table::DataType type =
            table::WidenType(merged, sources[s].schema().field(c).type);
        if (type != merged) {
          table::Schema widened;
          for (size_t f = 0; f < result.integrated.num_fields(); ++f) {
            table::Field field = result.integrated.field(f);
            if (f == integrated_col) field.type = type;
            widened.AddField(field);
          }
          result.integrated = widened;
        }
      }
      mapping.column_map[c] = integrated_col;
    }
    result.mappings.push_back(std::move(mapping));
  }
  return result;
}

Result<table::Table> ApplyMappings(const std::vector<table::Table>& sources,
                                   const IntegrationResult& integration,
                                   std::string result_name) {
  if (sources.size() != integration.mappings.size()) {
    return Status::InvalidArgument(
        "source count does not match mapping count");
  }
  table::Table out(std::move(result_name), integration.integrated);
  for (size_t s = 0; s < sources.size(); ++s) {
    const SchemaMapping& mapping = integration.mappings[s];
    for (size_t r = 0; r < sources[s].num_rows(); ++r) {
      std::vector<table::Value> row(integration.integrated.num_fields(),
                                    table::Value::Null());
      for (const auto& [src_col, dst_col] : mapping.column_map) {
        row[dst_col] =
            table::CoerceValue(sources[s].at(r, src_col),
                               integration.integrated.field(dst_col).type);
      }
      LAKEKIT_RETURN_IF_ERROR(out.AppendRow(std::move(row)));
    }
  }
  return out;
}

}  // namespace lakekit::integrate
