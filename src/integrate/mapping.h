#ifndef LAKEKIT_INTEGRATE_MAPPING_H_
#define LAKEKIT_INTEGRATE_MAPPING_H_

#include <map>
#include <string>
#include <vector>

#include "common/result.h"
#include "integrate/schema_match.h"
#include "table/table.h"

namespace lakekit::integrate {

/// A schema mapping from one source table into the integrated schema:
/// source column index -> integrated column index (Constance's
/// source-to-target mappings, survey Sec. 6.3).
struct SchemaMapping {
  std::string source_table;
  std::map<size_t, size_t> column_map;
};

/// The result of schema integration: a merged schema plus one mapping per
/// source.
struct IntegrationResult {
  table::Schema integrated;
  std::vector<SchemaMapping> mappings;
};

/// Integrates the schemas of `sources`: matched columns (transitively, via
/// union-find over pairwise matches) collapse into one integrated
/// attribute; unmatched columns are carried over verbatim. Integrated
/// attribute names take the first source's spelling; types widen on
/// conflict by the table widening rule (`table::WidenType`).
Result<IntegrationResult> IntegrateSchemas(
    const std::vector<table::Table>& sources,
    const SchemaMatcher& matcher = SchemaMatcher());

/// Materializes the integrated table: every source row is mapped into the
/// integrated schema (missing attributes become NULL) — the outer-union
/// semantics Constance uses before conflict resolution.
Result<table::Table> ApplyMappings(const std::vector<table::Table>& sources,
                                   const IntegrationResult& integration,
                                   std::string result_name = "integrated");

}  // namespace lakekit::integrate

#endif  // LAKEKIT_INTEGRATE_MAPPING_H_
