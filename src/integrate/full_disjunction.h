#ifndef LAKEKIT_INTEGRATE_FULL_DISJUNCTION_H_
#define LAKEKIT_INTEGRATE_FULL_DISJUNCTION_H_

#include <vector>

#include "common/result.h"
#include "integrate/mapping.h"
#include "table/table.h"

namespace lakekit::integrate {

struct FullDisjunctionOptions {
  /// Safety bound on intermediate tuples.
  size_t max_tuples = 200000;
};

/// ALITE-style integration of related lake tables (survey Sec. 6.3):
/// given tables whose columns have been aligned into one integrated schema,
/// computes the *Full Disjunction* — the maximal natural-outer-join
/// association of tuples across all tables. Two padded tuples combine when
/// they agree on every attribute where both are non-null and share at
/// least one non-null attribute; the result keeps only unsubsumed tuples
/// (a tuple is subsumed when another tuple equals it on all its non-null
/// attributes and is defined on more).
///
/// The alignment step (ALITE's embedding-based holistic matching) is
/// provided by IntegrateSchemas; pass its result here.
Result<table::Table> FullDisjunction(
    const std::vector<table::Table>& sources,
    const IntegrationResult& integration,
    const FullDisjunctionOptions& options = {});

/// Convenience: integrate + full-disjoin in one call.
Result<table::Table> IntegrateTables(const std::vector<table::Table>& sources,
                                     const SchemaMatcher& matcher = SchemaMatcher(),
                                     const FullDisjunctionOptions& options = {});

}  // namespace lakekit::integrate

#endif  // LAKEKIT_INTEGRATE_FULL_DISJUNCTION_H_
