#ifndef LAKEKIT_ENRICH_RFD_H_
#define LAKEKIT_ENRICH_RFD_H_

#include <string>
#include <vector>

#include "table/table.h"

namespace lakekit::enrich {

/// A discovered relaxed functional dependency lhs -> rhs holding on at
/// least `confidence` of the tuples (Constance's RFD discovery, survey
/// Sec. 6.4.2): dependencies that survive a controlled fraction of
/// inconsistent tuples in raw lake data.
struct RelaxedFd {
  std::vector<std::string> lhs;
  std::string rhs;
  /// Fraction of rows consistent with the dependency (per-LHS-group
  /// majority).
  double confidence = 0;
  /// Rows violating the majority mapping.
  std::vector<size_t> violating_rows;
};

struct RfdOptions {
  /// Minimum confidence for a dependency to be reported.
  double min_confidence = 0.9;
};

/// Discovers relaxed FDs in one table: for every candidate LHS, rows group
/// by LHS value; the majority RHS value per group defines the dependency;
/// confidence = consistent rows / rows. Violating row indexes are recorded
/// for the data-cleaning tier (Sec. 6.5 uses them as error candidates).
/// Candidate LHS are single columns and column pairs (levels 1 and 2 of the
/// lattice); a single that already satisfies min_confidence prunes its
/// supersets (minimality), and near-key columns never appear on the LHS.
std::vector<RelaxedFd> DiscoverRelaxedFds(const table::Table& t,
                                          const RfdOptions& options = {});

/// Confidence of a specific lhs -> rhs dependency, with violating rows.
RelaxedFd EvaluateFd(const table::Table& t,
                     const std::vector<std::string>& lhs,
                     const std::string& rhs);

}  // namespace lakekit::enrich

#endif  // LAKEKIT_ENRICH_RFD_H_
