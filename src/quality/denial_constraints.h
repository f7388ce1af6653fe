#ifndef LAKEKIT_QUALITY_DENIAL_CONSTRAINTS_H_
#define LAKEKIT_QUALITY_DENIAL_CONSTRAINTS_H_

#include <string>
#include <vector>

#include "enrich/rfd.h"
#include "table/table.h"

namespace lakekit::quality {

/// Comparison operators of denial-constraint predicates.
enum class Op { kEq, kNe, kLt, kLe, kGt, kGe };

bool ApplyOp(Op op, const table::Value& a, const table::Value& b);

/// One predicate over a tuple pair (t1, t2): t1.left <op> t2.right.
struct PairPredicate {
  std::string left_column;
  Op op = Op::kEq;
  std::string right_column;
};

/// A denial constraint: no tuple pair may satisfy ALL predicates
/// simultaneously (CLAMS' conditional denial constraints, survey
/// Sec. 6.5.1). The FD city -> zip becomes
/// ¬(t1.city = t2.city ∧ t1.zip ≠ t2.zip).
struct DenialConstraint {
  std::vector<PairPredicate> predicates;
  std::string description;

  /// Derives the denial form of a (relaxed) functional dependency.
  static DenialConstraint FromFd(const enrich::RelaxedFd& fd);
};

/// One tuple ranked by how many constraints it participates in violating —
/// CLAMS' violation-hypergraph ranking that drives which tuples a user is
/// asked to validate first.
struct DirtyTuple {
  size_t row = 0;
  size_t violation_count = 0;
};

/// Checks denial constraints against a table.
class ConstraintChecker {
 public:
  /// All tuple pairs (i < j) violating `dc`. O(n^2) verification, bounded
  /// by `max_pairs` reported violations.
  static std::vector<std::pair<size_t, size_t>> FindViolatingPairs(
      const table::Table& t, const DenialConstraint& dc,
      size_t max_pairs = 100000);

  /// CLAMS pipeline: evaluates every constraint, builds the row-violation
  /// hypergraph, and ranks rows by violation participation (descending).
  static std::vector<DirtyTuple> RankDirtyTuples(
      const table::Table& t, const std::vector<DenialConstraint>& constraints);

  /// End-to-end CLAMS-style inference: discovers relaxed FDs in the table,
  /// converts them to denial constraints, and ranks the violating tuples —
  /// the candidates a user is asked to confirm for removal.
  static std::vector<DirtyTuple> InferAndRank(const table::Table& t);
};

}  // namespace lakekit::quality

#endif  // LAKEKIT_QUALITY_DENIAL_CONSTRAINTS_H_
