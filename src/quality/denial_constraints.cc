#include "quality/denial_constraints.h"

#include <algorithm>
#include <map>
#include <unordered_map>

#include "table/row_key.h"

namespace lakekit::quality {

bool ApplyOp(Op op, const table::Value& a, const table::Value& b) {
  switch (op) {
    case Op::kEq:
      return a == b;
    case Op::kNe:
      return !(a == b);
    case Op::kLt:
      return a < b;
    case Op::kLe:
      return a <= b;
    case Op::kGt:
      return a > b;
    case Op::kGe:
      return a >= b;
  }
  return false;
}

DenialConstraint DenialConstraint::FromFd(const enrich::RelaxedFd& fd) {
  DenialConstraint dc;
  for (const std::string& lhs : fd.lhs) {
    dc.predicates.push_back(PairPredicate{lhs, Op::kEq, lhs});
  }
  dc.predicates.push_back(PairPredicate{fd.rhs, Op::kNe, fd.rhs});
  std::string lhs_names;
  for (const std::string& l : fd.lhs) {
    if (!lhs_names.empty()) lhs_names += ",";
    lhs_names += l;
  }
  dc.description = "fd(" + lhs_names + " -> " + fd.rhs + ")";
  return dc;
}

std::vector<std::pair<size_t, size_t>> ConstraintChecker::FindViolatingPairs(
    const table::Table& t, const DenialConstraint& dc, size_t max_pairs) {
  std::vector<std::pair<size_t, size_t>> out;
  // Resolve columns once.
  struct Resolved {
    size_t left;
    Op op;
    size_t right;
  };
  std::vector<Resolved> predicates;
  for (const PairPredicate& p : dc.predicates) {
    auto left = t.schema().IndexOf(p.left_column);
    auto right = t.schema().IndexOf(p.right_column);
    if (!left || !right) return out;  // constraint on unknown columns
    predicates.push_back(Resolved{*left, p.op, *right});
  }
  // Equality predicates partition rows: group by the equality key to avoid
  // full O(n^2) when possible.
  std::vector<size_t> eq_cols;
  for (const Resolved& p : predicates) {
    if (p.op == Op::kEq && p.left == p.right) eq_cols.push_back(p.left);
  }
  auto check_pair = [&](size_t i, size_t j) {
    for (const Resolved& p : predicates) {
      if (!ApplyOp(p.op, t.at(i, p.left), t.at(j, p.right))) return false;
    }
    return true;
  };
  if (!eq_cols.empty()) {
    // Grouped by Value's rule, the one check_pair applies, so rows it
    // pairs always share a group (0.0 with -0.0, 1 never with "1").
    // Groups are visited in first-seen order.
    std::unordered_map<table::GroupKey, size_t, table::GroupKeyHash> index;
    std::vector<std::vector<size_t>> groups;
    for (size_t r = 0; r < t.num_rows(); ++r) {
      table::GroupKey key;
      for (size_t c : eq_cols) key.Add(t.at(r, c));
      const auto [it, inserted] =
          index.try_emplace(std::move(key), groups.size());
      if (inserted) groups.emplace_back();
      groups[it->second].push_back(r);
    }
    for (const std::vector<size_t>& rows : groups) {
      for (size_t a = 0; a < rows.size() && out.size() < max_pairs; ++a) {
        for (size_t b = a + 1; b < rows.size() && out.size() < max_pairs;
             ++b) {
          if (check_pair(rows[a], rows[b])) out.emplace_back(rows[a], rows[b]);
        }
      }
    }
  } else {
    for (size_t i = 0; i < t.num_rows() && out.size() < max_pairs; ++i) {
      for (size_t j = i + 1; j < t.num_rows() && out.size() < max_pairs;
           ++j) {
        if (check_pair(i, j)) out.emplace_back(i, j);
      }
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<DirtyTuple> ConstraintChecker::RankDirtyTuples(
    const table::Table& t, const std::vector<DenialConstraint>& constraints) {
  // Violation hypergraph: each violating pair adds one violation edge
  // incident to both rows.
  std::map<size_t, size_t> counts;
  for (const DenialConstraint& dc : constraints) {
    for (const auto& [i, j] : FindViolatingPairs(t, dc)) {
      ++counts[i];
      ++counts[j];
    }
  }
  std::vector<DirtyTuple> out;
  out.reserve(counts.size());
  for (const auto& [row, count] : counts) {
    out.push_back(DirtyTuple{row, count});
  }
  std::sort(out.begin(), out.end(), [](const DirtyTuple& a, const DirtyTuple& b) {
    if (a.violation_count != b.violation_count) {
      return a.violation_count > b.violation_count;
    }
    return a.row < b.row;
  });
  return out;
}

std::vector<DirtyTuple> ConstraintChecker::InferAndRank(
    const table::Table& t) {
  std::vector<DenialConstraint> constraints;
  for (const enrich::RelaxedFd& fd : enrich::DiscoverRelaxedFds(t)) {
    constraints.push_back(DenialConstraint::FromFd(fd));
  }
  return RankDirtyTuples(t, constraints);
}

}  // namespace lakekit::quality
