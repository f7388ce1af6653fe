#include "enrich/rfd.h"

#include <map>
#include <unordered_map>

#include "ingest/profiler.h"
#include "table/row_key.h"

namespace lakekit::enrich {

namespace {

/// LHS columns with uniqueness above this are skipped: keys trivially
/// determine everything.
constexpr double kMaxLhsUniqueness = 0.99;

RelaxedFd Evaluate(const table::Table& t, const std::vector<size_t>& lhs_cols,
                   size_t rhs_col) {
  RelaxedFd fd;
  for (size_t c : lhs_cols) fd.lhs.push_back(t.schema().field(c).name);
  fd.rhs = t.schema().field(rhs_col).name;

  // Group rows by the rendered LHS key; find per-group majority RHS value.
  // The RHS tally is ordered by rendering (NULL first), which breaks ties.
  std::unordered_map<std::string, std::map<std::string, std::vector<size_t>>>
      groups;  // lhs key -> rhs key -> rows
  for (size_t r = 0; r < t.num_rows(); ++r) {
    std::string rhs_key;
    table::AppendRenderedKey(t.at(r, rhs_col), &rhs_key);
    groups[table::RenderedRowKey(t, lhs_cols, r)][rhs_key].push_back(r);
  }
  size_t consistent = 0;
  for (const auto& [key, rhs_counts] : groups) {
    // Majority RHS value in this group.
    size_t best = 0;
    const std::vector<size_t>* best_rows = nullptr;
    for (const auto& [rhs_value, rows] : rhs_counts) {
      if (rows.size() > best) {
        best = rows.size();
        best_rows = &rows;
      }
    }
    consistent += best;
    for (const auto& [rhs_value, rows] : rhs_counts) {
      if (&rows == best_rows) continue;
      for (size_t r : rows) fd.violating_rows.push_back(r);
    }
  }
  fd.confidence = t.num_rows() == 0
                      ? 1.0
                      : static_cast<double>(consistent) /
                            static_cast<double>(t.num_rows());
  std::sort(fd.violating_rows.begin(), fd.violating_rows.end());
  return fd;
}

}  // namespace

RelaxedFd EvaluateFd(const table::Table& t,
                     const std::vector<std::string>& lhs,
                     const std::string& rhs) {
  std::vector<size_t> lhs_cols;
  for (const std::string& name : lhs) {
    auto idx = t.schema().IndexOf(name);
    if (idx) lhs_cols.push_back(*idx);
  }
  auto rhs_idx = t.schema().IndexOf(rhs);
  if (lhs_cols.size() != lhs.size() || !rhs_idx) {
    RelaxedFd empty;
    empty.lhs = lhs;
    empty.rhs = rhs;
    return empty;
  }
  return Evaluate(t, lhs_cols, *rhs_idx);
}

std::vector<RelaxedFd> DiscoverRelaxedFds(const table::Table& t,
                                          const RfdOptions& options) {
  std::vector<RelaxedFd> out;
  const size_t n = t.num_columns();

  // Column uniqueness for key pruning.
  std::vector<double> uniqueness(n);
  for (size_t c = 0; c < n; ++c) {
    uniqueness[c] =
        ingest::Profiler::ProfileColumn(t.schema().field(c).name, t.column(c))
            .uniqueness();
  }

  // Level 1: single-attribute LHS.
  std::vector<std::vector<bool>> holds_single(n, std::vector<bool>(n, false));
  for (size_t x = 0; x < n; ++x) {
    if (uniqueness[x] > kMaxLhsUniqueness) continue;
    for (size_t y = 0; y < n; ++y) {
      if (x == y) continue;
      RelaxedFd fd = Evaluate(t, {x}, y);
      if (fd.confidence >= options.min_confidence) {
        holds_single[x][y] = true;
        out.push_back(std::move(fd));
      }
    }
  }

  // Level 2: pair LHS, pruned by minimality (skip when either single side
  // already determines y).
  for (size_t x1 = 0; x1 < n; ++x1) {
    if (uniqueness[x1] > kMaxLhsUniqueness) continue;
    for (size_t x2 = x1 + 1; x2 < n; ++x2) {
      if (uniqueness[x2] > kMaxLhsUniqueness) continue;
      for (size_t y = 0; y < n; ++y) {
        if (y == x1 || y == x2) continue;
        if (holds_single[x1][y] || holds_single[x2][y]) continue;
        RelaxedFd fd = Evaluate(t, {x1, x2}, y);
        if (fd.confidence >= options.min_confidence) {
          out.push_back(std::move(fd));
        }
      }
    }
  }
  return out;
}

}  // namespace lakekit::enrich
