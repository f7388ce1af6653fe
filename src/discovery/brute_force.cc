#include "discovery/brute_force.h"

namespace lakekit::discovery {

std::vector<ColumnMatch> BruteForceFinder::TopKJoinableColumns(
    ColumnId query, size_t k) const {
  const ColumnSketch& q = corpus_->sketch(query);
  std::vector<ColumnMatch> matches;
  for (const ColumnSketch& s : corpus_->sketches()) {
    if (s.id.table_idx == query.table_idx) continue;
    double j = ExactJaccard(q, s);
    if (j > 0) matches.push_back(ColumnMatch{s.id, j});
  }
  SortAndTruncate(&matches, k);
  return matches;
}

std::vector<ColumnMatch> BruteForceFinder::TopKOverlapColumns(
    ColumnId query, size_t k) const {
  const ColumnSketch& q = corpus_->sketch(query);
  std::vector<ColumnMatch> matches;
  for (const ColumnSketch& s : corpus_->sketches()) {
    if (s.id.table_idx == query.table_idx) continue;
    size_t overlap = ExactOverlap(q, s);
    if (overlap > 0) {
      matches.push_back(ColumnMatch{s.id, static_cast<double>(overlap)});
    }
  }
  SortAndTruncate(&matches, k);
  return matches;
}

std::vector<std::pair<ColumnId, ColumnId>> BruteForceFinder::AllJoinablePairs(
    double jaccard_threshold, ThreadPool* pool) const {
  const auto& sketches = corpus_->sketches();
  // Shard the all-pairs sweep by left column: row i owns pairs (i, j > i),
  // written to slot i, so the serial concatenation below reproduces the
  // i-outer / j-inner order of the single-threaded loop exactly.
  std::vector<std::vector<std::pair<ColumnId, ColumnId>>> rows(
      sketches.size());
  // The per-row lambda is infallible, so a failure here can only be a bug.
  LAKEKIT_CHECK_OK(ParallelFor(
      0, sketches.size(),
      [&](size_t i) -> Status {
        for (size_t j = i + 1; j < sketches.size(); ++j) {
          if (sketches[i].id.table_idx == sketches[j].id.table_idx) continue;
          if (ExactJaccard(sketches[i], sketches[j]) >= jaccard_threshold) {
            rows[i].emplace_back(sketches[i].id, sketches[j].id);
          }
        }
        return Status::OK();
      },
      pool));
  std::vector<std::pair<ColumnId, ColumnId>> out;
  for (std::vector<std::pair<ColumnId, ColumnId>>& row : rows) {
    out.insert(out.end(), row.begin(), row.end());
  }
  return out;
}

}  // namespace lakekit::discovery
