#include "discovery/josie.h"

namespace lakekit::discovery {

void JosieFinder::Build() {
  const std::vector<ColumnSketch>& sketches = corpus_->sketches();
  // Counting pass: offsets_[v + 1] = columns holding v, then prefix sums
  // turn counts into list starts.
  offsets_.assign(corpus_->dictionary().size() + 1, 0);
  for (const ColumnSketch& s : sketches) {
    for (uint32_t v : s.sorted_values) ++offsets_[v + 1];
  }
  for (size_t v = 1; v < offsets_.size(); ++v) offsets_[v] += offsets_[v - 1];
  // Fill pass, columns ascending, with offsets_[v] as v's write cursor: it
  // ends at v's end, which one shift turns back into the starts.
  columns_.resize(offsets_.back());
  for (size_t i = 0; i < sketches.size(); ++i) {
    for (uint32_t v : sketches[i].sorted_values) {
      columns_[offsets_[v]++] = static_cast<uint32_t>(i);
    }
  }
  for (size_t v = offsets_.size() - 1; v > 0; --v) {
    offsets_[v] = offsets_[v - 1];
  }
  offsets_[0] = 0;
  built_ = true;
}

std::vector<ColumnMatch> JosieFinder::TopK(
    const std::vector<uint32_t>& ids, size_t k,
    std::optional<uint32_t> exclude_table) const {
  const std::vector<ColumnSketch>& sketches = corpus_->sketches();
  std::vector<uint32_t> counts(sketches.size(), 0);
  last_query_postings_scanned_ = 0;
  for (uint32_t v : ids) {
    if (static_cast<size_t>(v) + 1 >= offsets_.size()) continue;  // unindexed
    last_query_postings_scanned_ += offsets_[v + 1] - offsets_[v];
    for (uint64_t p = offsets_[v]; p < offsets_[v + 1]; ++p) {
      ++counts[columns_[p]];
    }
  }
  std::vector<ColumnMatch> matches;
  for (size_t i = 0; i < counts.size(); ++i) {
    if (counts[i] == 0 ||
        (exclude_table && sketches[i].id.table_idx == *exclude_table)) {
      continue;
    }
    matches.push_back(
        ColumnMatch{sketches[i].id, static_cast<double>(counts[i])});
  }
  SortAndTruncate(&matches, k);
  return matches;
}

std::vector<ColumnMatch> JosieFinder::TopKOverlapForValues(
    const std::vector<std::string>& values, size_t k,
    std::optional<uint32_t> exclude_table) const {
  std::vector<uint32_t> ids;
  for (const std::string& v : values) {
    if (auto id = corpus_->dictionary().Find(v)) ids.push_back(*id);
  }
  return TopK(ids, k, exclude_table);
}

std::vector<ColumnMatch> JosieFinder::TopKOverlapColumns(ColumnId query,
                                                         size_t k) const {
  return TopK(corpus_->sketch(query).sorted_values, k, query.table_idx);
}

std::vector<TableMatch> JosieFinder::TopKJoinableTables(size_t table_idx,
                                                        size_t k) const {
  std::vector<ColumnMatch> all;
  for (const ColumnSketch* s : corpus_->TableSketches(table_idx)) {
    for (const ColumnMatch& m : TopKOverlapColumns(s->id, k)) all.push_back(m);
  }
  return AggregateToTables(*corpus_, all, k);
}

}  // namespace lakekit::discovery
