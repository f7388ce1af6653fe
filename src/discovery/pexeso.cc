#include "discovery/pexeso.h"

#include <unordered_set>

#include "common/hash.h"

namespace lakekit::discovery {

namespace {

/// Two values "match" when their embedding cosine is at least this.
constexpr double kCosineThreshold = 0.7;
/// A candidate column is semantically joinable when at least this fraction
/// of the query's values have a match in it.
constexpr double kMatchFraction = 0.5;
/// Number of random hyperplanes for the sign-bucket index (the stand-in
/// for PEXESO's hierarchical grid partitioning).
constexpr size_t kHyperplanes = 12;
/// Cap on values embedded per column.
constexpr size_t kValueCap = 128;

}  // namespace

void PexesoFinder::Build() {
  // Deterministic hyperplanes from the shared embedder's dimensionality.
  hyperplanes_.clear();
  for (size_t h = 0; h < kHyperplanes; ++h) {
    text::DenseVector plane(kEmbeddingDim);
    uint64_t seed = Mix64(0x9e3779b9ULL + h);
    for (size_t d = 0; d < kEmbeddingDim; ++d) {
      seed = Mix64(seed + d);
      plane[d] = (static_cast<double>(seed >> 11) * 0x1.0p-53) * 2.0 - 1.0;
    }
    hyperplanes_.push_back(std::move(plane));
  }

  entries_.clear();
  buckets_.clear();
  for (const ColumnSketch& s : corpus_->sketches()) {
    if (!s.is_textual()) continue;
    size_t count = 0;
    for (uint32_t value : s.distinct_values) {
      if (count++ >= kValueCap) break;
      Entry e;
      e.column_packed = s.id.Packed();
      e.vector = corpus_->embedder().Embed(corpus_->dictionary()[value]);
      uint64_t bucket = BucketOf(e.vector);
      buckets_[bucket].push_back(entries_.size());
      entries_.push_back(std::move(e));
    }
  }
  built_ = true;
}

uint64_t PexesoFinder::BucketOf(const text::DenseVector& v) const {
  uint64_t bits = 0;
  for (size_t h = 0; h < hyperplanes_.size(); ++h) {
    double dot = 0;
    for (size_t d = 0; d < v.size(); ++d) dot += v[d] * hyperplanes_[h][d];
    if (dot >= 0) bits |= (1ULL << h);
  }
  return bits;
}

std::vector<size_t> PexesoFinder::Probe(const text::DenseVector& v) const {
  uint64_t home = BucketOf(v);
  std::vector<size_t> out;
  auto add_bucket = [&](uint64_t bucket) {
    auto it = buckets_.find(bucket);
    if (it == buckets_.end()) return;
    out.insert(out.end(), it->second.begin(), it->second.end());
  };
  add_bucket(home);
  // Hamming-1 and Hamming-2 neighbors: vectors at cosine ~0.7-0.9 flip an
  // expected 1-2 sign bits, so distance-2 probing keeps recall high at
  // O(h^2) extra bucket lookups.
  for (size_t h = 0; h < hyperplanes_.size(); ++h) {
    add_bucket(home ^ (1ULL << h));
    for (size_t g = h + 1; g < hyperplanes_.size(); ++g) {
      add_bucket(home ^ (1ULL << h) ^ (1ULL << g));
    }
  }
  return out;
}

std::vector<ColumnMatch> PexesoFinder::TopKSemanticJoinableColumns(
    ColumnId query, size_t k) const {
  const ColumnSketch& q = corpus_->sketch(query);
  if (!q.is_textual() || q.distinct_values.empty()) return {};

  // For each query value, the set of candidate columns holding a matching
  // vector; accumulate per-column matched-value counts.
  std::unordered_map<uint64_t, size_t> matched_counts;
  size_t considered = 0;
  for (uint32_t value : q.distinct_values) {
    if (considered++ >= kValueCap) break;
    text::DenseVector qv =
        corpus_->embedder().Embed(corpus_->dictionary()[value]);
    std::unordered_set<uint64_t> columns_with_match;
    for (size_t entry_idx : Probe(qv)) {
      const Entry& e = entries_[entry_idx];
      if (ColumnId::FromPacked(e.column_packed).table_idx == query.table_idx) {
        continue;
      }
      if (columns_with_match.count(e.column_packed) > 0) continue;
      if (text::CosineSimilarity(qv, e.vector) >= kCosineThreshold) {
        columns_with_match.insert(e.column_packed);
      }
    }
    for (uint64_t packed : columns_with_match) ++matched_counts[packed];
  }

  const double denom = static_cast<double>(considered);
  std::vector<ColumnMatch> matches;
  for (const auto& [packed, count] : matched_counts) {
    double fraction = static_cast<double>(count) / denom;
    if (fraction >= kMatchFraction) {
      matches.push_back(ColumnMatch{ColumnId::FromPacked(packed), fraction});
    }
  }
  SortAndTruncate(&matches, k);
  return matches;
}

std::vector<TableMatch> PexesoFinder::TopKSemanticJoinableTables(
    size_t table_idx, size_t k) const {
  std::vector<ColumnMatch> all;
  for (const ColumnSketch* s : corpus_->TableSketches(table_idx)) {
    if (!s->is_textual()) continue;
    for (const ColumnMatch& m : TopKSemanticJoinableColumns(s->id, k)) {
      all.push_back(m);
    }
  }
  return AggregateToTables(*corpus_, all, k);
}

}  // namespace lakekit::discovery
