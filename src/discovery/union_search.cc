#include "discovery/union_search.h"

#include <algorithm>

#include "text/embedding.h"
#include "text/tokenize.h"

namespace lakekit::discovery {

UnionSearch::UnionSearch(const Corpus* corpus, UnionSearchOptions options)
    : corpus_(corpus), options_(options) {}

double UnionSearch::AttributeUnionability(const ColumnSketch& sa,
                                          const ColumnSketch& sb) const {
  // Different data types are weak evidence against unionability, but name
  // match can still carry (int64 vs double ids): type mismatch halves the
  // value signal rather than zeroing the pair.
  double name = text::GramJaccard(sa.name_grams, sb.name_grams);
  double values = sa.minhash.EstimateJaccard(sb.minhash);
  double embedding =
      std::max(0.0, text::CosineSimilarity(sa.embedding, sb.embedding));
  double score = options_.name_weight * name +
                 options_.value_weight * values +
                 options_.embedding_weight * embedding;
  if (sa.type != sb.type) score *= 0.5;
  return score;
}

std::vector<AttributeAlignment> UnionSearch::AlignTables(
    size_t query_table, size_t candidate_table) const {
  std::vector<const ColumnSketch*> qs = corpus_->TableSketches(query_table);
  std::vector<const ColumnSketch*> cs =
      corpus_->TableSketches(candidate_table);
  // Score all pairs, then greedy best-first matching (each column used at
  // most once).
  struct Scored {
    size_t qi;
    size_t ci;
    double score;
  };
  std::vector<Scored> pairs;
  for (size_t i = 0; i < qs.size(); ++i) {
    for (size_t j = 0; j < cs.size(); ++j) {
      double score = AttributeUnionability(*qs[i], *cs[j]);
      if (score >= options_.attribute_threshold) {
        pairs.push_back(Scored{i, j, score});
      }
    }
  }
  std::sort(pairs.begin(), pairs.end(), [](const Scored& a, const Scored& b) {
    return a.score > b.score;
  });
  std::vector<bool> q_used(qs.size(), false);
  std::vector<bool> c_used(cs.size(), false);
  std::vector<AttributeAlignment> alignment;
  for (const Scored& p : pairs) {
    if (q_used[p.qi] || c_used[p.ci]) continue;
    q_used[p.qi] = true;
    c_used[p.ci] = true;
    alignment.push_back(
        AttributeAlignment{qs[p.qi]->id, cs[p.ci]->id, p.score});
  }
  return alignment;
}

std::vector<UnionMatch> UnionSearch::TopKUnionableTables(size_t query_table,
                                                         size_t k) const {
  std::vector<UnionMatch> out;
  const double query_cols =
      static_cast<double>(corpus_->TableSketches(query_table).size());
  for (size_t t = 0; t < corpus_->num_tables(); ++t) {
    if (t == query_table) continue;
    std::vector<AttributeAlignment> alignment = AlignTables(query_table, t);
    if (alignment.empty()) continue;
    double sum = 0;
    for (const AttributeAlignment& a : alignment) sum += a.score;
    double score = (sum / static_cast<double>(alignment.size())) *
                   (static_cast<double>(alignment.size()) / query_cols);
    UnionMatch match;
    match.table_idx = t;
    match.table_name = corpus_->table(t).name();
    match.score = score;
    match.alignment = std::move(alignment);
    out.push_back(std::move(match));
  }
  std::sort(out.begin(), out.end(), [](const UnionMatch& a, const UnionMatch& b) {
    if (a.score != b.score) return a.score > b.score;
    return a.table_idx < b.table_idx;
  });
  if (out.size() > k) out.resize(k);
  return out;
}

}  // namespace lakekit::discovery
