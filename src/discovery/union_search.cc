#include "discovery/union_search.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <span>

#include "text/embedding.h"
#include "text/tokenize.h"

namespace lakekit::discovery {

namespace {

/// How far past its bound a score's rounding may take it, per unit of
/// weight: a few ulps of the products, the sums and the cosine past 1, with
/// room to spare.
constexpr double kRoundingMargin = 1e-9;

}  // namespace

struct UnionSearch::Query {
  uint32_t table = 0;
  /// The query table's columns: [begin, end).
  size_t begin = 0;
  size_t end = 0;
  /// Name similarity of query column begin + i to name n at
  /// [i * names + n], computed on first use (negative until then).
  std::vector<double> name_scores;
  /// The current candidate's pairs that reach the threshold (the buffers
  /// below are reused from candidate to candidate).
  struct Scored {
    uint32_t qi;
    uint32_t ci;
    double score;
  };
  std::vector<Scored> pairs;
  /// Greedy matching's used flags, per query and candidate column.
  std::vector<char> q_used;
  std::vector<char> c_used;
};

UnionSearch::UnionSearch(const Corpus* corpus, UnionSearchOptions options)
    : corpus_(corpus), options_(options) {
  floor_ = options_.attribute_threshold -
           kRoundingMargin *
               (1 + std::abs(options_.name_weight) +
                std::abs(options_.value_weight) +
                std::abs(options_.embedding_weight));
  table_begin_.reserve(corpus->num_tables() + 1);
  table_begin_.push_back(0);
  for (size_t t = 0; t < corpus->num_tables(); ++t) {
    table_begin_.push_back(table_begin_.back() +
                           corpus->table(t).num_columns());
  }
  // Corpus signatures are all kMinHashSize long.
  const std::vector<ColumnSketch>& sketches = corpus->sketches();
  columns_.resize(sketches.size());
  minhashes_.resize(sketches.size() * kMinHashSize);
  std::map<std::vector<uint32_t>, uint32_t> name_ids;
  for (size_t i = 0; i < sketches.size(); ++i) {
    const ColumnSketch& s = sketches[i];
    const auto [it, inserted] = name_ids.try_emplace(
        s.name_grams, static_cast<uint32_t>(names_.size()));
    if (inserted) names_.push_back(s.name_grams);
    double norm = 0;
    for (double x : s.embedding) norm += x * x;
    columns_[i] = Column{s.type, norm != 0, it->second};
    std::copy(s.minhash.values().begin(), s.minhash.values().end(),
              minhashes_.begin() + i * kMinHashSize);
  }
}

double UnionSearch::Score(double name, double values, double embedding,
                          bool same_type) const {
  // Different data types are weak evidence against unionability, but name
  // match can still carry (int64 vs double ids): type mismatch halves the
  // score rather than zeroing the pair.
  double score = options_.name_weight * name +
                 options_.value_weight * values +
                 options_.embedding_weight * embedding;
  if (!same_type) score *= 0.5;
  return score;
}

double UnionSearch::AttributeUnionability(const ColumnSketch& sa,
                                          const ColumnSketch& sb) const {
  return Score(text::GramJaccard(sa.name_grams, sb.name_grams),
               sa.minhash.EstimateJaccard(sb.minhash),
               std::max(0.0, text::CosineSimilarity(sa.embedding,
                                                    sb.embedding)),
               sa.type == sb.type);
}

UnionSearch::Query UnionSearch::StartQuery(size_t query_table) const {
  Query query;
  query.table = static_cast<uint32_t>(query_table);
  if (query_table + 1 < table_begin_.size()) {
    query.begin = table_begin_[query_table];
    query.end = table_begin_[query_table + 1];
  }
  query.name_scores.assign((query.end - query.begin) * names_.size(), -1.0);
  return query;
}

void UnionSearch::Align(Query* query, size_t candidate_table,
                        std::vector<AttributeAlignment>* out) const {
  // Each signal lies in [0, 1] (the cosine clamped at 0; its rounding past
  // 1 is in the margin), so its term is at most its weight, or 0 for a
  // negative weight: a pair's score is at most its terms read so far plus
  // the positive weights of those unread, halved across types, and a pair
  // whose bound is below floor_ cannot reach the threshold. The embedding
  // signal is 0 unless both embeddings are nonzero.
  const double name_max = std::max(options_.name_weight, 0.0);
  const double values_max = std::max(options_.value_weight, 0.0);
  const double embedding_max = std::max(options_.embedding_weight, 0.0);
  const std::vector<ColumnSketch>& sketches = corpus_->sketches();
  const size_t begin = table_begin_[candidate_table];
  const size_t end = table_begin_[candidate_table + 1];
  std::vector<Query::Scored>& pairs = query->pairs;
  pairs.clear();
  for (size_t i = query->begin; i < query->end; ++i) {
    const Column& a = columns_[i];
    double* names = &query->name_scores[(i - query->begin) * names_.size()];
    const std::span<const uint64_t> sig_a(&minhashes_[i * kMinHashSize],
                                          kMinHashSize);
    for (size_t j = begin; j < end; ++j) {
      const Column& b = columns_[j];
      const bool same_type = a.type == b.type;
      const bool embedded = a.nonzero_embedding && b.nonzero_embedding;
      const double m = same_type ? 1.0 : 0.5;
      const double unread = embedded ? embedding_max : 0.0;
      if (m * (name_max + values_max + unread) < floor_) continue;
      double& name = names[b.name_id];
      if (name < 0) {
        name = text::GramJaccard(names_[a.name_id], names_[b.name_id]);
      }
      const double values =
          static_cast<double>(text::CountEqual(
              sig_a, {&minhashes_[j * kMinHashSize], kMinHashSize})) /
          static_cast<double>(kMinHashSize);
      if (m * (options_.name_weight * name + options_.value_weight * values +
               unread) <
          floor_) {
        continue;
      }
      const double embedding =
          embedded ? std::max(0.0, text::CosineSimilarity(
                                       sketches[i].embedding,
                                       sketches[j].embedding))
                   : 0.0;
      const double score = Score(name, values, embedding, same_type);
      if (score >= options_.attribute_threshold) {
        pairs.push_back(Query::Scored{static_cast<uint32_t>(i - query->begin),
                                      static_cast<uint32_t>(j - begin),
                                      score});
      }
    }
  }
  if (pairs.empty()) return;
  // Greedy best-first matching: each column used at most once.
  std::sort(pairs.begin(), pairs.end(),
            [](const Query::Scored& x, const Query::Scored& y) {
              return x.score > y.score;
            });
  query->q_used.assign(query->end - query->begin, 0);
  query->c_used.assign(end - begin, 0);
  for (const Query::Scored& p : pairs) {
    if (query->q_used[p.qi] || query->c_used[p.ci]) continue;
    query->q_used[p.qi] = 1;
    query->c_used[p.ci] = 1;
    out->push_back(AttributeAlignment{
        ColumnId{query->table, p.qi},
        ColumnId{static_cast<uint32_t>(candidate_table), p.ci}, p.score});
  }
}

std::vector<AttributeAlignment> UnionSearch::AlignTables(
    size_t query_table, size_t candidate_table) const {
  std::vector<AttributeAlignment> alignment;
  if (candidate_table + 1 < table_begin_.size()) {
    Query query = StartQuery(query_table);
    Align(&query, candidate_table, &alignment);
  }
  return alignment;
}

std::vector<UnionMatch> UnionSearch::TopKUnionableTables(size_t query_table,
                                                         size_t k) const {
  Query query = StartQuery(query_table);
  if (query.begin == query.end) return {};
  const double query_cols = static_cast<double>(query.end - query.begin);
  // Every candidate's alignment in one buffer; only the top k become
  // matches.
  struct Candidate {
    double score;
    size_t table;
    size_t begin;
    size_t end;
  };
  std::vector<AttributeAlignment> alignments;
  std::vector<Candidate> candidates;
  for (size_t t = 0; t + 1 < table_begin_.size(); ++t) {
    if (t == query_table) continue;
    const size_t first = alignments.size();
    Align(&query, t, &alignments);
    if (alignments.size() == first) continue;
    double sum = 0;
    for (size_t a = first; a < alignments.size(); ++a) {
      sum += alignments[a].score;
    }
    const double aligned = static_cast<double>(alignments.size() - first);
    candidates.push_back(Candidate{(sum / aligned) * (aligned / query_cols),
                                   t, first, alignments.size()});
  }
  const size_t n = std::min(k, candidates.size());
  std::partial_sort(candidates.begin(), candidates.begin() + n,
                    candidates.end(),
                    [](const Candidate& a, const Candidate& b) {
                      if (a.score != b.score) return a.score > b.score;
                      return a.table < b.table;
                    });
  std::vector<UnionMatch> out(n);
  for (size_t i = 0; i < n; ++i) {
    const Candidate& c = candidates[i];
    out[i].table_idx = c.table;
    out[i].table_name = corpus_->table(c.table).name();
    out[i].score = c.score;
    out[i].alignment.assign(alignments.begin() + c.begin,
                            alignments.begin() + c.end);
  }
  return out;
}

}  // namespace lakekit::discovery
