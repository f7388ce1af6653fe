#include "discovery/juneau.h"

#include <algorithm>

#include "text/tokenize.h"

namespace lakekit::discovery {

std::string_view JuneauTaskName(JuneauTask task) {
  switch (task) {
    case JuneauTask::kAugmentTraining:
      return "augment_training";
    case JuneauTask::kAugmentFeatures:
      return "augment_features";
    case JuneauTask::kCleaning:
      return "cleaning";
  }
  return "unknown";
}

void JuneauFinder::RegisterProvenance(
    std::string_view table, const provenance::VariableDependencyGraph* graph,
    std::string_view variable) {
  provenance_[std::string(table)] =
      ProvenanceRef{graph, std::string(variable)};
}

JuneauSignals JuneauFinder::ComputeSignals(size_t query_table,
                                           size_t candidate_table) const {
  JuneauSignals s;
  std::vector<const ColumnSketch*> qs = corpus_->TableSketches(query_table);
  std::vector<const ColumnSketch*> cs =
      corpus_->TableSketches(candidate_table);
  if (qs.empty() || cs.empty()) return s;

  // Schema overlap: greedy name matching at q-gram similarity >= 0.7.
  std::vector<bool> candidate_matched(cs.size(), false);
  size_t matched = 0;
  double best_value_overlap = 0;
  double best_null_improvement = 0;
  for (const ColumnSketch* q : qs) {
    double best_name = 0;
    size_t best_idx = cs.size();
    for (size_t i = 0; i < cs.size(); ++i) {
      if (candidate_matched[i]) continue;
      double name = text::GramJaccard(q->name_grams, cs[i]->name_grams);
      if (name > best_name) {
        best_name = name;
        best_idx = i;
      }
    }
    if (best_name >= 0.7 && best_idx < cs.size()) {
      candidate_matched[best_idx] = true;
      ++matched;
      best_null_improvement =
          std::max(best_null_improvement,
                   q->null_fraction() - cs[best_idx]->null_fraction());
    }
    // Join signal: value overlap of *key-like* column pairs only. A
    // low-cardinality categorical pair ("label" with 3 values on both
    // sides) trivially reaches Jaccard 1 without meaning joinability.
    if (q->uniqueness() >= 0.5) {
      for (const ColumnSketch* c : cs) {
        if (c->uniqueness() < 0.5) continue;
        best_value_overlap = std::max(
            best_value_overlap, q->minhash.EstimateJaccard(c->minhash));
      }
    }
  }
  s.schema_overlap =
      static_cast<double>(matched) / static_cast<double>(qs.size());
  s.value_overlap = best_value_overlap;
  s.new_attribute_rate =
      1.0 - static_cast<double>(matched) / static_cast<double>(cs.size());
  s.null_improvement = std::max(0.0, best_null_improvement);

  // New instance rate: fraction of the candidate's best-overlapping column
  // values absent from the query's side (novelty for training data).
  // Estimated from the MinHash Jaccard of the best pair: with |A|≈|B|,
  // new ≈ (1 - j) / (1 + j).
  s.new_instance_rate =
      (1.0 - best_value_overlap) / (1.0 + best_value_overlap);

  // Provenance similarity, when both tables have registered variables.
  auto qp = provenance_.find(corpus_->table(query_table).name());
  auto cp = provenance_.find(corpus_->table(candidate_table).name());
  if (qp != provenance_.end() && cp != provenance_.end()) {
    s.provenance = provenance::VariableDependencyGraph::ProvenanceSimilarity(
        *qp->second.graph, qp->second.variable, *cp->second.graph,
        cp->second.variable);
  }
  return s;
}

double JuneauFinder::Score(size_t query_table, size_t candidate_table,
                           JuneauTask task) const {
  JuneauSignals s = ComputeSignals(query_table, candidate_table);
  switch (task) {
    case JuneauTask::kAugmentTraining:
      // Same schema, new rows; provenance hints at sibling pipelines.
      return 0.45 * s.schema_overlap + 0.3 * s.new_instance_rate +
             0.15 * s.provenance + 0.1 * s.value_overlap;
    case JuneauTask::kAugmentFeatures:
      // Joinable (shared key values) and bringing new attributes.
      return 0.45 * s.value_overlap + 0.35 * s.new_attribute_rate +
             0.1 * s.schema_overlap + 0.1 * s.provenance;
    case JuneauTask::kCleaning:
      // A near-duplicate with fewer nulls.
      return 0.4 * s.schema_overlap + 0.25 * s.value_overlap +
             0.25 * s.null_improvement + 0.1 * s.provenance;
  }
  return 0;
}

std::vector<TableMatch> JuneauFinder::TopKForTask(size_t query_table,
                                                  JuneauTask task,
                                                  size_t k) const {
  std::vector<TableMatch> out;
  for (size_t t = 0; t < corpus_->num_tables(); ++t) {
    if (t == query_table) continue;
    double score = Score(query_table, t, task);
    if (score <= 0) continue;
    out.push_back(TableMatch{t, corpus_->table(t).name(), score});
  }
  std::sort(out.begin(), out.end(), [](const TableMatch& a, const TableMatch& b) {
    if (a.score != b.score) return a.score > b.score;
    return a.table_idx < b.table_idx;
  });
  if (out.size() > k) out.resize(k);
  return out;
}

}  // namespace lakekit::discovery
