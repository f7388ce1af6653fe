#include "discovery/aurum.h"

#include <algorithm>
#include <unordered_map>

#include "text/lsh.h"
#include "text/tfidf.h"

namespace lakekit::discovery {

using metamodel::Ekg;
using metamodel::Relation;

namespace {

/// Minimum estimated Jaccard for a content-similarity EKG edge.
constexpr double kContentEdgeThreshold = 0.3;
/// Minimum attribute-name TF-IDF cosine for a schema-similarity edge.
constexpr double kSchemaEdgeThreshold = 0.6;
/// PK-FK inference: FK column must be contained in the PK candidate at
/// least this much.
constexpr double kPkFkContainmentThreshold = 0.8;
/// PK side must have uniqueness at least this high.
constexpr double kPkFkUniquenessThreshold = 0.95;

}  // namespace

Status AurumFinder::Build(ThreadPool* pool) {
  text::LshIndex lsh(kLshBands, kLshRows);
  const auto& sketches = corpus_->sketches();
  ParallelOptions par;
  par.pool = pool;

  // EKG nodes + table hyperedges.
  ekg_node_of_.clear();
  ekg_node_of_.reserve(sketches.size());
  std::unordered_map<uint32_t, std::vector<Ekg::NodeId>> table_nodes;
  for (size_t i = 0; i < sketches.size(); ++i) {
    const ColumnSketch& s = sketches[i];
    Ekg::NodeId node = ekg_.AddNode(s.table_name, s.column_name);
    ekg_node_of_.push_back(node);
    table_nodes[s.id.table_idx].push_back(node);
  }
  for (auto& [table_idx, nodes] : table_nodes) {
    ekg_.AddHyperedge("table:" + corpus_->table(table_idx).name(),
                      std::move(nodes));
  }

  // Serial LSH insertion (the index is cheap to build and not thread-safe
  // to mutate), then parallel per-column candidate verification. Each column
  // only verifies candidates with a smaller packed id — the same
  // examine-each-pair-once set the old query-before-insert loop produced —
  // and writes its verified edges to its own slot; the EKG merge below runs
  // serially in ascending column order so the graph is deterministic.
  for (const ColumnSketch& s : sketches) {
    lsh.Insert(s.id.Packed(), s.minhash);
  }
  struct VerifiedEdge {
    size_t other;  // sketch index
    double weight;
  };
  std::vector<std::vector<VerifiedEdge>> content_edges(sketches.size());
  LAKEKIT_RETURN_IF_ERROR(ParallelFor(
      0, sketches.size(),
      [&](size_t i) -> Status {
        const ColumnSketch& s = sketches[i];
        std::vector<uint64_t> candidates = lsh.Query(s.minhash);
        std::sort(candidates.begin(), candidates.end());
        for (uint64_t packed : candidates) {
          if (packed >= s.id.Packed()) break;
          ColumnId other_id = ColumnId::FromPacked(packed);
          if (other_id.table_idx == s.id.table_idx) continue;
          const ColumnSketch& other = corpus_->sketch(other_id);
          double estimate = s.minhash.EstimateJaccard(other.minhash);
          if (estimate >= kContentEdgeThreshold) {
            content_edges[i].push_back(
                VerifiedEdge{static_cast<size_t>(&other - sketches.data()),
                             estimate});
          }
        }
        return Status::OK();
      },
      par));
  for (size_t i = 0; i < sketches.size(); ++i) {
    for (const VerifiedEdge& e : content_edges[i]) {
      LAKEKIT_RETURN_IF_ERROR(ekg_.AddEdge(ekg_node_of_[i],
                                           ekg_node_of_[e.other],
                                           Relation::kContentSimilar,
                                           e.weight));
    }
  }

  // Schema edges: TF-IDF cosine over attribute-name tokens. Vectorization
  // and the all-pairs cosine sweep are read-only per row i, so both fan out;
  // row i records its j > i matches in ascending j order and the serial
  // merge preserves the old loop's edge order.
  text::TfIdfVectorizer vectorizer;
  for (const ColumnSketch& s : sketches) {
    vectorizer.AddDocument(s.name_tokens);
  }
  std::vector<text::SparseVector> name_vectors(sketches.size());
  LAKEKIT_RETURN_IF_ERROR(ParallelFor(
      0, sketches.size(),
      [&](size_t i) -> Status {
        name_vectors[i] = vectorizer.Vectorize(i);
        return Status::OK();
      },
      par));
  std::vector<std::vector<VerifiedEdge>> schema_edges(sketches.size());
  LAKEKIT_RETURN_IF_ERROR(ParallelFor(
      0, sketches.size(),
      [&](size_t i) -> Status {
        for (size_t j = i + 1; j < sketches.size(); ++j) {
          if (sketches[i].id.table_idx == sketches[j].id.table_idx) continue;
          double cos =
              text::CosineSimilarity(name_vectors[i], name_vectors[j]);
          if (cos >= kSchemaEdgeThreshold) {
            schema_edges[i].push_back(VerifiedEdge{j, cos});
          }
        }
        return Status::OK();
      },
      par));
  for (size_t i = 0; i < sketches.size(); ++i) {
    for (const VerifiedEdge& e : schema_edges[i]) {
      LAKEKIT_RETURN_IF_ERROR(ekg_.AddEdge(ekg_node_of_[i],
                                           ekg_node_of_[e.other],
                                           Relation::kSchemaSimilar,
                                           e.weight));
    }
  }

  // PK-FK inference: approximate keys (high uniqueness) attract columns
  // highly contained in them. Containment verification against the LSH
  // candidates is the hot part; it fans out per PK candidate with the same
  // slot-then-serial-merge scheme.
  pkfk_pairs_.clear();
  std::vector<std::vector<VerifiedEdge>> pkfk_edges(sketches.size());
  LAKEKIT_RETURN_IF_ERROR(ParallelFor(
      0, sketches.size(),
      [&](size_t i) -> Status {
        const ColumnSketch& pk = sketches[i];
        if (pk.uniqueness() < kPkFkUniquenessThreshold ||
            pk.sorted_values.empty()) {
          return Status::OK();
        }
        // Only check LSH/content candidates plus exact containment verify.
        for (uint64_t packed : lsh.Query(pk.minhash)) {
          ColumnId fk_id = ColumnId::FromPacked(packed);
          if (fk_id == pk.id || fk_id.table_idx == pk.id.table_idx) continue;
          const ColumnSketch& fk = corpus_->sketch(fk_id);
          double containment = ExactContainment(fk, pk);
          if (containment >= kPkFkContainmentThreshold) {
            pkfk_edges[i].push_back(
                VerifiedEdge{static_cast<size_t>(&fk - sketches.data()),
                             containment});
          }
        }
        return Status::OK();
      },
      par));
  for (size_t i = 0; i < sketches.size(); ++i) {
    for (const VerifiedEdge& e : pkfk_edges[i]) {
      pkfk_pairs_.emplace_back(sketches[e.other].id, sketches[i].id);
      LAKEKIT_RETURN_IF_ERROR(ekg_.AddEdge(ekg_node_of_[e.other],
                                           ekg_node_of_[i], Relation::kPkFk,
                                           e.weight));
    }
  }
  built_ = true;
  return Status::OK();
}

namespace {

/// Translates EKG neighbor lists back to corpus ColumnMatches.
std::vector<ColumnMatch> ToMatches(
    const Corpus& corpus, const Ekg& ekg,
    const std::vector<std::pair<Ekg::NodeId, double>>& neighbors) {
  std::vector<ColumnMatch> out;
  out.reserve(neighbors.size());
  for (const auto& [node, weight] : neighbors) {
    Result<Ekg::Node> n = ekg.GetNode(node);
    if (!n.ok()) continue;
    Result<ColumnId> id = corpus.FindColumn(n->table, n->column);
    if (!id.ok()) continue;
    out.push_back(ColumnMatch{*id, weight});
  }
  return out;
}

}  // namespace

std::vector<ColumnMatch> AurumFinder::TopKJoinableColumns(ColumnId query,
                                                          size_t k) const {
  const ColumnSketch& q = corpus_->sketch(query);
  auto node = ekg_.FindNode(q.table_name, q.column_name);
  if (!node) return {};
  std::vector<ColumnMatch> matches = ToMatches(
      *corpus_, ekg_, ekg_.Neighbors(*node, Relation::kContentSimilar));
  SortAndTruncate(&matches, k);
  return matches;
}

std::vector<TableMatch> AurumFinder::TopKJoinableTables(size_t table_idx,
                                                        size_t k) const {
  std::vector<ColumnMatch> all;
  for (const ColumnSketch* s : corpus_->TableSketches(table_idx)) {
    for (const ColumnMatch& m :
         TopKJoinableColumns(s->id, corpus_->num_columns())) {
      all.push_back(m);
    }
  }
  return AggregateToTables(*corpus_, all, k);
}

std::vector<ColumnMatch> AurumFinder::SchemaSimilarColumns(ColumnId query,
                                                           size_t k) const {
  const ColumnSketch& q = corpus_->sketch(query);
  auto node = ekg_.FindNode(q.table_name, q.column_name);
  if (!node) return {};
  std::vector<ColumnMatch> matches = ToMatches(
      *corpus_, ekg_, ekg_.Neighbors(*node, Relation::kSchemaSimilar));
  SortAndTruncate(&matches, k);
  return matches;
}

std::vector<ColumnId> AurumFinder::DiscoveryPath(ColumnId from, ColumnId to,
                                                 size_t max_hops) const {
  const ColumnSketch& f = corpus_->sketch(from);
  const ColumnSketch& t = corpus_->sketch(to);
  auto from_node = ekg_.FindNode(f.table_name, f.column_name);
  auto to_node = ekg_.FindNode(t.table_name, t.column_name);
  if (!from_node || !to_node) return {};
  std::vector<ColumnId> out;
  for (Ekg::NodeId node :
       ekg_.FindPath(*from_node, *to_node, Relation::kContentSimilar,
                     max_hops)) {
    Result<Ekg::Node> n = ekg_.GetNode(node);
    if (!n.ok()) continue;
    Result<ColumnId> id = corpus_->FindColumn(n->table, n->column);
    if (id.ok()) out.push_back(*id);
  }
  return out;
}

}  // namespace lakekit::discovery
