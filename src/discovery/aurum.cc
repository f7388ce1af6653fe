#include "discovery/aurum.h"

#include <algorithm>

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

  // One EKG node per column in corpus order, so node i + 1 is sketch i.
  // A table's columns are contiguous, so its hyperedge is the run of nodes
  // that ends at its last column.
  ekg_ = Ekg();
  std::vector<Ekg::NodeId> table_nodes;
  for (size_t i = 0; i < sketches.size(); ++i) {
    const ColumnSketch& s = sketches[i];
    table_nodes.push_back(ekg_.AddNode(s.table_name, s.column_name));
    if (i + 1 == sketches.size() ||
        sketches[i + 1].id.table_idx != s.id.table_idx) {
      ekg_.AddHyperedge("table:" + s.table_name, std::move(table_nodes));
      table_nodes.clear();
    }
  }

  // Serial LSH insertion of sketch positions (the index is cheap to build
  // and not thread-safe to mutate), then parallel per-column candidate
  // verification. Each column only verifies candidates at a smaller
  // position — the same examine-each-pair-once set the old
  // query-before-insert loop produced — and writes its verified edges to
  // its own slot; the EKG merge below runs serially in ascending column
  // order so the graph is deterministic.
  for (size_t i = 0; i < sketches.size(); ++i) {
    lsh.Insert(i, sketches[i].minhash);
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
        for (uint64_t j : candidates) {
          if (j >= i) break;
          if (sketches[j].id.table_idx == s.id.table_idx) continue;
          double estimate = s.minhash.EstimateJaccard(sketches[j].minhash);
          if (estimate >= kContentEdgeThreshold) {
            content_edges[i].push_back(VerifiedEdge{j, estimate});
          }
        }
        return Status::OK();
      },
      pool));
  for (size_t i = 0; i < sketches.size(); ++i) {
    for (const VerifiedEdge& e : content_edges[i]) {
      LAKEKIT_RETURN_IF_ERROR(ekg_.AddEdge(
          i + 1, e.other + 1, Relation::kContentSimilar, e.weight));
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
      pool));
  std::vector<std::vector<VerifiedEdge>> schema_edges(sketches.size());
  LAKEKIT_RETURN_IF_ERROR(ParallelFor(
      0, sketches.size(),
      [&](size_t i) -> Status {
        // Rows i and i + 1 usually run on different threads and their slots
        // share a cache line, so the row fills a local and is moved in once;
        // pushing into the slot per match made this pass ≈1.8× slower.
        std::vector<VerifiedEdge> row;
        for (size_t j = i + 1; j < sketches.size(); ++j) {
          if (sketches[i].id.table_idx == sketches[j].id.table_idx) continue;
          double cos =
              text::CosineSimilarity(name_vectors[i], name_vectors[j]);
          if (cos >= kSchemaEdgeThreshold) {
            row.push_back(VerifiedEdge{j, cos});
          }
        }
        schema_edges[i] = std::move(row);
        return Status::OK();
      },
      pool));
  for (size_t i = 0; i < sketches.size(); ++i) {
    for (const VerifiedEdge& e : schema_edges[i]) {
      LAKEKIT_RETURN_IF_ERROR(ekg_.AddEdge(
          i + 1, e.other + 1, Relation::kSchemaSimilar, e.weight));
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
        for (uint64_t j : lsh.Query(pk.minhash)) {
          if (sketches[j].id.table_idx == pk.id.table_idx) continue;
          double containment = ExactContainment(sketches[j], pk);
          if (containment >= kPkFkContainmentThreshold) {
            pkfk_edges[i].push_back(VerifiedEdge{j, containment});
          }
        }
        return Status::OK();
      },
      pool));
  for (size_t i = 0; i < sketches.size(); ++i) {
    for (const VerifiedEdge& e : pkfk_edges[i]) {
      pkfk_pairs_.emplace_back(sketches[e.other].id, sketches[i].id);
      LAKEKIT_RETURN_IF_ERROR(
          ekg_.AddEdge(e.other + 1, i + 1, Relation::kPkFk, e.weight));
    }
  }
  built_ = true;
  return Status::OK();
}

namespace {

/// Node i + 1 is sketch i.
Ekg::NodeId NodeOf(const Corpus& corpus, ColumnId column) {
  return static_cast<Ekg::NodeId>(&corpus.sketch(column) -
                                  corpus.sketches().data()) +
         1;
}

/// The top k of `query`'s neighbors via `relation`, as corpus columns.
std::vector<ColumnMatch> NeighborMatches(const Corpus& corpus, const Ekg& ekg,
                                         ColumnId query, Relation relation,
                                         size_t k) {
  std::vector<ColumnMatch> out;
  for (const auto& [node, weight] :
       ekg.Neighbors(NodeOf(corpus, query), relation)) {
    out.push_back(ColumnMatch{corpus.sketches()[node - 1].id, weight});
  }
  SortAndTruncate(&out, k);
  return out;
}

}  // namespace

std::vector<ColumnMatch> AurumFinder::TopKJoinableColumns(ColumnId query,
                                                          size_t k) const {
  return NeighborMatches(*corpus_, ekg_, query, Relation::kContentSimilar, k);
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
  return NeighborMatches(*corpus_, ekg_, query, Relation::kSchemaSimilar, k);
}

std::vector<ColumnId> AurumFinder::DiscoveryPath(ColumnId from, ColumnId to,
                                                 size_t max_hops) const {
  std::vector<ColumnId> out;
  for (Ekg::NodeId node :
       ekg_.FindPath(NodeOf(*corpus_, from), NodeOf(*corpus_, to),
                     Relation::kContentSimilar, max_hops)) {
    out.push_back(corpus_->sketches()[node - 1].id);
  }
  return out;
}

}  // namespace lakekit::discovery
