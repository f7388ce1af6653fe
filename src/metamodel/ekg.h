#ifndef LAKEKIT_METAMODEL_EKG_H_
#define LAKEKIT_METAMODEL_EKG_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/result.h"

namespace lakekit::metamodel {

/// Relationship kinds between EKG nodes (column attributes).
enum class Relation {
  kContentSimilar,  // instance-value overlap (MinHash/Jaccard)
  kSchemaSimilar,   // attribute-name similarity
  kPkFk,            // inferred primary-key / foreign-key
};

std::string_view RelationName(Relation r);

/// Aurum's Enterprise Knowledge Graph (survey Sec. 5.2.3, 6.2.1): a
/// hypergraph whose nodes are dataset attributes (columns), whose weighted
/// edges record pairwise relationships, and whose hyperedges group arbitrary
/// node sets — most importantly, the columns of one table.
class Ekg {
 public:
  using NodeId = uint64_t;
  using HyperedgeId = uint64_t;

  struct Node {
    NodeId id = 0;
    std::string table;
    std::string column;
    std::string FullName() const { return table + "." + column; }
  };

  struct Edge {
    NodeId a = 0;
    NodeId b = 0;
    Relation relation = Relation::kContentSimilar;
    double weight = 0;
  };

  struct Hyperedge {
    HyperedgeId id = 0;
    std::string label;
    std::vector<NodeId> nodes;
  };

  /// Adds a node for the (table, column) pair. Every call adds one: ids are
  /// dense and follow call order from 1, so two same-named columns of one
  /// table are two nodes.
  NodeId AddNode(std::string_view table, std::string_view column);

  /// The first node added for (table, column), by a scan over the nodes;
  /// nullopt when absent.
  std::optional<NodeId> FindNode(std::string_view table,
                                 std::string_view column) const;

  Result<Node> GetNode(NodeId id) const;

  /// Adds an undirected weighted relation edge (idempotent per
  /// (pair, relation): re-adding updates the weight).
  Status AddEdge(NodeId a, NodeId b, Relation relation, double weight);

  /// Groups nodes under a labeled hyperedge (e.g. all columns of a table).
  HyperedgeId AddHyperedge(std::string_view label, std::vector<NodeId> nodes);

  /// Neighbors of `node` via `relation` with weight >= min_weight,
  /// (neighbor, weight) pairs sorted by descending weight.
  std::vector<std::pair<NodeId, double>> Neighbors(
      NodeId node, Relation relation, double min_weight = 0.0) const;

  /// BFS path between attributes following `relation` edges with weight >=
  /// min_weight; empty when unreachable within max_hops.
  std::vector<NodeId> FindPath(NodeId from, NodeId to, Relation relation,
                               size_t max_hops = 6,
                               double min_weight = 0.0) const;

  /// All hyperedges containing `node`.
  std::vector<Hyperedge> HyperedgesOf(NodeId node) const;

  /// Nodes of the hyperedge labeled `label` (first match).
  std::vector<NodeId> HyperedgeNodes(std::string_view label) const;

  size_t num_nodes() const { return nodes_.size(); }
  size_t num_edges() const { return edges_.size(); }
  size_t num_hyperedges() const { return hyperedges_.size(); }
  const std::vector<Edge>& edges() const { return edges_; }

 private:
  /// The exact (lower id, higher id, relation) triple in one word: 31 bits
  /// per id and 2 for the relation. Ids are dense, one per node, so they
  /// stay far below 2^31.
  static uint64_t PairKey(NodeId a, NodeId b, Relation r);

  std::vector<Node> nodes_;  // id == index + 1
  std::vector<Edge> edges_;
  std::unordered_map<uint64_t, size_t> edge_index_;
  std::vector<std::vector<size_t>> adjacency_;  // edge indexes, by id - 1
  std::vector<Hyperedge> hyperedges_;
};

}  // namespace lakekit::metamodel

#endif  // LAKEKIT_METAMODEL_EKG_H_
