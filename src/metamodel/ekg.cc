#include "metamodel/ekg.h"

#include <algorithm>
#include <deque>

namespace lakekit::metamodel {

std::string_view RelationName(Relation r) {
  switch (r) {
    case Relation::kContentSimilar:
      return "content_similar";
    case Relation::kSchemaSimilar:
      return "schema_similar";
    case Relation::kPkFk:
      return "pk_fk";
  }
  return "unknown";
}

Ekg::NodeId Ekg::AddNode(std::string_view table, std::string_view column) {
  NodeId id = nodes_.size() + 1;
  nodes_.push_back(Node{id, std::string(table), std::string(column)});
  adjacency_.emplace_back();
  return id;
}

std::optional<Ekg::NodeId> Ekg::FindNode(std::string_view table,
                                         std::string_view column) const {
  for (const Node& n : nodes_) {
    if (n.table == table && n.column == column) return n.id;
  }
  return std::nullopt;
}

Result<Ekg::Node> Ekg::GetNode(NodeId id) const {
  if (id == 0 || id > nodes_.size()) {
    return Status::NotFound("no EKG node " + std::to_string(id));
  }
  return nodes_[id - 1];
}

uint64_t Ekg::PairKey(NodeId a, NodeId b, Relation r) {
  if (a > b) std::swap(a, b);
  return (a << 33) | (b << 2) | static_cast<uint64_t>(r);
}

Status Ekg::AddEdge(NodeId a, NodeId b, Relation relation, double weight) {
  if (a == b) return Status::InvalidArgument("self edge in EKG");
  for (NodeId id : {a, b}) {
    if (id == 0 || id > nodes_.size()) {
      return Status::NotFound("no EKG node " + std::to_string(id));
    }
  }
  auto [it, inserted] =
      edge_index_.try_emplace(PairKey(a, b, relation), edges_.size());
  if (!inserted) {
    edges_[it->second].weight = weight;
    return Status::OK();
  }
  adjacency_[a - 1].push_back(edges_.size());
  adjacency_[b - 1].push_back(edges_.size());
  edges_.push_back(Edge{a, b, relation, weight});
  return Status::OK();
}

Ekg::HyperedgeId Ekg::AddHyperedge(std::string_view label,
                                   std::vector<NodeId> nodes) {
  HyperedgeId id = hyperedges_.size() + 1;
  hyperedges_.push_back(Hyperedge{id, std::string(label), std::move(nodes)});
  return id;
}

std::vector<std::pair<Ekg::NodeId, double>> Ekg::Neighbors(
    NodeId node, Relation relation, double min_weight) const {
  std::vector<std::pair<NodeId, double>> out;
  if (node == 0 || node > adjacency_.size()) return out;
  for (size_t edge_idx : adjacency_[node - 1]) {
    const Edge& e = edges_[edge_idx];
    if (e.relation != relation || e.weight < min_weight) continue;
    out.emplace_back(e.a == node ? e.b : e.a, e.weight);
  }
  std::sort(out.begin(), out.end(), [](const auto& x, const auto& y) {
    if (x.second != y.second) return x.second > y.second;
    return x.first < y.first;
  });
  return out;
}

std::vector<Ekg::NodeId> Ekg::FindPath(NodeId from, NodeId to,
                                       Relation relation, size_t max_hops,
                                       double min_weight) const {
  if (from == to) return {from};
  std::unordered_map<NodeId, NodeId> parent;
  std::deque<std::pair<NodeId, size_t>> queue{{from, 0}};
  parent[from] = from;
  while (!queue.empty()) {
    auto [current, depth] = queue.front();
    queue.pop_front();
    if (depth >= max_hops) continue;
    for (const auto& [neighbor, weight] :
         Neighbors(current, relation, min_weight)) {
      if (parent.find(neighbor) != parent.end()) continue;
      parent[neighbor] = current;
      if (neighbor == to) {
        std::vector<NodeId> path;
        for (NodeId n = to; n != from; n = parent[n]) path.push_back(n);
        path.push_back(from);
        std::reverse(path.begin(), path.end());
        return path;
      }
      queue.emplace_back(neighbor, depth + 1);
    }
  }
  return {};
}

std::vector<Ekg::Hyperedge> Ekg::HyperedgesOf(NodeId node) const {
  std::vector<Hyperedge> out;
  for (const Hyperedge& h : hyperedges_) {
    if (std::find(h.nodes.begin(), h.nodes.end(), node) != h.nodes.end()) {
      out.push_back(h);
    }
  }
  return out;
}

std::vector<Ekg::NodeId> Ekg::HyperedgeNodes(std::string_view label) const {
  for (const Hyperedge& h : hyperedges_) {
    if (h.label == label) return h.nodes;
  }
  return {};
}

}  // namespace lakekit::metamodel
