#ifndef LAKEKIT_ORGANIZE_ORG_DAG_H_
#define LAKEKIT_ORGANIZE_ORG_DAG_H_

#include <string>
#include <vector>

#include "common/result.h"
#include "discovery/corpus.h"
#include "text/embedding.h"

namespace lakekit::organize {

/// One node of a data lake organization (Nargesian et al., survey
/// Sec. 6.1.3): a set of attributes summarized by a topic vector. Leaves
/// correspond to tables; internal nodes to merged attribute sets.
struct OrgNode {
  size_t id = 0;
  /// -1 for the root.
  int parent = -1;
  std::vector<size_t> children;
  /// Table index for leaves; SIZE_MAX for internal nodes.
  size_t table_idx = static_cast<size_t>(-1);
  /// Topic vector: mean of member attribute embeddings.
  text::DenseVector topic;
  /// Attribute names summarized by the node (debugging / labels).
  std::vector<std::string> attribute_names;

  bool is_leaf() const { return table_idx != static_cast<size_t>(-1); }
};

/// A navigable organization of a data lake: a DAG (here a tree, the common
/// case in the paper) over attribute sets, built bottom-up by grouping
/// topic-similar tables, with a Markov navigation model: from any node, the
/// probability of stepping to a child is the softmax of child-topic /
/// query similarities — future states depend only on the current node.
/// The quality measure is the probability a navigating user reaches the
/// table they want, which the organization maximizes versus a flat listing.
class Organization {
 public:
  /// Builds the organization over every table of the corpus.
  static Result<Organization> Build(const discovery::Corpus* corpus);

  const std::vector<OrgNode>& nodes() const { return nodes_; }
  size_t root() const { return root_; }

  /// Navigation probability of reaching `table_idx` when looking for
  /// `query` terms: the product of Markov transition probabilities along
  /// the root-to-leaf path.
  double DiscoveryProbability(const std::vector<std::string>& query_terms,
                              size_t table_idx) const;

  /// Greedy navigation: repeatedly follow the most probable child; returns
  /// the reached table index.
  Result<size_t> Navigate(const std::vector<std::string>& query_terms) const;

  /// The baseline a user faces without an organization: uniform choice over
  /// all tables.
  double FlatBaselineProbability() const;

  /// Expected path length from root to any leaf.
  double MeanDepth() const;

 private:
  explicit Organization(const discovery::Corpus* corpus) : corpus_(corpus) {}

  /// Transition distribution over `node`'s children for a query vector.
  std::vector<double> TransitionProbabilities(
      const OrgNode& node, const text::DenseVector& query) const;

  const discovery::Corpus* corpus_;
  std::vector<OrgNode> nodes_;
  size_t root_ = 0;
};

}  // namespace lakekit::organize

#endif  // LAKEKIT_ORGANIZE_ORG_DAG_H_
