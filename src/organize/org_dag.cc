#include "organize/org_dag.h"

#include <algorithm>
#include <cmath>

#include "text/tokenize.h"

namespace lakekit::organize {

namespace {

/// Fan-out of internal nodes (children merged per agglomeration round).
constexpr size_t kFanout = 4;
/// Softmax temperature of the navigation Markov model: lower = sharper
/// child choices.
constexpr double kTemperature = 0.2;

text::DenseVector MeanVector(const std::vector<text::DenseVector>& vectors) {
  text::DenseVector mean;
  if (vectors.empty()) return mean;
  mean.assign(vectors[0].size(), 0.0);
  for (const auto& v : vectors) {
    for (size_t i = 0; i < mean.size(); ++i) mean[i] += v[i];
  }
  double norm = 0;
  for (double x : mean) norm += x * x;
  norm = std::sqrt(norm);
  if (norm > 0) {
    for (double& x : mean) x /= norm;
  }
  return mean;
}

}  // namespace

Result<Organization> Organization::Build(const discovery::Corpus* corpus) {
  if (corpus->num_tables() == 0) {
    return Status::InvalidArgument("cannot organize an empty corpus");
  }
  Organization org(corpus);

  // Leaves: one per table, topic = mean of textual column embeddings
  // (falling back to name-token embeddings when a table has no text).
  std::vector<size_t> frontier;
  for (size_t t = 0; t < corpus->num_tables(); ++t) {
    OrgNode leaf;
    leaf.id = org.nodes_.size();
    leaf.table_idx = t;
    std::vector<text::DenseVector> vectors;
    for (const discovery::ColumnSketch* s : corpus->TableSketches(t)) {
      leaf.attribute_names.push_back(s->column_name);
      if (s->is_textual()) {
        vectors.push_back(s->embedding);
      }
    }
    if (vectors.empty()) {
      std::vector<std::string> tokens;
      for (const std::string& n : leaf.attribute_names) {
        for (const std::string& tok : text::Tokenize(n)) tokens.push_back(tok);
      }
      vectors.push_back(corpus->embedder().EmbedAll(tokens));
    }
    leaf.topic = MeanVector(vectors);
    frontier.push_back(leaf.id);
    org.nodes_.push_back(std::move(leaf));
  }

  // Agglomerate bottom-up: greedily group the frontier into clusters of
  // `kFanout` topic-similar nodes until a single root remains.
  while (frontier.size() > 1) {
    std::vector<bool> used(frontier.size(), false);
    std::vector<size_t> next_frontier;
    for (size_t i = 0; i < frontier.size(); ++i) {
      if (used[i]) continue;
      used[i] = true;
      std::vector<size_t> group{frontier[i]};
      // Pick the most similar unused nodes as siblings.
      std::vector<std::pair<double, size_t>> sims;
      for (size_t j = i + 1; j < frontier.size(); ++j) {
        if (used[j]) continue;
        sims.emplace_back(
            text::CosineSimilarity(org.nodes_[frontier[i]].topic,
                                   org.nodes_[frontier[j]].topic),
            j);
      }
      std::sort(sims.begin(), sims.end(),
                [](const auto& a, const auto& b) { return a.first > b.first; });
      for (size_t s = 0; s < sims.size() && group.size() < kFanout; ++s) {
        used[sims[s].second] = true;
        group.push_back(frontier[sims[s].second]);
      }
      // Parent node summarizing the group.
      OrgNode parent;
      parent.id = org.nodes_.size();
      std::vector<text::DenseVector> topics;
      for (size_t child_id : group) {
        topics.push_back(org.nodes_[child_id].topic);
        for (const std::string& a : org.nodes_[child_id].attribute_names) {
          parent.attribute_names.push_back(a);
        }
      }
      parent.topic = MeanVector(topics);
      parent.children = group;
      next_frontier.push_back(parent.id);
      org.nodes_.push_back(parent);
      for (size_t child_id : group) {
        org.nodes_[child_id].parent = static_cast<int>(parent.id);
      }
    }
    frontier = std::move(next_frontier);
  }
  org.root_ = frontier[0];
  return org;
}

std::vector<double> Organization::TransitionProbabilities(
    const OrgNode& node, const text::DenseVector& query) const {
  std::vector<double> probs(node.children.size(), 0.0);
  if (node.children.empty()) return probs;
  double max_sim = -1e9;
  std::vector<double> sims(node.children.size());
  for (size_t i = 0; i < node.children.size(); ++i) {
    sims[i] = text::CosineSimilarity(nodes_[node.children[i]].topic, query);
    max_sim = std::max(max_sim, sims[i]);
  }
  double total = 0;
  for (size_t i = 0; i < sims.size(); ++i) {
    probs[i] = std::exp((sims[i] - max_sim) / kTemperature);
    total += probs[i];
  }
  for (double& p : probs) p /= total;
  return probs;
}

namespace {

/// Query terms arrive as raw values ("vehicle_color"); column sketches are
/// embedded from *tokenized* values, so queries must tokenize the same way
/// for the vectors to align.
std::vector<std::string> QueryTokens(const std::vector<std::string>& terms) {
  std::vector<std::string> tokens;
  for (const std::string& term : terms) {
    for (const std::string& tok : text::Tokenize(term)) {
      tokens.push_back(tok);
    }
  }
  return tokens;
}

}  // namespace

double Organization::DiscoveryProbability(
    const std::vector<std::string>& query_terms, size_t table_idx) const {
  text::DenseVector query =
      corpus_->embedder().EmbedAll(QueryTokens(query_terms));
  // Find the leaf for table_idx, then multiply transition probabilities
  // down the root path.
  const OrgNode* leaf = nullptr;
  for (const OrgNode& n : nodes_) {
    if (n.is_leaf() && n.table_idx == table_idx) {
      leaf = &n;
      break;
    }
  }
  if (leaf == nullptr) return 0.0;
  // Path from leaf up to root.
  std::vector<size_t> path;
  for (int id = static_cast<int>(leaf->id); id != -1;
       id = nodes_[static_cast<size_t>(id)].parent) {
    path.push_back(static_cast<size_t>(id));
  }
  std::reverse(path.begin(), path.end());  // root .. leaf
  double prob = 1.0;
  for (size_t i = 0; i + 1 < path.size(); ++i) {
    const OrgNode& node = nodes_[path[i]];
    std::vector<double> probs = TransitionProbabilities(node, query);
    for (size_t c = 0; c < node.children.size(); ++c) {
      if (node.children[c] == path[i + 1]) {
        prob *= probs[c];
        break;
      }
    }
  }
  return prob;
}

Result<size_t> Organization::Navigate(
    const std::vector<std::string>& query_terms) const {
  text::DenseVector query =
      corpus_->embedder().EmbedAll(QueryTokens(query_terms));
  size_t current = root_;
  while (!nodes_[current].is_leaf()) {
    const OrgNode& node = nodes_[current];
    if (node.children.empty()) {
      return Status::Internal("internal node without children");
    }
    std::vector<double> probs = TransitionProbabilities(node, query);
    size_t best = 0;
    for (size_t i = 1; i < probs.size(); ++i) {
      if (probs[i] > probs[best]) best = i;
    }
    current = node.children[best];
  }
  return nodes_[current].table_idx;
}

double Organization::FlatBaselineProbability() const {
  return corpus_->num_tables() == 0
             ? 0.0
             : 1.0 / static_cast<double>(corpus_->num_tables());
}

double Organization::MeanDepth() const {
  double total = 0;
  size_t leaves = 0;
  for (const OrgNode& n : nodes_) {
    if (!n.is_leaf()) continue;
    size_t depth = 0;
    for (int id = static_cast<int>(n.id); id != -1;
         id = nodes_[static_cast<size_t>(id)].parent) {
      ++depth;
    }
    total += static_cast<double>(depth - 1);
    ++leaves;
  }
  return leaves == 0 ? 0.0 : total / static_cast<double>(leaves);
}

}  // namespace lakekit::organize
