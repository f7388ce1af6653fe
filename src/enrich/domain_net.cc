#include "enrich/domain_net.h"

#include <algorithm>
#include <set>

namespace lakekit::enrich {

namespace {

/// Label-propagation iterations over the value-attribute graph.
constexpr int kPropagationIterations = 10;
/// Minimum attribute count for a value to be considered (values in one
/// attribute cannot be homographs).
constexpr size_t kMinAttributeCount = 2;

}  // namespace

void DomainNet::Build(const discovery::Corpus& corpus) {
  attributes_of_value_.clear();
  community_of_.clear();

  std::vector<uint64_t> attribute_ids;
  for (const discovery::ColumnSketch& s : corpus.sketches()) {
    if (!s.is_textual()) continue;
    attribute_ids.push_back(s.id.Packed());
    for (uint32_t v : s.sorted_values) {
      attributes_of_value_[std::string(corpus.dictionary()[v])].push_back(
          s.id.Packed());
    }
  }

  // Initialize each attribute to its own community label.
  for (uint64_t id : attribute_ids) community_of_[id] = id;

  // Shared-value edge weights of the attribute projection: two attributes
  // are neighbors when they share a value.
  std::map<uint64_t, std::map<uint64_t, size_t>> neighbor_weight;
  for (const auto& [value, attrs] : attributes_of_value_) {
    for (uint64_t a : attrs) {
      for (uint64_t b : attrs) {
        if (a != b) ++neighbor_weight[a][b];
      }
    }
  }

  // Asynchronous label propagation: attributes (in sorted order for
  // determinism) adopt the weight-dominant label among their neighbors,
  // updating in place — the asynchronous schedule avoids the label-swap
  // oscillation of synchronous updates. Ties keep the smaller label.
  for (int iter = 0; iter < kPropagationIterations; ++iter) {
    bool changed = false;
    for (uint64_t attr : attribute_ids) {
      auto it = neighbor_weight.find(attr);
      if (it == neighbor_weight.end()) continue;
      std::map<uint64_t, size_t> ballot;  // label -> weight
      for (const auto& [neighbor, weight] : it->second) {
        ballot[community_of_[neighbor]] += weight;
      }
      uint64_t best_label = community_of_[attr];
      size_t best_votes = 0;
      for (const auto& [label, count] : ballot) {
        if (count > best_votes ||
            (count == best_votes && label < best_label)) {
          best_votes = count;
          best_label = label;
        }
      }
      if (best_label != community_of_[attr]) {
        community_of_[attr] = best_label;
        changed = true;
      }
    }
    if (!changed) break;
  }
}

Result<uint64_t> DomainNet::CommunityOf(discovery::ColumnId column) const {
  auto it = community_of_.find(column.Packed());
  if (it == community_of_.end()) {
    return Status::NotFound("column not part of the DomainNet network");
  }
  return it->second;
}

size_t DomainNet::num_communities() const {
  std::set<uint64_t> labels;
  for (const auto& [attr, label] : community_of_) labels.insert(label);
  return labels.size();
}

double DomainNet::HomographScore(const std::string& value) const {
  auto it = attributes_of_value_.find(value);
  if (it == attributes_of_value_.end()) return 0.0;
  std::set<uint64_t> communities;
  for (uint64_t attr : it->second) {
    communities.insert(community_of_.at(attr));
  }
  return static_cast<double>(communities.size());
}

std::vector<Homograph> DomainNet::FindHomographs() const {
  std::vector<Homograph> out;
  for (const auto& [value, attrs] : attributes_of_value_) {
    if (attrs.size() < kMinAttributeCount) continue;
    std::set<uint64_t> communities;
    for (uint64_t attr : attrs) communities.insert(community_of_.at(attr));
    if (communities.size() >= 2) {
      out.push_back(Homograph{value, communities.size(),
                              static_cast<double>(communities.size())});
    }
  }
  std::sort(out.begin(), out.end(), [](const Homograph& a, const Homograph& b) {
    if (a.score != b.score) return a.score > b.score;
    return a.value < b.value;
  });
  return out;
}

}  // namespace lakekit::enrich
