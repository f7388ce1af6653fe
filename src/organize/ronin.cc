#include "organize/ronin.h"

#include <algorithm>
#include <map>
#include <unordered_set>

#include "text/tokenize.h"

namespace lakekit::organize {

namespace {

/// Blend weights of the three exploration modes.
constexpr double kNavigationWeight = 0.5;
constexpr double kKeywordWeight = 0.5;
/// Joinable neighbors of seed tables get seed_score * this.
constexpr double kJoinExpansionFactor = 0.5;

}  // namespace

double RoninExplorer::KeywordScore(
    size_t table_idx, const std::vector<std::string>& query_terms) const {
  // Token pool: attribute-name tokens + tokenized distinct values.
  std::unordered_set<std::string> pool;
  for (const discovery::ColumnSketch* s : corpus_->TableSketches(table_idx)) {
    for (const std::string& t : s->name_tokens) pool.insert(t);
    for (uint32_t v : s->sorted_values) {
      for (std::string& t : text::Tokenize(corpus_->dictionary()[v])) {
        pool.insert(std::move(t));
      }
    }
  }
  size_t hits = 0;
  size_t total = 0;
  for (const std::string& term : query_terms) {
    for (const std::string& token : text::Tokenize(term)) {
      ++total;
      if (pool.count(token) > 0) ++hits;
    }
  }
  return total == 0 ? 0.0
                    : static_cast<double>(hits) / static_cast<double>(total);
}

std::vector<RoninHit> RoninExplorer::Explore(
    const std::vector<std::string>& query_terms, size_t k) const {
  std::map<size_t, RoninHit> hits;
  for (size_t t = 0; t < corpus_->num_tables(); ++t) {
    RoninHit hit;
    hit.table_idx = t;
    hit.table_name = corpus_->table(t).name();
    hit.navigation_score = org_->DiscoveryProbability(query_terms, t);
    hit.keyword_score = KeywordScore(t, query_terms);
    hit.score = kNavigationWeight * hit.navigation_score +
                kKeywordWeight * hit.keyword_score;
    hits[t] = std::move(hit);
  }

  // Join expansion from the current top seeds: a table joinable with a
  // high-scoring seed inherits part of its score.
  std::vector<size_t> seeds;
  {
    std::vector<std::pair<double, size_t>> ranked;
    for (const auto& [t, h] : hits) ranked.emplace_back(h.score, t);
    std::sort(ranked.begin(), ranked.end(), std::greater<>());
    for (size_t i = 0; i < ranked.size() && i < k; ++i) {
      if (ranked[i].first > 0) seeds.push_back(ranked[i].second);
    }
  }
  for (size_t seed : seeds) {
    const double seed_score = hits[seed].score;
    for (const auto& match : josie_->TopKJoinableTables(seed, k)) {
      RoninHit& hit = hits[match.table_idx];
      double bonus = seed_score * kJoinExpansionFactor;
      if (bonus > hit.join_score) {
        hit.score += bonus - hit.join_score;
        hit.join_score = bonus;
      }
    }
  }

  std::vector<RoninHit> out;
  out.reserve(hits.size());
  for (auto& [t, h] : hits) {
    if (h.score > 0) out.push_back(std::move(h));
  }
  std::sort(out.begin(), out.end(), [](const RoninHit& a, const RoninHit& b) {
    if (a.score != b.score) return a.score > b.score;
    return a.table_idx < b.table_idx;
  });
  if (out.size() > k) out.resize(k);
  return out;
}

}  // namespace lakekit::organize
