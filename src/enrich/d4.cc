#include "enrich/d4.h"

#include <algorithm>
#include <functional>
#include <numeric>
#include <unordered_map>

namespace lakekit::enrich {

namespace {

/// Columns whose term sets have Jaccard >= this are assumed to draw from
/// one domain.
constexpr double kColumnSimilarityThreshold = 0.25;
/// A term belongs to a domain when it appears in at least this fraction
/// of the domain's columns (robustness against ambiguous terms — D4's
/// local-frequency signal).
constexpr double kTermSupportFraction = 0.3;
/// Only textual columns with at least this many distinct terms take part.
constexpr size_t kMinColumnTerms = 3;

}  // namespace

std::vector<Domain> D4DomainDiscovery::Discover(
    const discovery::Corpus& corpus) const {
  // Participating columns.
  std::vector<const discovery::ColumnSketch*> columns;
  for (const discovery::ColumnSketch& s : corpus.sketches()) {
    if (s.is_textual() && s.sorted_values.size() >= kMinColumnTerms) {
      columns.push_back(&s);
    }
  }

  // Union-find clustering by exact term-set Jaccard.
  std::vector<size_t> parent(columns.size());
  std::iota(parent.begin(), parent.end(), 0);
  std::function<size_t(size_t)> find = [&](size_t x) {
    while (parent[x] != x) {
      parent[x] = parent[parent[x]];
      x = parent[x];
    }
    return x;
  };
  for (size_t i = 0; i < columns.size(); ++i) {
    for (size_t j = i + 1; j < columns.size(); ++j) {
      if (discovery::ExactJaccard(*columns[i], *columns[j]) >=
          kColumnSimilarityThreshold) {
        parent[find(i)] = find(j);
      }
    }
  }

  // Collect clusters and derive domain term sets by local support.
  std::unordered_map<size_t, std::vector<size_t>> clusters;
  for (size_t i = 0; i < columns.size(); ++i) {
    clusters[find(i)].push_back(i);
  }
  std::vector<Domain> domains;
  for (auto& [root, members] : clusters) {
    Domain d;
    d.id = domains.size();
    std::unordered_map<uint32_t, size_t> term_support;
    for (size_t m : members) {
      d.columns.push_back(columns[m]->id);
      for (uint32_t term : columns[m]->sorted_values) ++term_support[term];
    }
    const double min_support = std::max(
        1.0, kTermSupportFraction * static_cast<double>(members.size()));
    for (const auto& [term, support] : term_support) {
      if (static_cast<double>(support) >= min_support) {
        d.terms.emplace_back(corpus.dictionary()[term]);
      }
    }
    std::sort(d.terms.begin(), d.terms.end());
    std::sort(d.columns.begin(), d.columns.end());
    domains.push_back(std::move(d));
  }
  // Deterministic order: largest domain first, then by first column id.
  std::sort(domains.begin(), domains.end(), [](const Domain& a, const Domain& b) {
    if (a.columns.size() != b.columns.size()) {
      return a.columns.size() > b.columns.size();
    }
    return a.columns.front().Packed() < b.columns.front().Packed();
  });
  for (size_t i = 0; i < domains.size(); ++i) domains[i].id = i;
  return domains;
}

std::vector<size_t> D4DomainDiscovery::DomainsOfTerm(
    const std::vector<Domain>& domains, const std::string& term) {
  std::vector<size_t> out;
  for (const Domain& d : domains) {
    if (std::binary_search(d.terms.begin(), d.terms.end(), term)) {
      out.push_back(d.id);
    }
  }
  return out;
}

}  // namespace lakekit::enrich
