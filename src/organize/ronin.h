#ifndef LAKEKIT_ORGANIZE_RONIN_H_
#define LAKEKIT_ORGANIZE_RONIN_H_

#include <memory>
#include <string>
#include <vector>

#include "discovery/josie.h"
#include "organize/org_dag.h"

namespace lakekit::organize {

/// One exploration hit with the evidence that produced it.
struct RoninHit {
  size_t table_idx = 0;
  std::string table_name;
  double score = 0;
  /// Which signals contributed: navigation, keyword, join expansion.
  double navigation_score = 0;
  double keyword_score = 0;
  double join_score = 0;
};

/// RONIN (survey Sec. 6.1.3): interactive data lake exploration that
/// *combines* the organization DAG's navigation with metadata keyword
/// search and joinable-dataset search. A query of free-text terms is scored
/// against every table by (a) the organization's Markov discovery
/// probability and (b) keyword overlap with attribute names and values;
/// top seeds are then expanded with their JOSIE-joinable neighbors, so the
/// user reaches tables that match the topic *or* join what matches it.
class RoninExplorer {
 public:
  /// All inputs must outlive the explorer. `josie` must be built.
  RoninExplorer(const discovery::Corpus* corpus, const Organization* org,
                const discovery::JosieFinder* josie)
      : corpus_(corpus), org_(org), josie_(josie) {}

  /// Top-k tables for a free-text query.
  std::vector<RoninHit> Explore(const std::vector<std::string>& query_terms,
                                size_t k) const;

  /// Keyword score of one table in [0,1]: fraction of query tokens found
  /// among the table's attribute-name tokens or distinct values.
  double KeywordScore(size_t table_idx,
                      const std::vector<std::string>& query_terms) const;

 private:
  const discovery::Corpus* corpus_;
  const Organization* org_;
  const discovery::JosieFinder* josie_;
};

}  // namespace lakekit::organize

#endif  // LAKEKIT_ORGANIZE_RONIN_H_
