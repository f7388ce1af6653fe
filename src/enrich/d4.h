#ifndef LAKEKIT_ENRICH_D4_H_
#define LAKEKIT_ENRICH_D4_H_

#include <map>
#include <string>
#include <vector>

#include "discovery/corpus.h"

namespace lakekit::enrich {

/// One discovered semantic domain: a set of terms plus the columns it draws
/// from (D4's "domain as a set of terms", survey Sec. 6.4.1 — e.g.
/// {red, white, black, ...} recovered from vehicle_color, cloth_color, ...).
struct Domain {
  size_t id = 0;
  std::vector<std::string> terms;
  std::vector<discovery::ColumnId> columns;
};

/// D4 — data-driven domain discovery over all textual columns of a corpus:
/// columns cluster by term-set overlap (transitive, union-find), and each
/// cluster's domain keeps the terms with sufficient local support, so an
/// ambiguous term (D4's "Apple" example) joins every domain where it is
/// locally frequent rather than gluing unrelated domains together.
class D4DomainDiscovery {
 public:
  /// Runs discovery over every textual column of the corpus.
  std::vector<Domain> Discover(const discovery::Corpus& corpus) const;

  /// Domains containing `term` (by id), given a Discover() result.
  static std::vector<size_t> DomainsOfTerm(const std::vector<Domain>& domains,
                                           const std::string& term);
};

}  // namespace lakekit::enrich

#endif  // LAKEKIT_ENRICH_D4_H_
