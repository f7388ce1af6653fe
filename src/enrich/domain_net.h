#ifndef LAKEKIT_ENRICH_DOMAIN_NET_H_
#define LAKEKIT_ENRICH_DOMAIN_NET_H_

#include <cstdint>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "discovery/corpus.h"

namespace lakekit::enrich {

/// A value flagged as a homograph: it appears in attributes belonging to
/// multiple value communities (DomainNet's "Apple: fruit or brand?",
/// survey Sec. 6.4.1).
struct Homograph {
  std::string value;
  /// Distinct communities among the attributes containing the value.
  size_t num_communities = 0;
  /// Homograph score: num_communities (>= 2 means ambiguous).
  double score = 0;
};

/// DomainNet: builds the bipartite network of data values and the attributes
/// (columns) containing them, detects communities with synchronous label
/// propagation on the attribute side, and flags values whose attribute
/// neighborhoods span multiple communities as homographs.
class DomainNet {
 public:
  /// Runs community detection over the corpus's textual columns.
  void Build(const discovery::Corpus& corpus);

  /// Community label of an attribute (column), by packed id.
  Result<uint64_t> CommunityOf(discovery::ColumnId column) const;

  size_t num_communities() const;

  /// All values bridging >= 2 communities, by descending score.
  std::vector<Homograph> FindHomographs() const;

  /// Homograph score of one value (1 when unambiguous, 0 when unknown).
  double HomographScore(const std::string& value) const;

 private:
  /// value -> packed column ids containing it.
  std::unordered_map<std::string, std::vector<uint64_t>> attributes_of_value_;
  /// packed column id -> community label.
  std::map<uint64_t, uint64_t> community_of_;
};

}  // namespace lakekit::enrich

#endif  // LAKEKIT_ENRICH_DOMAIN_NET_H_
