#include "integrate/schema_match.h"

#include <algorithm>
#include <unordered_set>

#include "text/tokenize.h"

namespace lakekit::integrate {

namespace {

/// Blend of the two matcher signals.
constexpr double kNameWeight = 0.5;
constexpr double kValueWeight = 0.5;
/// Pairs scoring below this are not matched. A pure value-overlap match
/// (renamed columns with shared instances) scores kValueWeight * Jaccard,
/// so renamed columns with >= ~60% value overlap are admitted.
constexpr double kThreshold = 0.3;
/// Values sampled per column for the instance-based matcher.
constexpr size_t kValueSample = 256;

}  // namespace

double SchemaMatcher::ColumnSimilarity(const table::Table& left,
                                       size_t left_col,
                                       const table::Table& right,
                                       size_t right_col) const {
  const table::Field& lf = left.schema().field(left_col);
  const table::Field& rf = right.schema().field(right_col);

  double name =
      text::GramJaccard(text::NameGrams(lf.name), text::NameGrams(rf.name));

  // Instance signal: Jaccard over sampled distinct values.
  auto sample_values = [&](const table::Table& t, size_t col) {
    std::unordered_set<std::string> values;
    for (const table::Value& v : t.column(col)) {
      if (v.is_null()) continue;
      values.insert(v.ToString());
      if (values.size() >= kValueSample) break;
    }
    return values;
  };
  std::unordered_set<std::string> lv = sample_values(left, left_col);
  std::unordered_set<std::string> rv = sample_values(right, right_col);
  double value_sim = 0;
  if (!lv.empty() || !rv.empty()) {
    size_t inter = 0;
    const auto& small = lv.size() <= rv.size() ? lv : rv;
    const auto& large = lv.size() <= rv.size() ? rv : lv;
    for (const std::string& v : small) {
      if (large.count(v) > 0) ++inter;
    }
    size_t uni = lv.size() + rv.size() - inter;
    value_sim = uni == 0 ? 0.0
                         : static_cast<double>(inter) /
                               static_cast<double>(uni);
  }

  double score = kNameWeight * name + kValueWeight * value_sim;
  if (lf.type != rf.type) score *= 0.6;
  return score;
}

std::vector<AttributeMatch> SchemaMatcher::Match(
    const table::Table& left, const table::Table& right) const {
  std::vector<AttributeMatch> candidates;
  for (size_t l = 0; l < left.num_columns(); ++l) {
    for (size_t r = 0; r < right.num_columns(); ++r) {
      double score = ColumnSimilarity(left, l, right, r);
      if (score >= kThreshold) {
        candidates.push_back(AttributeMatch{l, r, score});
      }
    }
  }
  std::sort(candidates.begin(), candidates.end(),
            [](const AttributeMatch& a, const AttributeMatch& b) {
              return a.score > b.score;
            });
  std::vector<bool> left_used(left.num_columns(), false);
  std::vector<bool> right_used(right.num_columns(), false);
  std::vector<AttributeMatch> matches;
  for (const AttributeMatch& c : candidates) {
    if (left_used[c.left_col] || right_used[c.right_col]) continue;
    left_used[c.left_col] = true;
    right_used[c.right_col] = true;
    matches.push_back(c);
  }
  return matches;
}

}  // namespace lakekit::integrate
