#ifndef LAKEKIT_TESTS_NAME_GRAM_ORACLE_H_
#define LAKEKIT_TESTS_NAME_GRAM_ORACLE_H_

// The string form of the attribute-name signal: Jaccard over the string
// q-grams of two names, recomputed per pair. Column sketches now store the
// grams packed and sorted (text::NameGrams, text::GramJaccard); this is the
// oracle the packed form must match bit for bit.

#include <string>
#include <string_view>
#include <unordered_set>
#include <vector>

#include "common/random.h"
#include "text/tokenize.h"

namespace lakekit::oracle {

/// Jaccard similarity of two token multisets treated as sets; 1 when both
/// are empty.
inline double JaccardSimilarity(const std::vector<std::string>& a,
                                const std::vector<std::string>& b) {
  if (a.empty() && b.empty()) return 1.0;
  std::unordered_set<std::string> sa(a.begin(), a.end());
  std::unordered_set<std::string> sb(b.begin(), b.end());
  size_t inter = 0;
  for (const auto& t : sa) {
    if (sb.count(t) > 0) ++inter;
  }
  size_t uni = sa.size() + sb.size() - inter;
  return uni == 0 ? 1.0 : static_cast<double>(inter) / static_cast<double>(uni);
}

/// The name signal as union search, D3L and Juneau computed it per pair.
inline double StringGramJaccard(std::string_view a, std::string_view b) {
  return JaccardSimilarity(text::QGrams(a, 3), text::QGrams(b, 3));
}

/// A random name of up to 12 bytes drawn from pieces that stress the
/// packed form: empty names, upper case, the '$' pad byte itself, and
/// bytes at or above 0x80.
inline std::string RandomName(Rng& rng) {
  static const char* const kPieces[] = {
      "", "a", "B", "id", "ID", "Name", "$", "$$", "_", "x1", "\xc3\xa9",
      "\xff", "\x80", "\xe2\x82\xac", " ", "AbC"};
  std::string name;
  const size_t pieces = rng.Below(5);
  for (size_t i = 0; i < pieces && name.size() < 12; ++i) {
    name += kPieces[rng.Below(sizeof(kPieces) / sizeof(kPieces[0]))];
  }
  return name;
}

}  // namespace lakekit::oracle

#endif  // LAKEKIT_TESTS_NAME_GRAM_ORACLE_H_
