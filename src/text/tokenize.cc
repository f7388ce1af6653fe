#include "text/tokenize.h"

#include <algorithm>
#include <cctype>

#include "common/string_util.h"

namespace lakekit::text {

std::vector<std::string> Tokenize(std::string_view input) {
  std::vector<std::string> tokens;
  std::string current;
  for (char raw : input) {
    unsigned char c = static_cast<unsigned char>(raw);
    if (std::isalnum(c)) {
      current.push_back(static_cast<char>(std::tolower(c)));
    } else if (!current.empty()) {
      tokens.push_back(std::move(current));
      current.clear();
    }
  }
  if (!current.empty()) tokens.push_back(std::move(current));
  return tokens;
}

std::vector<std::string> QGrams(std::string_view input, size_t q) {
  std::string padded;
  padded.reserve(input.size() + 2 * (q - 1));
  padded.append(q - 1, '$');
  padded += ToLower(input);
  padded.append(q - 1, '$');
  std::vector<std::string> grams;
  if (padded.size() < q) return grams;
  grams.reserve(padded.size() - q + 1);
  for (size_t i = 0; i + q <= padded.size(); ++i) {
    grams.push_back(padded.substr(i, q));
  }
  return grams;
}

std::vector<uint32_t> NameGrams(std::string_view input) {
  const std::string padded = "$$" + ToLower(input) + "$$";
  std::vector<uint32_t> grams;
  grams.reserve(padded.size() - 2);
  for (size_t i = 0; i + 3 <= padded.size(); ++i) {
    const auto byte = [&](size_t k) {
      return static_cast<uint32_t>(static_cast<unsigned char>(padded[i + k]));
    };
    grams.push_back(byte(0) << 16 | byte(1) << 8 | byte(2));
  }
  std::sort(grams.begin(), grams.end());
  grams.erase(std::unique(grams.begin(), grams.end()), grams.end());
  return grams;
}

size_t SortedOverlap(const std::vector<uint32_t>& a,
                     const std::vector<uint32_t>& b) {
  // Disjoint id ranges share nothing. Dictionary ids follow first
  // appearance, so columns that share no value mostly end here.
  if (a.empty() || b.empty() || a.back() < b.front() ||
      b.back() < a.front()) {
    return 0;
  }
  size_t overlap = 0;
  auto it = a.begin();
  auto jt = b.begin();
  while (it != a.end() && jt != b.end()) {
    if (*it < *jt) {
      ++it;
    } else if (*jt < *it) {
      ++jt;
    } else {
      ++overlap;
      ++it;
      ++jt;
    }
  }
  return overlap;
}

double GramJaccard(const std::vector<uint32_t>& a,
                   const std::vector<uint32_t>& b) {
  if (a.empty() && b.empty()) return 1.0;
  const size_t inter = SortedOverlap(a, b);
  const size_t uni = a.size() + b.size() - inter;
  return static_cast<double>(inter) / static_cast<double>(uni);
}

}  // namespace lakekit::text
