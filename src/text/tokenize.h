#ifndef LAKEKIT_TEXT_TOKENIZE_H_
#define LAKEKIT_TEXT_TOKENIZE_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace lakekit::text {

/// Splits `input` into lowercase alphanumeric word tokens. Every run of
/// non-alphanumeric characters is a separator; "Vehicle_Color-2024" yields
/// {"vehicle", "color", "2024"}.
std::vector<std::string> Tokenize(std::string_view input);

/// Character q-grams of the lowercase input, with `q`-1 boundary padding
/// ('$'), e.g. QGrams("ab", 3) = {"$$a", "$ab", "ab$", "b$$"}... The padded
/// form makes short-string similarity better behaved.
std::vector<std::string> QGrams(std::string_view input, size_t q);

/// The distinct grams of `QGrams(input, 3)`, each packed into a uint32_t
/// (its three bytes, first byte highest), ascending. The set is the same, so
/// `GramJaccard` over two of these equals the Jaccard of the string grams
/// bit for bit; column sketches store it so a name comparison is one merge.
std::vector<uint32_t> NameGrams(std::string_view input);

/// |a ∩ b| of two ascending, duplicate-free vectors.
size_t SortedOverlap(const std::vector<uint32_t>& a,
                     const std::vector<uint32_t>& b);

/// Jaccard similarity of two `NameGrams` sets; 1 when both are empty.
double GramJaccard(const std::vector<uint32_t>& a,
                   const std::vector<uint32_t>& b);

}  // namespace lakekit::text

#endif  // LAKEKIT_TEXT_TOKENIZE_H_
