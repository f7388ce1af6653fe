#ifndef LAKEKIT_COMMON_STRING_UTIL_H_
#define LAKEKIT_COMMON_STRING_UTIL_H_

#include <string>
#include <string_view>
#include <vector>

namespace lakekit {

/// Splits `input` on every occurrence of `delim`. Consecutive delimiters
/// produce empty fields; an empty input yields a single empty field.
std::vector<std::string> Split(std::string_view input, char delim);

/// Joins `parts` with `delim` between consecutive elements.
std::string Join(const std::vector<std::string>& parts,
                 std::string_view delim);

/// Removes ASCII whitespace from both ends.
std::string_view Trim(std::string_view input);

/// ASCII lower-casing (locale independent).
std::string ToLower(std::string_view input);

bool StartsWith(std::string_view s, std::string_view prefix);
bool EndsWith(std::string_view s, std::string_view suffix);

/// True if every character is an ASCII digit and the string is non-empty
/// (an optional leading '-' is allowed).
bool LooksLikeInteger(std::string_view s);

/// Replaces every occurrence of `from` in `s` with `to`.
std::string ReplaceAll(std::string s, std::string_view from,
                       std::string_view to);

}  // namespace lakekit

#endif  // LAKEKIT_COMMON_STRING_UTIL_H_
