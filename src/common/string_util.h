#ifndef SEMANDAQ_COMMON_STRING_UTIL_H_
#define SEMANDAQ_COMMON_STRING_UTIL_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace semandaq::common {

/// Splits `s` on every occurrence of `sep`; empty fields are kept.
std::vector<std::string> Split(std::string_view s, char sep);

/// Joins `parts` with `sep` between consecutive elements.
std::string Join(const std::vector<std::string>& parts, std::string_view sep);

/// Strips ASCII whitespace from both ends.
std::string_view Trim(std::string_view s);

/// ASCII-lowercases a copy of `s`.
std::string ToLower(std::string_view s);

/// ASCII-uppercases a copy of `s`.
std::string ToUpper(std::string_view s);

/// True when `s` begins with `prefix`.
bool StartsWith(std::string_view s, std::string_view prefix);

/// True when `s` ends with `suffix`.
bool EndsWith(std::string_view s, std::string_view suffix);

/// Case-insensitive ASCII equality.
bool EqualsIgnoreCase(std::string_view a, std::string_view b);

/// Doubles embedded quotes and wraps in quotes, producing a SQL string
/// literal (Abe's -> 'Abe''s') or, with quote = '"', a quoted identifier.
std::string QuoteSqlString(std::string_view s, char quote = '\'');

/// Damerau-Levenshtein edit distance (insert / delete / substitute /
/// transpose-adjacent), the string-similarity primitive of the repair cost
/// model of Cong et al. (VLDB'07).
size_t DamerauLevenshtein(std::string_view a, std::string_view b);

/// dist(a,b) / max(|a|,|b|) in [0,1]; 0 for two empty strings.
double NormalizedEditDistance(std::string_view a, std::string_view b);

/// SQL LIKE with '%' (any run) and '_' (any one char); case sensitive.
bool LikeMatch(std::string_view text, std::string_view pattern);

/// Parses a full string as a signed 64-bit integer. Returns false on any
/// trailing garbage, overflow, or empty input.
bool ParseInt64(std::string_view s, int64_t* out);

/// Parses a full string as a double. Returns false on trailing garbage or
/// empty input.
bool ParseDouble(std::string_view s, double* out);

/// Formats a double without trailing zero noise ("2", "2.5", "0.125").
std::string FormatDouble(double v);

}  // namespace semandaq::common

#endif  // SEMANDAQ_COMMON_STRING_UTIL_H_
