#ifndef QEC_COMMON_STRING_UTIL_H_
#define QEC_COMMON_STRING_UTIL_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace qec {

/// Returns a lowercase (ASCII) copy of `s`.
std::string AsciiLower(std::string_view s);

/// Strips leading and trailing ASCII whitespace.
std::string_view TrimWhitespace(std::string_view s);

/// Splits `s` at every occurrence of `sep`; empty pieces are kept.
std::vector<std::string> Split(std::string_view s, char sep);

/// Joins `parts` with `sep` between consecutive elements.
std::string Join(const std::vector<std::string>& parts, std::string_view sep);

/// True if `s` starts with `prefix`.
bool StartsWith(std::string_view s, std::string_view prefix);

/// True if `s` ends with `suffix`.
bool EndsWith(std::string_view s, std::string_view suffix);

/// Formats a double with `digits` digits after the decimal point.
std::string FormatDouble(double v, int digits);

/// Strict unsigned decimal: digits only, no leading whitespace/'+'/'-'
/// (strtoull accepts all three — and wraps "-1" to 2^64-1), overflow
/// rejected.
bool ParseSize(std::string_view text, uint64_t* out);

/// Strict finite double: all of `text` is one strtod number with no
/// leading whitespace; inf and nan are rejected.
bool ParseDouble(std::string_view text, double* out);

}  // namespace qec

#endif  // QEC_COMMON_STRING_UTIL_H_
