// Small string helpers shared by the tag-file parser and report writers.

#ifndef HWPROF_SRC_BASE_STRINGS_H_
#define HWPROF_SRC_BASE_STRINGS_H_

#include <cstdarg>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace hwprof {

// printf-style formatting into a std::string.
std::string StrFormat(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

// Splits `s` on `sep`, keeping empty fields.
std::vector<std::string_view> Split(std::string_view s, char sep);

// Splits `s` into lines, dropping a single trailing empty line from a final
// newline.
std::vector<std::string_view> SplitLines(std::string_view s);

// Removes leading/trailing ASCII whitespace.
std::string_view StripWhitespace(std::string_view s);

// True if `s` begins with `prefix`.
bool StartsWith(std::string_view s, std::string_view prefix);

// True if `s` ends with `suffix`.
bool EndsWith(std::string_view s, std::string_view suffix);

// Parses a non-negative decimal integer; returns false on any malformed input
// (empty, non-digits, overflow past 2^63).
bool ParseUint(std::string_view s, std::uint64_t* out);

// Appends the decimal digits of `v` to `out`.
void AppendUint(std::uint64_t v, std::string* out);

// Appends `s` to `out` as a quoted JSON string: '"', '\\', newline, tab and
// carriage return get their short escapes, every other byte below 0x20 is
// written as \u00XX, and all remaining bytes pass through unchanged.
void AppendJsonString(std::string_view s, std::string* out);

}  // namespace hwprof

#endif  // HWPROF_SRC_BASE_STRINGS_H_
