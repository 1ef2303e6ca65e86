// Small string helpers shared across modules.
#pragma once

#include <string>
#include <string_view>
#include <vector>

namespace blaeu {

/// Removes leading and trailing C-locale whitespace (the six bytes
/// std::isspace accepts there: space, \t, \n, \v, \f and \r).
std::string_view Trim(std::string_view s);

/// Joins `parts` with `sep`.
std::string Join(const std::vector<std::string>& parts,
                 std::string_view sep);

/// Lower-cases ASCII characters.
std::string ToLower(std::string_view s);

/// True if `s` parses fully as a finite double; stores it in *out.
bool ParseDouble(std::string_view s, double* out);

/// True if `s` parses fully as an int64; stores it in *out.
bool ParseInt(std::string_view s, int64_t* out);

/// Formats a double compactly (up to `precision` significant digits, no
/// trailing zeros).
std::string FormatDouble(double v, int precision = 6);

/// Wraps `s` in `quote` and doubles each `quote` inside it: how CSV quotes a
/// field, and SQL an identifier ('"') or a string literal ('\'').
std::string Quote(std::string_view s, char quote);

/// Puts a backslash before each '\' and '"' in `s` and writes a newline as
/// \n: how an OpenMetrics label value and a Graphviz DOT label escape text
/// inside double quotes.
std::string BackslashEscape(std::string_view s);

/// Escapes a CSV field (quotes it when it contains a comma, a quote, a CR
/// or a newline).
std::string CsvEscape(std::string_view field);

}  // namespace blaeu
