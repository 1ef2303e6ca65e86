#include "common/string_util.h"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace blaeu {

namespace {

/// std::isspace in the C locale (' ', \t, \n, \v, \f, \r), inline; the
/// program never calls setlocale.
bool IsSpace(char c) { return c == ' ' || (c >= '\t' && c <= '\r'); }

}  // namespace

std::string_view Trim(std::string_view s) {
  size_t b = 0, e = s.size();
  while (b < e && IsSpace(s[b])) ++b;
  while (e > b && IsSpace(s[e - 1])) --e;
  return s.substr(b, e - b);
}

std::string Join(const std::vector<std::string>& parts,
                 std::string_view sep) {
  std::string out;
  for (size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) out.append(sep);
    out.append(parts[i]);
  }
  return out;
}

std::string ToLower(std::string_view s) {
  std::string out(s);
  std::transform(out.begin(), out.end(), out.begin(), [](unsigned char c) {
    return static_cast<char>(std::tolower(c));
  });
  return out;
}

bool ParseDouble(std::string_view s, double* out) {
  s = Trim(s);
  if (s.empty()) return false;
  // std::from_chars<double> is available in libstdc++ >= 11.
  const char* begin = s.data();
  const char* end = s.data() + s.size();
  auto [ptr, ec] = std::from_chars(begin, end, *out);
  if (ec != std::errc() || ptr != end) return false;
  return std::isfinite(*out);
}

bool ParseInt(std::string_view s, int64_t* out) {
  s = Trim(s);
  if (s.empty()) return false;
  const char* begin = s.data();
  const char* end = s.data() + s.size();
  auto [ptr, ec] = std::from_chars(begin, end, *out);
  return ec == std::errc() && ptr == end;
}

std::string FormatDouble(double v, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*g", precision, v);
  return buf;
}

std::string Quote(std::string_view s, char quote) {
  std::string out;
  out.reserve(s.size() + 2);
  out.push_back(quote);
  for (char c : s) {
    if (c == quote) out.push_back(quote);
    out.push_back(c);
  }
  out.push_back(quote);
  return out;
}

std::string BackslashEscape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    if (c == '\\') {
      out += "\\\\";
    } else if (c == '"') {
      out += "\\\"";
    } else if (c == '\n') {
      out += "\\n";
    } else {
      out += c;
    }
  }
  return out;
}

std::string CsvEscape(std::string_view field) {
  bool needs_quote =
      field.find(',') != std::string_view::npos ||
      field.find('"') != std::string_view::npos ||
      field.find('\n') != std::string_view::npos ||
      field.find('\r') != std::string_view::npos;
  return needs_quote ? Quote(field, '"') : std::string(field);
}

}  // namespace blaeu
