#include "common/string_util.h"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstdlib>

namespace semandaq::common {

std::vector<std::string> Split(std::string_view s, char sep) {
  std::vector<std::string> out;
  size_t start = 0;
  while (true) {
    size_t pos = s.find(sep, start);
    if (pos == std::string_view::npos) {
      out.emplace_back(s.substr(start));
      break;
    }
    out.emplace_back(s.substr(start, pos - start));
    start = pos + 1;
  }
  return out;
}

std::string Join(const std::vector<std::string>& parts, std::string_view sep) {
  std::string out;
  for (size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) out.append(sep);
    out.append(parts[i]);
  }
  return out;
}

std::string_view Trim(std::string_view s) {
  size_t b = 0;
  size_t e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return s.substr(b, e - b);
}

std::string ToLower(std::string_view s) {
  std::string out(s);
  std::transform(out.begin(), out.end(), out.begin(),
                 [](unsigned char c) { return static_cast<char>(std::tolower(c)); });
  return out;
}

std::string ToUpper(std::string_view s) {
  std::string out(s);
  std::transform(out.begin(), out.end(), out.begin(),
                 [](unsigned char c) { return static_cast<char>(std::toupper(c)); });
  return out;
}

bool StartsWith(std::string_view s, std::string_view prefix) {
  return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}

bool EndsWith(std::string_view s, std::string_view suffix) {
  return s.size() >= suffix.size() && s.substr(s.size() - suffix.size()) == suffix;
}

bool EqualsIgnoreCase(std::string_view a, std::string_view b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (std::tolower(static_cast<unsigned char>(a[i])) !=
        std::tolower(static_cast<unsigned char>(b[i]))) {
      return false;
    }
  }
  return true;
}

std::string QuoteSqlString(std::string_view s, char quote) {
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

size_t DamerauLevenshtein(std::string_view a, std::string_view b) {
  const size_t n = a.size();
  const size_t m = b.size();
  if (n == 0) return m;
  if (m == 0) return n;
  // Three rolling rows: i-2, i-1, i.
  std::vector<size_t> prev2(m + 1), prev(m + 1), cur(m + 1);
  for (size_t j = 0; j <= m; ++j) prev[j] = j;
  for (size_t i = 1; i <= n; ++i) {
    cur[0] = i;
    for (size_t j = 1; j <= m; ++j) {
      const size_t sub_cost = (a[i - 1] == b[j - 1]) ? 0 : 1;
      size_t best = std::min({prev[j] + 1,            // deletion
                              cur[j - 1] + 1,         // insertion
                              prev[j - 1] + sub_cost  // substitution
                             });
      if (i > 1 && j > 1 && a[i - 1] == b[j - 2] && a[i - 2] == b[j - 1]) {
        best = std::min(best, prev2[j - 2] + 1);  // adjacent transposition
      }
      cur[j] = best;
    }
    std::swap(prev2, prev);
    std::swap(prev, cur);
  }
  return prev[m];
}

double NormalizedEditDistance(std::string_view a, std::string_view b) {
  const size_t longest = std::max(a.size(), b.size());
  if (longest == 0) return 0.0;
  return static_cast<double>(DamerauLevenshtein(a, b)) / static_cast<double>(longest);
}

namespace {

bool LikeMatchImpl(std::string_view text, size_t ti, std::string_view pat, size_t pi) {
  while (pi < pat.size()) {
    const char pc = pat[pi];
    if (pc == '%') {
      // Collapse runs of '%' and try every split point.
      while (pi < pat.size() && pat[pi] == '%') ++pi;
      if (pi == pat.size()) return true;
      for (size_t k = ti; k <= text.size(); ++k) {
        if (LikeMatchImpl(text, k, pat, pi)) return true;
      }
      return false;
    }
    if (ti >= text.size()) return false;
    if (pc != '_' && pc != text[ti]) return false;
    ++ti;
    ++pi;
  }
  return ti == text.size();
}

}  // namespace

bool LikeMatch(std::string_view text, std::string_view pattern) {
  return LikeMatchImpl(text, 0, pattern, 0);
}

bool ParseInt64(std::string_view s, int64_t* out) {
  if (s.empty()) return false;
  const char* first = s.data();
  const char* last = s.data() + s.size();
  auto [ptr, ec] = std::from_chars(first, last, *out);
  return ec == std::errc() && ptr == last;
}

bool ParseDouble(std::string_view s, double* out) {
  if (s.empty()) return false;
  // std::from_chars<double> is available in libstdc++ 11+; use strtod with a
  // bounded copy for portability.
  std::string buf(s);
  errno = 0;
  char* end = nullptr;
  double v = std::strtod(buf.c_str(), &end);
  if (errno == ERANGE) return false;
  if (end != buf.c_str() + buf.size()) return false;
  *out = v;
  return true;
}

std::string FormatDouble(double v) {
  if (std::isfinite(v) && v == std::floor(v) && std::abs(v) < 1e15) {
    return std::to_string(static_cast<long long>(v));
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.10g", v);
  return buf;
}

}  // namespace semandaq::common
