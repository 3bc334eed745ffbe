#include "common/strings.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

#include "xml/simd_scan.h"

namespace gcx {

namespace {
bool IsXmlSpace(char c) {
  return c == ' ' || c == '\t' || c == '\r' || c == '\n';
}
}  // namespace

std::string_view TrimWhitespace(std::string_view text) {
  size_t begin = 0;
  size_t end = text.size();
  while (begin < end && IsXmlSpace(text[begin])) ++begin;
  while (end > begin && IsXmlSpace(text[end - 1])) --end;
  return text.substr(begin, end - begin);
}

bool IsAllWhitespace(std::string_view text) {
  const SimdScanOps& ops = DispatchedScanOps();
  return ops.find_non_space(text.data(), text.size()) == text.size();
}

std::optional<double> ParseNumber(std::string_view text) {
  std::string_view trimmed = TrimWhitespace(text);
  if (trimmed.empty()) return std::nullopt;
  // strtod needs a NUL-terminated copy; short values (every number a
  // document realistically holds) are copied to the stack.
  char stack[64];
  std::string heap;
  const char* begin;
  if (trimmed.size() < sizeof(stack)) {
    std::memcpy(stack, trimmed.data(), trimmed.size());
    stack[trimmed.size()] = '\0';
    begin = stack;
  } else {
    heap.assign(trimmed);
    begin = heap.c_str();
  }
  char* end = nullptr;
  double value = std::strtod(begin, &end);
  if (end != begin + trimmed.size()) return std::nullopt;
  return value;
}

std::string FormatNumber(double value) {
  // XPath 1.0 renderings for the non-finite values sum() can produce; the
  // long long cast below would be undefined behavior for them.
  if (std::isnan(value)) return "NaN";
  if (std::isinf(value)) return value > 0 ? "Infinity" : "-Infinity";
  // The cast is only defined inside the long long range: [-2^63, 2^63).
  // Both bounds are exactly representable as doubles (the upper one
  // exclusively — the largest double below 2^63 converts fine).
  if (value >= -9223372036854775808.0 && value < 9223372036854775808.0) {
    long long integral = static_cast<long long>(value);
    if (static_cast<double>(integral) == value) {
      return std::to_string(integral);
    }
  }
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%g", value);
  return buf;
}

std::string Join(const std::vector<std::string>& parts, std::string_view sep) {
  std::string out;
  for (size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) out.append(sep);
    out.append(parts[i]);
  }
  return out;
}

}  // namespace gcx
