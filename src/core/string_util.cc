#include "core/string_util.h"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>

namespace bikegraph {

std::vector<std::string> Split(std::string_view text, char delim) {
  std::vector<std::string> parts;
  size_t start = 0;
  while (true) {
    size_t pos = text.find(delim, start);
    if (pos == std::string_view::npos) {
      parts.emplace_back(text.substr(start));
      break;
    }
    parts.emplace_back(text.substr(start, pos - start));
    start = pos + 1;
  }
  return parts;
}

std::string_view Trim(std::string_view text) {
  size_t begin = 0;
  size_t end = text.size();
  while (begin < end &&
         std::isspace(static_cast<unsigned char>(text[begin]))) {
    ++begin;
  }
  while (end > begin &&
         std::isspace(static_cast<unsigned char>(text[end - 1]))) {
    --end;
  }
  return text.substr(begin, end - begin);
}

namespace {

// std::from_chars over `t` (non-empty, trimmed). One leading '+' is part of
// the accepted grammar but not of from_chars', so it is dropped first.
template <typename T>
std::from_chars_result FromChars(std::string_view t, T* value) {
  std::string_view body = t;
  if (body.front() == '+') {
    body.remove_prefix(1);
    if (body.empty() || body.front() == '-') {
      return {t.data(), std::errc::invalid_argument};
    }
  }
  return std::from_chars(body.data(), body.data() + body.size(), *value);
}

}  // namespace

Result<int64_t> ParseInt(std::string_view text) {
  const std::string_view t = Trim(text);
  if (t.empty()) return Status::DataLoss("empty integer field");
  int64_t value = 0;
  const auto [end, ec] = FromChars(t, &value);
  if (ec == std::errc::result_out_of_range) {
    return Status::OutOfRange("integer overflow: " + std::string(t));
  }
  if (ec != std::errc() || end != t.data() + t.size()) {
    return Status::DataLoss("invalid integer: '" + std::string(t) + "'");
  }
  return value;
}

Result<double> ParseDouble(std::string_view text) {
  const std::string_view t = Trim(text);
  if (t.empty()) return Status::DataLoss("empty numeric field");
  double value = 0.0;
  const auto [end, ec] = FromChars(t, &value);
  // Too large, or too small to be a normal double. from_chars accepts a
  // subnormal result; this grammar does not.
  if (ec == std::errc::result_out_of_range ||
      (ec == std::errc() && std::fpclassify(value) == FP_SUBNORMAL)) {
    return Status::OutOfRange("double overflow: " + std::string(t));
  }
  // `inf` and `nan` parse, but no field of a trip record is non-finite.
  if (ec != std::errc() || end != t.data() + t.size() ||
      !std::isfinite(value)) {
    return Status::DataLoss("invalid number: '" + std::string(t) + "'");
  }
  return value;
}

std::string FormatDouble(double value, int decimals) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", decimals, value);
  return buf;
}

std::string FormatWithCommas(int64_t value) {
  std::string digits = std::to_string(value < 0 ? -value : value);
  std::string out;
  int count = 0;
  for (auto it = digits.rbegin(); it != digits.rend(); ++it) {
    if (count > 0 && count % 3 == 0) out.push_back(',');
    out.push_back(*it);
    ++count;
  }
  if (value < 0) out.push_back('-');
  return std::string(out.rbegin(), out.rend());
}

}  // namespace bikegraph
