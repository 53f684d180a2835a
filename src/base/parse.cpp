#include "base/parse.h"

#include <charconv>
#include <cmath>

namespace simulcast {

namespace {

/// from_chars over the whole of `text`; it already refuses whitespace, '+'
/// and hex, and for unsigned targets '-'.
template <class T>
std::optional<T> parse_whole(std::string_view text) {
  T value{};
  const auto [end, ec] = std::from_chars(text.data(), text.data() + text.size(), value);
  if (text.empty() || ec != std::errc() || end != text.data() + text.size()) return std::nullopt;
  return value;
}

}  // namespace

std::optional<std::uint64_t> parse_uint(std::string_view text) {
  return parse_whole<std::uint64_t>(text);
}

std::optional<double> parse_real(std::string_view text) {
  if (!text.empty() && text.front() == '-') return std::nullopt;
  const std::optional<double> value = parse_whole<double>(text);
  if (!value || !std::isfinite(*value)) return std::nullopt;
  return value;
}

}  // namespace simulcast
