// Strict decimal parsing for counts from the command line or environment.
#pragma once

#include <charconv>
#include <cstdint>
#include <limits>
#include <optional>
#include <string_view>

namespace tdat {

// All of `text` as a decimal in [min, max], else nullopt. Digits only:
// from_chars takes no sign, space or prefix for unsigned types, so "-1" is
// rejected instead of wrapping to the largest value; overflow is rejected.
[[nodiscard]] inline std::optional<std::uint64_t> parse_uint(
    std::string_view text, std::uint64_t min = 0,
    std::uint64_t max = std::numeric_limits<std::uint64_t>::max()) {
  std::uint64_t v = 0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, v);
  if (ec != std::errc{} || ptr != end || v < min || v > max) return {};
  return v;
}

}  // namespace tdat
