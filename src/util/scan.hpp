// Strict readers for numbers that arrive from outside the program: command
// line flags, the APIM_THREADS variable, assembly operands and apim-trace
// text all go through these, so each accepts and rejects the same input.
//
// A reader takes the whole token through std::from_chars: no leading space,
// no '+', no trailing junk, a '-' sign only on a signed type, and a value
// that fits the type and lies in the optional inclusive range. On failure it
// returns false and leaves the output untouched.
#pragma once

#include <charconv>
#include <cstddef>
#include <cstdint>
#include <string_view>
#include <system_error>
#include <type_traits>
#include <utility>
#include <vector>

namespace apim::util {

/// Read all of `text` as a decimal T into `*out`. A bool reads as any
/// unsigned number, nonzero for true.
template <class T>
bool scan(std::string_view text, T* out) {
  if constexpr (std::is_same_v<T, bool>) {
    std::uint64_t x = 0;
    if (!scan(text, &x)) return false;
    *out = x != 0;
    return true;
  } else {
    T x{};
    const char* const end = text.data() + text.size();
    const auto [ptr, ec] = std::from_chars(text.data(), end, x);
    if (ec != std::errc{} || ptr != end) return false;
    *out = x;
    return true;
  }
}

/// As above, and the value must also lie in [lo, hi].
template <class T>
bool scan(std::string_view text, T* out, std::type_identity_t<T> lo,
          std::type_identity_t<T> hi) {
  T x{};
  if (!scan(text, &x) || x < lo || x > hi) return false;
  *out = x;
  return true;
}

/// Read a comma-separated list of T into `*out`; every item is read by
/// scan() and none may be empty.
template <class T>
bool scan_list(std::string_view text, std::vector<T>* out) {
  std::vector<T> items;
  for (;;) {
    const std::size_t comma = text.find(',');
    T item{};
    if (!scan(text.substr(0, comma), &item)) return false;
    items.push_back(item);
    if (comma == std::string_view::npos) break;
    text.remove_prefix(comma + 1);
  }
  *out = std::move(items);
  return true;
}

}  // namespace apim::util
