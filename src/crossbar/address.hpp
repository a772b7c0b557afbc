// Cell addressing for the blocked crossbar.
#pragma once

#include <compare>
#include <cstddef>
#include <string>

namespace apim::crossbar {

/// Address of a single memristive cell: block index within the blocked
/// crossbar, then row (wordline) and column (bitline) within the block.
struct CellAddr {
  std::size_t block = 0;
  std::size_t row = 0;
  std::size_t col = 0;

  friend constexpr auto operator<=>(const CellAddr&, const CellAddr&) = default;
};

/// Debug formatting ("b2[r5,c17]").
[[nodiscard]] inline std::string to_string(const CellAddr& a) {
  std::string s = "b";
  s += std::to_string(a.block);
  s += "[r";
  s += std::to_string(a.row);
  s += ",c";
  s += std::to_string(a.col);
  s += ']';
  return s;
}

}  // namespace apim::crossbar
