// Minimal columnar table model for the analytics operators.
//
// Columns are unsigned magnitudes of a declared bit width (the APIM word
// width the column's ops run at, 4..32); the operators take value spans +
// widths, so Table is just the naming/bundling layer the TPC-H-style
// queries and their golden tests share.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "util/bitops.hpp"

namespace apim::analytics {

struct Column {
  std::string name;
  unsigned width = 32;  ///< Bit width; every value must fit (asserted).
  std::vector<std::uint64_t> values;
};

struct Table {
  std::vector<Column> columns;

  [[nodiscard]] std::size_t rows() const noexcept {
    return columns.empty() ? 0 : columns.front().values.size();
  }

  /// Throws std::out_of_range when no column has this name.
  [[nodiscard]] const Column& col(std::string_view name) const {
    for (const Column& c : columns)
      if (c.name == name) return c;
    throw std::out_of_range("Table::col: no column has this name");
  }

  /// All columns same length, all values inside their declared width.
  [[nodiscard]] bool well_formed() const {
    for (const Column& c : columns) {
      if (c.values.size() != rows()) return false;
      for (const std::uint64_t v : c.values)
        if (v > util::low_mask(c.width)) return false;
    }
    return true;
  }
};

}  // namespace apim::analytics
