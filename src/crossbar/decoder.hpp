// Row/column decoder model.
//
// All blocks in APIM share the same row and column decoders (paper
// Section 3.3: "all of these blocks still share the same row and column
// controllers and decoders", which is the area argument against the
// PC-Adder baseline). We model decoders as activation counters plus a
// transistor-count area estimate so the area comparison in the Figure 6
// bench has a concrete basis.
#pragma once

#include <cstddef>
#include <cstdint>

namespace apim::crossbar {

class Decoder {
 public:
  /// A decoder selecting one of `lines` outputs. Throws
  /// std::invalid_argument for zero lines.
  explicit Decoder(std::size_t lines);

  [[nodiscard]] std::size_t lines() const noexcept { return lines_; }

  /// Record the activation of a specific line (bounds-checked).
  void activate(std::size_t line);

  [[nodiscard]] std::uint64_t activations() const noexcept {
    return activations_;
  }

  /// Rough transistor count of an n-to-2^n decoder with predecoding:
  /// ~4 transistors per output NAND plus buffers. Used only for relative
  /// area comparisons between designs.
  [[nodiscard]] std::size_t estimated_transistors() const noexcept;

 private:
  std::size_t lines_;
  std::uint64_t activations_ = 0;
};

}  // namespace apim::crossbar
