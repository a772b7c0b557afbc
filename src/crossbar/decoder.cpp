#include "crossbar/decoder.hpp"

#include <cassert>
#include <stdexcept>

#include "util/bitops.hpp"

namespace apim::crossbar {

Decoder::Decoder(std::size_t lines) : lines_(lines) {
  // Checked in every build type: BlockedCrossbar builds its decoders in
  // member initializers, before its own geometry check can run.
  if (lines == 0) throw std::invalid_argument("Decoder: zero lines");
}

void Decoder::activate(std::size_t line) {
  assert(line < lines_);
  (void)line;
  ++activations_;
}

std::size_t Decoder::estimated_transistors() const noexcept {
  const unsigned address_bits = util::bit_width(lines_ - 1);
  // Per output: one NAND of the predecoded terms (~4T) + output buffer (2T);
  // plus 2 inverters per address bit for true/complement generation.
  return lines_ * 6 + static_cast<std::size_t>(address_bits) * 4;
}

}  // namespace apim::crossbar
