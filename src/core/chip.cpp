#include "core/chip.hpp"

#include <cassert>

namespace apim::core {

ApimChip::ApimChip(ChipGeometry geometry) : geometry_(geometry) {
  assert(geometry_.banks > 0 && geometry_.tiles_per_bank > 0);
  assert(geometry_.active_tiles_per_bank <= geometry_.tiles_per_bank);
  assert(geometry_.blocks_per_tile >= 2);  // Data + at least one processing.
}

double ApimChip::capacity_bytes() const noexcept {
  const double bits_per_tile =
      static_cast<double>(geometry_.rows) * static_cast<double>(geometry_.cols);
  return static_cast<double>(geometry_.banks) *
         static_cast<double>(geometry_.tiles_per_bank) * bits_per_tile / 8.0;
}

std::size_t ApimChip::parallel_lanes() const noexcept {
  return geometry_.banks * geometry_.active_tiles_per_bank;
}

std::size_t ApimChip::command_streams() const noexcept {
  return geometry_.banks;
}

std::size_t ApimChip::lanes_per_stream() const noexcept {
  return geometry_.active_tiles_per_bank;
}

double ApimChip::total_cells() const noexcept {
  return static_cast<double>(geometry_.banks) *
         static_cast<double>(geometry_.tiles_per_bank) *
         static_cast<double>(geometry_.blocks_per_tile) *
         static_cast<double>(geometry_.rows) *
         static_cast<double>(geometry_.cols);
}

double ApimChip::processing_area_overhead() const noexcept {
  return static_cast<double>(geometry_.blocks_per_tile - 1) /
         static_cast<double>(geometry_.blocks_per_tile);
}

ApimConfig ApimChip::make_config() const {
  ApimConfig config;
  config.parallel_lanes = parallel_lanes();
  return config;
}

}  // namespace apim::core
