// Chip-level organization of an APIM memory (Figure 1(a), scaled out).
//
// A full APIM part is a hierarchy: banks of crossbar tiles, each tile a
// BlockedCrossbar (data block + processing blocks sharing decoders). Data
// capacity comes from ALL tiles; compute concurrency comes from the subset
// of tiles the controller/power budget allows to run MAGIC schedules at
// once. This model turns that structure into the two numbers the
// evaluation needs — storage capacity and `parallel_lanes` — and makes the
// Figure 5 premise checkable ("the dataset can fit on APIM", Section 4.2).
#pragma once

#include <cstddef>

#include "core/config.hpp"

namespace apim::core {

struct ChipGeometry {
  std::size_t banks = 64;
  std::size_t tiles_per_bank = 2048;
  /// Tiles per bank that may execute MAGIC schedules concurrently
  /// (controller/power budget; the rest hold data).
  std::size_t active_tiles_per_bank = 192;
  /// Per-tile blocked-crossbar geometry.
  std::size_t blocks_per_tile = 3;  ///< 1 data + 2 processing blocks.
  std::size_t rows = 512;
  std::size_t cols = 128;
  /// Scratch rows per processing block that the arithmetic schedules
  /// traverse — the band a march-test scrub scans (reliability/bist.hpp,
  /// serve/health.hpp).
  std::size_t scratch_rows_per_block = 16;
  /// Physical spare rows per processing block available for remapping
  /// defective scratch rows (crossbar `spare_rows`).
  std::size_t spare_rows_per_block = 4;
};

class ApimChip {
 public:
  explicit ApimChip(ChipGeometry geometry = {});

  [[nodiscard]] const ChipGeometry& geometry() const noexcept {
    return geometry_;
  }

  /// Bytes of user data the chip stores (data blocks only: processing
  /// blocks hold operands/scratch during compute).
  [[nodiscard]] double capacity_bytes() const noexcept;

  /// Concurrent arithmetic pipelines (one per active tile).
  [[nodiscard]] std::size_t parallel_lanes() const noexcept;

  /// Independent controller command streams: one per bank. Each bank
  /// controller broadcasts ONE MAGIC schedule to its active tiles at a
  /// time, which is why the serving runtime coalesces same-shaped
  /// requests — a coalesced batch shares a single broadcast, while
  /// differently-shaped requests queue for separate streams (src/serve/).
  /// A bank fails as a unit (its controller, decoders and shared drive
  /// circuitry), so each stream is also one health fault domain
  /// (serve/health.hpp).
  [[nodiscard]] std::size_t command_streams() const noexcept;

  /// Lanes one command stream drives: the active tiles of its bank. The
  /// upper bound on useful batch width per dispatch.
  [[nodiscard]] std::size_t lanes_per_stream() const noexcept;

  /// Total memristor cells (storage + processing).
  [[nodiscard]] double total_cells() const noexcept;

  /// Fraction of cells spent on processing blocks — the area overhead of
  /// in-memory compute relative to a plain memory of equal capacity.
  [[nodiscard]] double processing_area_overhead() const noexcept;

  /// An ApimConfig whose lane count reflects this chip.
  [[nodiscard]] ApimConfig make_config() const;

 private:
  ChipGeometry geometry_;
};

}  // namespace apim::core
