// The blocked crossbar: the paper's memory unit (Figure 1(a)).
//
// A BlockedCrossbar is a chain of structurally identical blocks joined by
// configurable interconnects, sharing one row decoder, one column decoder
// and one bank of sense amplifiers. Block 0 conventionally acts as the data
// block and higher-numbered blocks as processing blocks, but the roles are
// interchangeable (Section 3.1) — the multiplier's N:2 reduction toggles
// between two processing blocks at every step.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "crossbar/address.hpp"
#include "crossbar/block.hpp"
#include "crossbar/decoder.hpp"
#include "crossbar/interconnect.hpp"
#include "crossbar/sense_amp.hpp"

namespace apim::crossbar {

struct CrossbarConfig {
  std::size_t blocks = 3;  ///< Data block + two processing blocks.
  std::size_t rows = 64;
  std::size_t cols = 128;
  /// Physical spare rows reserved per block beyond the `rows` addressable
  /// ones. A quarantined logical row is rewired onto the next spare by the
  /// reliability layer (remap_row); with 0 spares the crossbar behaves
  /// exactly as before.
  std::size_t spare_rows = 0;
};

class BlockedCrossbar {
 public:
  explicit BlockedCrossbar(CrossbarConfig config);

  [[nodiscard]] const CrossbarConfig& config() const noexcept { return config_; }
  [[nodiscard]] std::size_t block_count() const noexcept {
    return blocks_.size();
  }

  [[nodiscard]] CrossbarBlock& block(std::size_t i);
  [[nodiscard]] const CrossbarBlock& block(std::size_t i) const;

  /// Interconnect between block `i` and block `i + 1`.
  [[nodiscard]] Interconnect& interconnect(std::size_t i);

  [[nodiscard]] SenseAmp& sense_amps() noexcept { return sense_amps_; }
  [[nodiscard]] const SenseAmp& sense_amps() const noexcept {
    return sense_amps_;
  }

  // -- Cell access through the shared decoders (counts activations). --
  [[nodiscard]] bool get(const CellAddr& addr) const;
  /// Returns true when the cell switched.
  bool set(const CellAddr& addr, bool value);

  /// Word access, little-endian along columns.
  std::size_t write_word(const CellAddr& start, unsigned width,
                         std::uint64_t value);
  [[nodiscard]] std::uint64_t read_word(const CellAddr& start,
                                        unsigned width) const;

  /// Route column `col` of block `src_block` through the interconnects to
  /// `dst_block` (must be adjacent or equal; multi-hop routes go through
  /// each interconnect in turn). Returns the destination column, or -1 when
  /// the accumulated shift runs off the edge.
  [[nodiscard]] std::int64_t route_column(std::size_t src_block,
                                          std::size_t dst_block,
                                          std::size_t col) const;

  // -- Spare-row remapping (fault recovery) ------------------------------
  // Detection (reliability/bist.hpp) quarantines a faulty row by remapping
  // its logical address onto a reserved spare row; every decoder-routed
  // access (get/set/read_word/write_word and the sense-amp paths of the
  // MAGIC engine) then lands on the spare transparently. Remapping the
  // same row again burns the next spare (used when the first spare itself
  // tests faulty).

  /// Rewire logical `row` of `block` onto the next unused spare row.
  /// Returns false (and changes nothing) when the block is out of spares.
  bool remap_row(std::size_t block, std::size_t row);

  /// Physical row that backs logical `row` of `block` (identity unless
  /// remapped).
  [[nodiscard]] std::size_t physical_row(std::size_t block,
                                         std::size_t row) const;

  [[nodiscard]] std::size_t spares_remaining(std::size_t block) const;
  [[nodiscard]] std::size_t remapped_row_count(std::size_t block) const;

  /// Aggregate endurance counters over all blocks.
  [[nodiscard]] std::uint64_t total_switches() const noexcept;
  [[nodiscard]] std::uint64_t total_writes() const noexcept;

  /// Area bookkeeping: decoder transistors are shared by all blocks, which
  /// is the paper's area advantage over multi-array adders.
  [[nodiscard]] std::size_t shared_decoder_transistors() const noexcept;

 private:
  void check_addr(const CellAddr& addr) const;

  CrossbarConfig config_;
  std::vector<CrossbarBlock> blocks_;
  /// Per-block logical-row -> physical-spare-row table plus the next free
  /// spare index. Empty maps on the hot path cost one branch.
  // determinism-audited: point lookups only, never iterated.
  std::vector<std::unordered_map<std::size_t, std::size_t>> row_maps_;
  std::vector<std::size_t> spares_used_;
  std::vector<Interconnect> interconnects_;
  mutable Decoder row_decoder_;
  mutable Decoder col_decoder_;
  SenseAmp sense_amps_;
};

}  // namespace apim::crossbar
