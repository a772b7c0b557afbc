#include "crossbar/crossbar.hpp"

#include <cassert>
#include <stdexcept>

namespace apim::crossbar {

BlockedCrossbar::BlockedCrossbar(CrossbarConfig config)
    : config_(config),
      row_decoder_(config.rows),
      col_decoder_(config.cols) {
  if (config_.blocks == 0 || config_.rows == 0 || config_.cols == 0)
    throw std::invalid_argument("BlockedCrossbar: empty geometry");
  blocks_.reserve(config_.blocks);
  // Spare rows are physically real cells appended past the addressable
  // rows; only remap_row can route accesses into them.
  for (std::size_t b = 0; b < config_.blocks; ++b)
    blocks_.emplace_back(config_.rows + config_.spare_rows, config_.cols);
  row_maps_.resize(config_.blocks);
  spares_used_.assign(config_.blocks, 0);
  for (std::size_t i = 0; i + 1 < config_.blocks; ++i)
    interconnects_.emplace_back(config_.cols);
}

bool BlockedCrossbar::remap_row(std::size_t block, std::size_t row) {
  assert(block < blocks_.size());
  assert(row < config_.rows);
  if (spares_used_[block] >= config_.spare_rows) return false;
  row_maps_[block][row] = config_.rows + spares_used_[block];
  ++spares_used_[block];
  return true;
}

std::size_t BlockedCrossbar::physical_row(std::size_t block,
                                          std::size_t row) const {
  assert(block < blocks_.size());
  const auto& map = row_maps_[block];
  if (map.empty()) return row;
  const auto it = map.find(row);
  return it == map.end() ? row : it->second;
}

std::size_t BlockedCrossbar::spares_remaining(std::size_t block) const {
  assert(block < blocks_.size());
  return config_.spare_rows - spares_used_[block];
}

std::size_t BlockedCrossbar::remapped_row_count(std::size_t block) const {
  assert(block < blocks_.size());
  return row_maps_[block].size();
}

CrossbarBlock& BlockedCrossbar::block(std::size_t i) {
  assert(i < blocks_.size());
  return blocks_[i];
}

const CrossbarBlock& BlockedCrossbar::block(std::size_t i) const {
  assert(i < blocks_.size());
  return blocks_[i];
}

Interconnect& BlockedCrossbar::interconnect(std::size_t i) {
  assert(i < interconnects_.size());
  return interconnects_[i];
}

void BlockedCrossbar::check_addr(const CellAddr& addr) const {
  (void)addr;  // Release builds compile the asserts away.
  assert(addr.block < blocks_.size());
  assert(addr.row < config_.rows);
  assert(addr.col < config_.cols);
}

bool BlockedCrossbar::get(const CellAddr& addr) const {
  check_addr(addr);
  row_decoder_.activate(addr.row);
  col_decoder_.activate(addr.col);
  return blocks_[addr.block].get(physical_row(addr.block, addr.row),
                                 addr.col);
}

bool BlockedCrossbar::set(const CellAddr& addr, bool value) {
  check_addr(addr);
  row_decoder_.activate(addr.row);
  col_decoder_.activate(addr.col);
  return blocks_[addr.block].set(physical_row(addr.block, addr.row), addr.col,
                                 value);
}

std::size_t BlockedCrossbar::write_word(const CellAddr& start, unsigned width,
                                        std::uint64_t value) {
  check_addr(start);
  assert(start.col + width <= config_.cols);
  row_decoder_.activate(start.row);
  return blocks_[start.block].write_word(physical_row(start.block, start.row),
                                         start.col, width, value);
}

std::uint64_t BlockedCrossbar::read_word(const CellAddr& start,
                                         unsigned width) const {
  check_addr(start);
  assert(start.col + width <= config_.cols);
  row_decoder_.activate(start.row);
  return blocks_[start.block].read_word(physical_row(start.block, start.row),
                                        start.col, width);
}

std::int64_t BlockedCrossbar::route_column(std::size_t src_block,
                                           std::size_t dst_block,
                                           std::size_t col) const {
  assert(src_block < blocks_.size() && dst_block < blocks_.size());
  std::int64_t current = static_cast<std::int64_t>(col);
  if (src_block == dst_block) return current;
  const bool forward = dst_block > src_block;
  std::size_t b = src_block;
  while (b != dst_block) {
    const std::size_t link = forward ? b : b - 1;
    const auto& ic = interconnects_[link];
    current = forward ? ic.route(static_cast<std::size_t>(current))
                      : ic.route_reverse(static_cast<std::size_t>(current));
    if (current < 0) return -1;
    b = forward ? b + 1 : b - 1;
  }
  return current;
}

std::uint64_t BlockedCrossbar::total_switches() const noexcept {
  std::uint64_t total = 0;
  for (const auto& b : blocks_) total += b.total_switches();
  return total;
}

std::uint64_t BlockedCrossbar::total_writes() const noexcept {
  std::uint64_t total = 0;
  for (const auto& b : blocks_) total += b.total_writes();
  return total;
}

std::size_t BlockedCrossbar::shared_decoder_transistors() const noexcept {
  return row_decoder_.estimated_transistors() +
         col_decoder_.estimated_transistors();
}

}  // namespace apim::crossbar
