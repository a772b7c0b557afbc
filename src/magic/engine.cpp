#include "magic/engine.hpp"

#include <cassert>
#include <cstdlib>

namespace apim::magic {

MagicEngine::MagicEngine(crossbar::BlockedCrossbar& crossbar,
                         const device::EnergyModel& energy)
    : xbar_(crossbar), energy_(energy) {}

void MagicEngine::trace(OpKind kind, std::uint32_t cells, bool overlapped) {
  if (tracer_ != nullptr)
    tracer_->record(TraceEvent{stats_.cycles, kind, cells, overlapped});
}

void MagicEngine::trace_cell(OpKind kind, CellAccess access,
                             const crossbar::CellAddr& addr,
                             util::Cycles cycle) {
  tracer_->record_cell(CellEvent{cycle, kind, access, addr});
}

void MagicEngine::init_cells(std::span<const crossbar::CellAddr> cells,
                             bool overlapped) {
  for (const auto& addr : cells) xbar_.set(addr, true);
  stats_.energy.init += cells.size();
  if (!overlapped) ++stats_.cycles;
  trace(OpKind::kInit, static_cast<std::uint32_t>(cells.size()), overlapped);
  if (cell_trace_on())
    for (const auto& addr : cells)
      trace_cell(OpKind::kInit, CellAccess::kInit, addr, stats_.cycles);
}

void MagicEngine::execute_nor(const NorOp& op) {
  assert(!op.inputs.empty());
  // MAGIC precondition: the output cell must be at RON ('1') so that the
  // input-driven divider can conditionally RESET it. A '0' output can only
  // stay '0' (NOR cannot SET). A violation on a healthy fabric means an
  // arithmetic schedule forgot an init step; on a faulty fabric it is the
  // physical behaviour of a stuck-at-0 cell.
  const bool dst_ready = xbar_.get(op.dst);
  assert(dst_ready || xbar_.block(op.dst.block).fault_count() > 0);
  bool any_input_high = false;
  for (const auto& in : op.inputs) {
    const bool v = xbar_.get(in);
    any_input_high |= v;
    ++(v ? stats_.energy.input_on : stats_.energy.input_off);
    // Crossing blocks routes the evaluation current through the
    // configurable interconnect; charge per hop and per bit.
    stats_.energy.interconnect_bits += static_cast<std::uint64_t>(
        std::abs(static_cast<long long>(in.block) -
                 static_cast<long long>(op.dst.block)));
  }
  const bool result = !any_input_high && dst_ready;
  const bool switches = dst_ready && !result;  // '1' -> '0' RESET.
  xbar_.set(op.dst, result);
  stats_.energy.switches += switches;
  ++stats_.nor_ops;
  if (cell_trace_on()) {
    // The callers charge the batch cycle after execute_nor returns, so the
    // completion stamp all of this op's touches share is cycles + 1.
    const util::Cycles done = stats_.cycles + 1;
    trace_cell(OpKind::kNor, CellAccess::kWrite, op.dst, done);
    for (const auto& in : op.inputs)
      trace_cell(OpKind::kNor, CellAccess::kRead, in, done);
  }
}

void MagicEngine::nor(const crossbar::CellAddr& dst,
                      std::span<const crossbar::CellAddr> inputs) {
  NorOp op{dst, {inputs.begin(), inputs.end()}};
  execute_nor(op);
  ++stats_.cycles;
  trace(OpKind::kNor, 1);
}

void MagicEngine::nor_parallel(std::span<const NorOp> ops) {
  assert(!ops.empty());
#ifndef NDEBUG
  // Parallel NORs must target distinct cells; a quadratic check is fine for
  // debug builds at the batch sizes we use (<= a few hundred).
  for (std::size_t i = 0; i < ops.size(); ++i)
    for (std::size_t j = i + 1; j < ops.size(); ++j)
      assert(!(ops[i].dst == ops[j].dst));
#endif
  for (const auto& op : ops) execute_nor(op);
  ++stats_.cycles;
  trace(OpKind::kNor, static_cast<std::uint32_t>(ops.size()));
}

bool MagicEngine::read_bit(const crossbar::CellAddr& addr) {
  // The SA reads the physical row: a logical row quarantined by the
  // reliability layer transparently resolves to its spare.
  const bool value = xbar_.sense_amps().read(
      xbar_.block(addr.block), xbar_.physical_row(addr.block, addr.row),
      addr.col);
  ++stats_.energy.reads;
  trace(OpKind::kRead, 1, /*overlapped=*/true);
  if (cell_trace_on())
    trace_cell(OpKind::kRead, CellAccess::kRead, addr, stats_.cycles);
  return value;
}

bool MagicEngine::sa_majority(const crossbar::CellAddr& a,
                              const crossbar::CellAddr& b,
                              const crossbar::CellAddr& c) {
  // The MAJ sense path aggregates current on one bitline, so all three
  // cells must share a block and a column (paper Figure 3(b)).
  assert(a.block == b.block && b.block == c.block);
  assert(a.col == b.col && b.col == c.col);
  const bool result = xbar_.sense_amps().majority(
      xbar_.block(a.block), a.col, xbar_.physical_row(a.block, a.row),
      xbar_.physical_row(b.block, b.row), xbar_.physical_row(c.block, c.row));
  ++stats_.energy.majority;
  ++stats_.cycles;
  trace(OpKind::kMajority, 1);
  if (cell_trace_on()) {
    trace_cell(OpKind::kMajority, CellAccess::kRead, a, stats_.cycles);
    trace_cell(OpKind::kMajority, CellAccess::kRead, b, stats_.cycles);
    trace_cell(OpKind::kMajority, CellAccess::kRead, c, stats_.cycles);
  }
  return result;
}

void MagicEngine::write_bit(const crossbar::CellAddr& addr, bool value) {
  stats_.energy.switches += xbar_.set(addr, value);  // True when it flips.
  ++stats_.energy.writes;
  ++stats_.cycles;
  trace(OpKind::kWrite, 1);
  if (cell_trace_on())
    trace_cell(OpKind::kWrite, CellAccess::kWrite, addr, stats_.cycles);
}

void MagicEngine::write_word(const crossbar::CellAddr& start, unsigned width,
                             std::uint64_t value) {
  for (unsigned i = 0; i < width; ++i) {
    const crossbar::CellAddr addr{start.block, start.row, start.col + i};
    stats_.energy.switches += xbar_.set(addr, ((value >> i) & 1) != 0);
  }
  stats_.energy.writes += width;
  ++stats_.cycles;
  trace(OpKind::kWrite, width);
  if (cell_trace_on())
    for (unsigned i = 0; i < width; ++i)
      trace_cell(OpKind::kWrite, CellAccess::kWrite,
                 crossbar::CellAddr{start.block, start.row, start.col + i},
                 stats_.cycles);
}

std::uint64_t MagicEngine::peek_word(const crossbar::CellAddr& start,
                                     unsigned width) const {
  std::uint64_t value = 0;
  for (unsigned i = 0; i < width; ++i) {
    const crossbar::CellAddr addr{start.block, start.row, start.col + i};
    if (xbar_.get(addr)) value |= std::uint64_t{1} << i;
  }
  return value;
}

void MagicEngine::add_idle_cycles(util::Cycles n) {
  stats_.cycles += n;
  trace(OpKind::kIdle, 0);
}

void MagicEngine::charge_interconnect(std::uint64_t bits) {
  stats_.energy.interconnect_bits += bits;
}

double MagicEngine::energy_pj() const noexcept {
  return energy_.energy_pj(stats_.energy) +
         static_cast<double>(stats_.cycles) * energy_.e_cycle_overhead_pj;
}

}  // namespace apim::magic
