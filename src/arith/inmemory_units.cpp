#include "arith/inmemory_units.hpp"

#include <algorithm>
#include <cassert>
#include <vector>

#include "arith/inmemory_fa.hpp"
#include "arith/word_models.hpp"
#include "util/bitops.hpp"

namespace apim::arith {

using crossbar::BlockedCrossbar;
using crossbar::CellAddr;
using crossbar::CrossbarConfig;
using magic::MagicEngine;
using util::bit;
using util::low_mask;

namespace {

/// Captures engine counters so setup (data loading) is excluded from the
/// reported operation cost.
class StatsDelta {
 public:
  explicit StatsDelta(const MagicEngine& engine)
      : engine_(engine),
        cycles0_(engine.stats().cycles),
        energy0_(engine.stats().energy) {}

  [[nodiscard]] InMemoryResult finish(std::uint64_t value,
                                      bool carry_out = false) const {
    return InMemoryResult{value, engine_.stats().cycles - cycles0_,
                          engine_.stats().energy - energy0_, carry_out};
  }

 private:
  const MagicEngine& engine_;
  util::Cycles cycles0_;
  device::EnergyCounts energy0_;
};

/// Value + carry-out pair produced by the raw add helpers; the carry is
/// kept out-of-band so width 64 never drops it.
struct RawAddResult {
  std::uint64_t value = 0;
  bool carry_out = false;
};

/// Serial ripple addition over rows already resident in `block`.
/// Scratch occupies rows [scratch_base, scratch_base+12): 12 slot rows; the
/// initial carry reads a never-written cell at (scratch_base+12, 0), which
/// models the grounded '0' reference line. Returns the n-bit sum (carry
/// folded in at bit n when n < 64) plus the out-of-band carry.
RawAddResult run_serial_add(MagicEngine& engine, std::size_t block,
                            std::size_t a_row, std::size_t b_row, unsigned n,
                            std::size_t scratch_base) {
  auto& xbar = engine.crossbar();
  const CellAddr zero_ref{block, scratch_base + 12, 0};
  assert(!xbar.get(zero_ref));  // Must be a pristine '0' reference cell.

  std::vector<FaLaneMap> lanes;
  lanes.reserve(n);
  std::vector<CellAddr> init_cells;
  init_cells.reserve(12 * n);
  for (unsigned i = 0; i < n; ++i) {
    const CellAddr a{block, a_row, i};
    const CellAddr b{block, b_row, i};
    const CellAddr c = (i == 0)
                           ? zero_ref
                           : lanes[i - 1].cell(kSlotCout);
    lanes.push_back(make_fa_lane(a, b, c, block, scratch_base, i,
                                 /*cout_col_shift=*/0));
    append_lane_init_cells(lanes.back(), init_cells);
  }

  engine.init_cells(init_cells);  // One shared init cycle: the "+1".
  for (const FaLaneMap& lane : lanes) execute_fa_lane_serial(engine, lane);

  std::uint64_t sum = 0;
  for (unsigned i = 0; i < n; ++i)
    if (xbar.get(lanes[i].cell(kSlotS))) sum |= std::uint64_t{1} << i;
  const bool carry_out = xbar.get(lanes[n - 1].cell(kSlotCout));
  if (carry_out && n < 64) sum |= std::uint64_t{1} << n;
  return RawAddResult{sum, carry_out};
}

/// Final-product-generation addition over rows already resident in `block`:
/// exact top bits as 13-cycle per-bit full adds, relaxed low bits as
/// SA-majority carries + deferred sum inversion. Layout within `block`:
///   carry row  = scratch_base      (c_i at column i; c_0 must read '0')
///   sum row    = scratch_base + 1  (relaxed sum bits)
///   FA scratch = scratch_base + 2 .. scratch_base + 13
/// Returns the width-bit result (carry folded in at bit `width` when
/// width < 64) plus the out-of-band carry.
RawAddResult run_final_add(MagicEngine& engine, std::size_t block,
                           std::size_t x_row, std::size_t y_row,
                           unsigned width, unsigned relax_m,
                           std::size_t scratch_base) {
  auto& xbar = engine.crossbar();
  const unsigned m = std::min(relax_m, width);
  const std::size_t carry_row = scratch_base;
  const std::size_t s_row = scratch_base + 1;
  const std::size_t fa_base = scratch_base + 2;
  assert(!xbar.get(CellAddr{block, carry_row, 0}));  // c_0 reference = 0.

  // Relaxed region: exact carries through the majority sense amplifier.
  for (unsigned i = 0; i < m; ++i) {
    const bool cout = engine.sa_majority(CellAddr{block, x_row, i},
                                         CellAddr{block, y_row, i},
                                         CellAddr{block, carry_row, i});
    engine.write_bit(CellAddr{block, carry_row, i + 1}, cout);
  }

  // Exact region: serialized per-bit full adds (init not shared: the carry
  // chain orders the bits, hence the paper's 13 cycles per bit).
  std::vector<FaLaneMap> exact_lanes;
  exact_lanes.reserve(width - m);
  for (unsigned i = m; i < width; ++i) {
    const CellAddr a{block, x_row, i};
    const CellAddr b{block, y_row, i};
    const CellAddr c = (i == m)
                           ? CellAddr{block, carry_row, m}
                           : exact_lanes.back().cell(kSlotCout);
    exact_lanes.push_back(
        make_fa_lane(a, b, c, block, fa_base, i, /*cout_col_shift=*/0));
    std::vector<CellAddr> init_cells;
    append_lane_init_cells(exact_lanes.back(), init_cells);
    engine.init_cells(init_cells);
    execute_fa_lane_serial(engine, exact_lanes.back());
  }

  // Deferred relaxed sums: one parallel NOT of the carry cells (read path
  // shifted by -1 through the barrel shifter).
  if (m > 0) {
    std::vector<CellAddr> s_cells;
    std::vector<magic::NorOp> invert;
    for (unsigned i = 0; i < m; ++i) {
      const CellAddr dst{block, s_row, i};
      s_cells.push_back(dst);
      invert.push_back(
          magic::NorOp{dst, {CellAddr{block, carry_row, i + 1}}});
    }
    engine.init_cells(s_cells, /*overlapped=*/true);
    engine.charge_interconnect(m);
    engine.nor_parallel(invert);
  }

  std::uint64_t value = 0;
  for (unsigned i = 0; i < m; ++i)
    if (xbar.get(CellAddr{block, s_row, i})) value |= std::uint64_t{1} << i;
  for (unsigned i = m; i < width; ++i)
    if (xbar.get(exact_lanes[i - m].cell(kSlotS)))
      value |= std::uint64_t{1} << i;
  const bool carry_out =
      (width > m) ? xbar.get(exact_lanes.back().cell(kSlotCout))
                  : xbar.get(CellAddr{block, carry_row, width});
  if (carry_out && width < 64) value |= std::uint64_t{1} << width;
  return RawAddResult{value, carry_out};
}

/// Execute all planned 3:2 stages. Initial operand rows must already hold
/// their values.
void execute_tree_stages(MagicEngine& engine, const TreePlan& plan) {
  for (const TreeStage& stage : plan.stages) {
    std::vector<FaLaneMap> lanes;
    std::vector<CellAddr> init_cells;
    std::uint64_t shifted_bits = 0;
    for (const TreeGroup& g : stage.groups) {
      const TreeOperand& in0 = plan.operands[g.in0];
      const TreeOperand& in1 = plan.operands[g.in1];
      const TreeOperand& in2 = plan.operands[g.in2];
      for (unsigned col = 0; col < g.fa_width; ++col) {
        lanes.push_back(make_fa_lane(CellAddr{in0.block, in0.row, col},
                                     CellAddr{in1.block, in1.row, col},
                                     CellAddr{in2.block, in2.row, col},
                                     stage.target_block, g.scratch_row, col,
                                     /*cout_col_shift=*/1));
        append_lane_init_cells(lanes.back(), init_cells);
      }
      shifted_bits += g.fa_width;
    }
    engine.init_cells(init_cells);  // 1 cycle for the whole stage.
    engine.charge_interconnect(shifted_bits);
    execute_fa_lanes_parallel(engine, lanes);  // 12 cycles.
  }
}

/// Load a word into a block row without charging the operation (PIM
/// premise: the data is already resident).
void load_word(BlockedCrossbar& xbar, const CellAddr& start, unsigned width,
               std::uint64_t value) {
  for (unsigned i = 0; i < width; ++i)
    xbar.block(start.block)
        .set(start.row, start.col + i, bit(value, i) != 0);
}

}  // namespace

InMemoryResult inmemory_serial_add(std::uint64_t a, std::uint64_t b,
                                   unsigned n, const device::EnergyModel& em,
                                   magic::Tracer* tracer) {
  assert(n >= 1 && n <= 64);
  BlockedCrossbar xbar{CrossbarConfig{2, 16, std::max<std::size_t>(n + 1, 8)}};
  MagicEngine engine{xbar, em};
  engine.attach_tracer(tracer);
  load_word(xbar, CellAddr{1, 0, 0}, n, a & low_mask(n));
  load_word(xbar, CellAddr{1, 1, 0}, n, b & low_mask(n));

  const StatsDelta delta{engine};
  const RawAddResult sum =
      run_serial_add(engine, /*block=*/1, /*a_row=*/0, /*b_row=*/1, n,
                     /*scratch_base=*/2);
  return delta.finish(sum.value, sum.carry_out);
}

InMemoryResult inmemory_compare(std::uint64_t a, std::uint64_t b, unsigned n,
                                const device::EnergyModel& em,
                                magic::Tracer* tracer) {
  assert(n >= 1 && n <= 64);
  // Rows: a (0), b (1), ~b (2), serial-add scratch [3, 15), zero ref (15).
  BlockedCrossbar xbar{CrossbarConfig{2, 16, std::max<std::size_t>(n + 1, 8)}};
  MagicEngine engine{xbar, em};
  engine.attach_tracer(tracer);
  load_word(xbar, CellAddr{1, 0, 0}, n, a & low_mask(n));
  load_word(xbar, CellAddr{1, 1, 0}, n, b & low_mask(n));

  const StatsDelta delta{engine};
  // Complement pass: invert the subtrahend into row 2 (init + one
  // row-parallel NOT, same pattern as the multiplier's inverted image but
  // with nothing to overlap the init with).
  {
    std::vector<CellAddr> inv_cells;
    std::vector<magic::NorOp> invert;
    for (unsigned i = 0; i < n; ++i) {
      const CellAddr dst{1, 2, i};
      inv_cells.push_back(dst);
      invert.push_back(magic::NorOp{dst, {CellAddr{1, 1, i}}});
    }
    engine.init_cells(inv_cells);
    engine.nor_parallel(invert);
  }
  // a + ~b through the exact serial adder; its carry is the a > b
  // predicate, an all-ones sum word the a == b predicate.
  const RawAddResult sum =
      run_serial_add(engine, /*block=*/1, /*a_row=*/0, /*b_row=*/2, n,
                     /*scratch_base=*/3);
  return delta.finish(sum.value, sum.carry_out);
}

CsaOutcome inmemory_csa(std::uint64_t a, std::uint64_t b, std::uint64_t c,
                        unsigned width, const device::EnergyModel& em,
                        magic::Tracer* tracer) {
  assert(width >= 1 && width <= 63);
  BlockedCrossbar xbar{
      CrossbarConfig{2, 16, std::max<std::size_t>(width + 2, 8)}};
  MagicEngine engine{xbar, em};
  engine.attach_tracer(tracer);
  const std::uint64_t mask = low_mask(width);
  load_word(xbar, CellAddr{1, 0, 0}, width, a & mask);
  load_word(xbar, CellAddr{1, 1, 0}, width, b & mask);
  load_word(xbar, CellAddr{1, 2, 0}, width, c & mask);

  const StatsDelta delta{engine};
  std::vector<FaLaneMap> lanes;
  std::vector<CellAddr> init_cells;
  for (unsigned col = 0; col < width; ++col) {
    lanes.push_back(make_fa_lane(CellAddr{1, 0, col}, CellAddr{1, 1, col},
                                 CellAddr{1, 2, col}, 1, /*scratch_row=*/3,
                                 col, /*cout_col_shift=*/1));
    append_lane_init_cells(lanes.back(), init_cells);
  }
  engine.init_cells(init_cells);
  engine.charge_interconnect(width);
  execute_fa_lanes_parallel(engine, lanes);

  CsaOutcome out;
  for (unsigned col = 0; col < width; ++col) {
    if (xbar.get(lanes[col].cell(kSlotS))) out.sum |= std::uint64_t{1} << col;
    if (xbar.get(lanes[col].cell(kSlotCout)))
      out.carry |= std::uint64_t{1} << (col + 1);
  }
  const InMemoryResult r = delta.finish(0);
  out.cycles = r.cycles;
  out.energy = r.energy;
  return out;
}

InMemoryResult inmemory_tree_add(std::span<const std::uint64_t> values,
                                 std::span<const unsigned> widths,
                                 unsigned width_cap,
                                 const device::EnergyModel& em,
                                 magic::Tracer* tracer) {
  assert(values.size() == widths.size());
  assert(!values.empty());

  if (values.size() == 1) {
    // Nothing to add; free by convention (the value is already resident).
    return InMemoryResult{values[0], 0, {}};
  }

  const TreePlan plan =
      plan_tree_reduction(widths, width_cap, /*block_a=*/1, /*block_b=*/2);

  // Geometry: enough rows for operands + scratch + the final serial add.
  const std::size_t rows =
      std::max(plan.rows_used_block_a, plan.rows_used_block_b) + 16;
  const std::size_t cols = static_cast<std::size_t>(width_cap) + 2;
  BlockedCrossbar xbar{CrossbarConfig{3, rows, cols}};
  MagicEngine engine{xbar, em};
  engine.attach_tracer(tracer);
  for (std::size_t i = 0; i < values.size(); ++i) {
    const TreeOperand& op = plan.operands[i];
    load_word(xbar, CellAddr{op.block, op.row, 0}, widths[i],
              values[i] & low_mask(widths[i]));
  }

  const StatsDelta delta{engine};
  execute_tree_stages(engine, plan);

  // Final serial addition of the two survivors (they always share a block:
  // either both initial operands or the sum/carry pair of the last group).
  const TreeOperand& xo = plan.operands[plan.final_ids[0]];
  const TreeOperand& yo = plan.operands[plan.final_ids[1]];
  assert(xo.block == yo.block);
  const unsigned n_final = std::max(xo.width, yo.width);
  const std::size_t scratch_base =
      (xo.block == 1 ? plan.rows_used_block_a : plan.rows_used_block_b);
  const RawAddResult sum = run_serial_add(engine, xo.block, xo.row, yo.row,
                                          n_final, scratch_base);
  return delta.finish(sum.value, sum.carry_out);
}

InMemoryResult inmemory_relaxed_add(std::uint64_t a, std::uint64_t b,
                                    unsigned n, unsigned relax_m,
                                    const device::EnergyModel& em,
                                    magic::Tracer* tracer) {
  assert(n >= 1 && n <= 64);
  BlockedCrossbar xbar{CrossbarConfig{2, 20, std::max<std::size_t>(n + 2, 8)}};
  MagicEngine engine{xbar, em};
  engine.attach_tracer(tracer);
  load_word(xbar, CellAddr{1, 0, 0}, n, a & low_mask(n));
  load_word(xbar, CellAddr{1, 1, 0}, n, b & low_mask(n));

  const StatsDelta delta{engine};
  const RawAddResult sum = run_final_add(engine, /*block=*/1, /*x_row=*/0,
                                         /*y_row=*/1, n, relax_m,
                                         /*scratch_base=*/2);
  return delta.finish(sum.value, sum.carry_out);
}

InMemoryResult inmemory_multiply(std::uint64_t a, std::uint64_t b, unsigned n,
                                 ApproxConfig cfg,
                                 const device::EnergyModel& em,
                                 magic::Tracer* tracer) {
  check_multiply_width(n, "inmemory_multiply");
  a &= low_mask(n);
  b &= low_mask(n);
  const unsigned product_width = 2 * n;
  const unsigned relax = cfg.effective_relax(product_width);
  const unsigned first_bit = std::min(cfg.mask_bits, n);
  const std::uint64_t effective_m2 = b & ~low_mask(first_bit);
  const int p = util::popcount(effective_m2);

  // Plan the reduction up front (it determines the geometry). Partial
  // product q corresponds to the q-th set multiplier bit, ascending.
  std::vector<unsigned> pp_widths;
  std::vector<unsigned> pp_shifts;
  for (unsigned j = first_bit; j < n; ++j) {
    if (bit(effective_m2, j)) {
      pp_widths.push_back(n + j);
      pp_shifts.push_back(j);
    }
  }
  TreePlan plan;
  if (p >= 3)
    plan = plan_tree_reduction(pp_widths, product_width, /*block_a=*/1,
                               /*block_b=*/2);

  const std::size_t rows =
      std::max({plan.rows_used_block_a, plan.rows_used_block_b,
                static_cast<std::size_t>(p)}) +
      16;
  const std::size_t cols = static_cast<std::size_t>(product_width) + 2;
  BlockedCrossbar xbar{CrossbarConfig{3, rows, cols}};
  MagicEngine engine{xbar, em};
  engine.attach_tracer(tracer);
  // Data block (0): multiplicand row 0, multiplier row 1, inverted image
  // row 2.
  load_word(xbar, CellAddr{0, 0, 0}, n, a);
  load_word(xbar, CellAddr{0, 1, 0}, n, b);

  const StatsDelta delta{engine};
  const auto finish = [&](std::uint64_t product) {
    InMemoryResult r = delta.finish(product);
    r.partial_count = static_cast<unsigned>(p);
    return r;
  };

  // -- Stage 1: partial-product generation (Section 3.3). --
  // Bit-wise SA scan of the unmasked multiplier bits.
  std::vector<unsigned> set_bits;
  for (unsigned j = first_bit; j < n; ++j)
    if (engine.read_bit(CellAddr{0, 1, j})) set_bits.push_back(j);
  assert(static_cast<int>(set_bits.size()) == p);

  if (p == 0) return finish(0);  // Zero product: nothing to do.

  // Shared inverted image of the multiplicand (scratch init overlaps the
  // SA scan).
  {
    std::vector<CellAddr> inv_cells;
    std::vector<magic::NorOp> invert;
    for (unsigned i = 0; i < n; ++i) {
      const CellAddr dst{0, 2, i};
      inv_cells.push_back(dst);
      invert.push_back(magic::NorOp{dst, {CellAddr{0, 0, i}}});
    }
    engine.init_cells(inv_cells, /*overlapped=*/true);
    engine.nor_parallel(invert);
  }

  // One copy cycle per partial product, routed through the interconnect
  // with the multiplier-bit shift.
  for (std::size_t q = 0; q < set_bits.size(); ++q) {
    const unsigned j = set_bits[q];
    const std::size_t dst_row =
        (p >= 3) ? plan.operands[q].row : q;  // Block 1, plan order.
    xbar.interconnect(0).set_shift(static_cast<int>(j));
    std::vector<CellAddr> dst_cells;
    std::vector<magic::NorOp> copy;
    for (unsigned i = 0; i < n; ++i) {
      assert(xbar.route_column(0, 1, i) == static_cast<std::int64_t>(i + j));
      const CellAddr dst{1, dst_row, i + j};
      dst_cells.push_back(dst);
      copy.push_back(magic::NorOp{dst, {CellAddr{0, 2, i}}});
    }
    engine.init_cells(dst_cells, /*overlapped=*/true);
    engine.nor_parallel(copy);
  }

  if (p == 1) {
    const std::uint64_t product =
        engine.peek_word(CellAddr{1, 0, 0}, product_width);
    return finish(product);
  }

  // -- Stage 2: Wallace-tree reduction (skipped for two partials). --
  std::size_t final_block = 1;
  std::size_t x_row = 0, y_row = 1;
  unsigned x_width = pp_widths[0], y_width = pp_widths[1];
  std::size_t scratch_base = static_cast<std::size_t>(p);
  if (p >= 3) {
    execute_tree_stages(engine, plan);
    const TreeOperand& xo = plan.operands[plan.final_ids[0]];
    const TreeOperand& yo = plan.operands[plan.final_ids[1]];
    assert(xo.block == yo.block);
    final_block = xo.block;
    x_row = xo.row;
    y_row = yo.row;
    x_width = xo.width;
    y_width = yo.width;
    scratch_base = (final_block == 1 ? plan.rows_used_block_a
                                     : plan.rows_used_block_b);
  }
  (void)x_width;
  (void)y_width;

  // -- Stage 3: final product generation over the full 2N bits. --
  const RawAddResult value = run_final_add(engine, final_block, x_row, y_row,
                                           product_width, relax,
                                           scratch_base);
  // The product of two n-bit numbers fits in 2n bits and the final-add
  // carries are exact even under relaxation, so value.carry_out is always
  // false here; multiplies report no carry by convention.
  return finish(value.value & low_mask(product_width));
}

}  // namespace apim::arith
