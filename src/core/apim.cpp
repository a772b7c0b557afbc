#include "core/apim.hpp"

#include <algorithm>
#include <cassert>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <vector>

#include "arith/compare_units.hpp"
#include "arith/inmemory_units.hpp"
#include "arith/latency_model.hpp"
#include "reliability/residue.hpp"
#include "util/bitops.hpp"

namespace apim::core {

using util::low_mask;

ApimDevice::ApimDevice(ApimConfig config) : config_(config) {
  // Checked in every build type: the kernels shift by word_bits and size
  // their per-partial stack buffers for at most 32 multiplier bits.
  if (config_.word_bits < 4 || config_.word_bits > 32) {
    throw std::invalid_argument("ApimDevice: word_bits must be in 4..32, got " +
                                std::to_string(config_.word_bits));
  }
  if (config_.parallel_lanes < 1) {
    throw std::invalid_argument("ApimDevice: parallel_lanes must be >= 1");
  }
}

std::uint64_t ApimDevice::clamp_magnitude(std::uint64_t m) const noexcept {
  const std::uint64_t cap = low_mask(config_.word_bits);
  return m > cap ? cap : m;
}

enum class DeviceOp : unsigned char { kMul, kAdd, kCmp, kPopcnt };

namespace {

using OpPair = std::pair<std::uint64_t, std::uint64_t>;

/// One op's raw unit result before accounting, in one shape whichever
/// kernel of the table produced it.
struct UnitOutcome {
  std::uint64_t value = 0;
  util::Cycles cycles = 0;
  double energy_pj = 0.0;
  unsigned partial_products = 0;  ///< Nonzero only for word-model multiplies.
};

UnitOutcome unit(const arith::MultiplyOutcome& r) {
  return {r.product, r.cycles, r.energy_ops_pj, r.partial_count};
}
UnitOutcome unit(const arith::AddOutcome& r) {
  return {r.sum, r.cycles, r.energy_ops_pj, 0};
}
/// The raw complement-add sum, not the code: protection checks the sum and
/// the table row decodes the code afterwards.
UnitOutcome unit(const arith::CompareOutcome& r) {
  return {r.sum, r.cycles, r.energy_ops_pj, 0};
}
UnitOutcome unit(const arith::InMemoryResult& r) {
  return {r.value, r.cycles, r.energy_ops_pj, 0};
}

/// The adder relax setting scales with adder width: standalone word adds
/// relax the same fraction of their N bits as the multiplier's final stage
/// relaxes of its 2N (see the class comment).
unsigned adder_relax(const ApimConfig& c) noexcept {
  const unsigned m_add = c.approx.relax_bits / 2;
  return m_add > c.word_bits ? c.word_bits : m_add;
}

/// One row of the kernel table: everything that differs between op kinds.
struct OpKernel {
  std::uint64_t ExecStats::*counter;
  UnitOutcome (*word)(const ApimConfig&, std::uint64_t a, std::uint64_t b);
  UnitOutcome (*bit_level)(const ApimConfig&, std::uint64_t a,
                           std::uint64_t b);
  // -- Protection spec (ApimDevice::protect_result) ------------------------
  unsigned (*out_bits)(unsigned n);
  /// The operand pair the residue identity checks the result against.
  OpPair (*residue_operands)(std::uint64_t a, std::uint64_t b, unsigned n);
  bool (*exact)(const ApimConfig&);
  bool is_mul;
  /// False when no mod-3 identity relates result and operands: every
  /// active policy then protects the op by triple vote.
  bool has_residue;
  /// The result is arith::compare_code of the protected sum.
  bool compare_decode;
};

bool always_exact(const ApimConfig&) { return true; }
OpPair operands_as_given(std::uint64_t a, std::uint64_t b, unsigned) {
  return {a, b};
}

/// Indexed by DeviceOp.
constexpr OpKernel kKernels[] = {
    {// kMul: full 2N-bit product; approximation follows approx.
     .counter = &ExecStats::multiplies,
     .word = [](const ApimConfig& c, std::uint64_t a, std::uint64_t b) {
       return unit(arith::fast_multiply(a, b, c.word_bits, c.approx,
                                        c.energy));
     },
     .bit_level = [](const ApimConfig& c, std::uint64_t a, std::uint64_t b) {
       return unit(arith::inmemory_multiply(a, b, c.word_bits, c.approx,
                                            c.energy));
     },
     .out_bits = [](unsigned n) { return 2 * n; },
     .residue_operands = operands_as_given,
     .exact = [](const ApimConfig& c) { return c.approx.is_exact(); },
     .is_mul = true,
     .has_residue = true,
     .compare_decode = false},
    {// kAdd: (N+1)-bit sum, relaxed per adder_relax.
     .counter = &ExecStats::additions,
     .word = [](const ApimConfig& c, std::uint64_t a, std::uint64_t b) {
       return unit(
           arith::fast_add(a, b, c.word_bits, adder_relax(c), c.energy));
     },
     .bit_level = [](const ApimConfig& c, std::uint64_t a, std::uint64_t b) {
       const unsigned n = c.word_bits;
       const unsigned relax = arith::profitable_add_relax(n, adder_relax(c));
       return unit(relax == 0
                       ? arith::inmemory_serial_add(a, b, n, c.energy)
                       : arith::inmemory_relaxed_add(a, b, n, relax,
                                                     c.energy));
     },
     .out_bits = [](unsigned n) { return n + 1; },
     .residue_operands = operands_as_given,
     .exact = [](const ApimConfig& c) { return adder_relax(c) == 0; },
     .is_mul = false,
     .has_residue = true,
     .compare_decode = false},
    {// kCmp: exact complement-add a + ~b, decoded to kCmpLt/Eq/Gt.
     .counter = &ExecStats::comparisons,
     .word = [](const ApimConfig& c, std::uint64_t a, std::uint64_t b) {
       return unit(arith::fast_compare(a, b, c.word_bits, c.energy));
     },
     .bit_level = [](const ApimConfig& c, std::uint64_t a, std::uint64_t b) {
       return unit(arith::inmemory_compare(a, b, c.word_bits, c.energy));
     },
     .out_bits = [](unsigned n) { return n + 1; },
     .residue_operands =
         [](std::uint64_t a, std::uint64_t b, unsigned n) {
           return OpPair{a & low_mask(n), ~b & low_mask(n)};
         },
     .exact = always_exact,
     .is_mul = false,
     .has_residue = true,
     .compare_decode = true},
    {// kPopcnt: Wallace tree-add of a's low N bits; b is ignored.
     .counter = &ExecStats::popcounts,
     .word = [](const ApimConfig& c, std::uint64_t a, std::uint64_t) {
       return unit(arith::fast_popcount(a, c.word_bits, c.energy));
     },
     .bit_level = [](const ApimConfig& c, std::uint64_t a, std::uint64_t) {
       return unit(arith::inmemory_popcount(a, c.word_bits, c.energy));
     },
     .out_bits = arith::popcount_width_cap,
     .residue_operands =
         [](std::uint64_t a, std::uint64_t, unsigned n) {
           return OpPair{a & low_mask(n), 0};
         },
     .exact = always_exact,
     .is_mul = false,
     .has_residue = false,
     .compare_decode = false},
};

constexpr const OpKernel& kernel(DeviceOp op) {
  return kKernels[static_cast<std::size_t>(op)];
}

}  // namespace

template <DeviceOp K>
std::uint64_t ApimDevice::run_op(std::uint64_t a, std::uint64_t b) {
  constexpr const OpKernel& k = kernel(K);
  // The word model on every backend but kBitLevel, which runs the engine.
  const UnitOutcome r = config_.backend == Backend::kBitLevel
                            ? k.bit_level(config_, a, b)
                            : k.word(config_, a, b);
  // Op index BEFORE the increment: lane assignment and transient-fault
  // draws key off it, and it restarts per device clone, so host-parallel
  // chunking reproduces it for every thread count (apps/parallel.hpp).
  const std::uint64_t op_index = next_op_index();
  ++(stats_.*k.counter);
  stats_.partial_products += r.partial_products;
  stats_.cycles += r.cycles;
  stats_.energy_ops_pj += r.energy_pj;
  const unsigned n = config_.word_bits;
  std::uint64_t value = r.value;
  if (!config_.reliability.passive()) {
    const auto [ra, rb] = k.residue_operands(a, b, n);
    value = protect_result(value, ra, rb, k.out_bits(n), k.is_mul,
                           k.exact(config_), op_index, r.cycles, r.energy_pj,
                           k.has_residue);
  }
  // word_bits <= 32, so the adder carry always sits in-band at bit n.
  return k.compare_decode
             ? arith::compare_code(value, util::bit(value, n) != 0, n)
             : value;
}

template <DeviceOp K>
void ApimDevice::run_batch(std::span<const OpPair> ops,
                           std::span<std::uint64_t> values,
                           std::span<util::Cycles> op_cycles) {
  if (values.size() != ops.size() || op_cycles.size() != ops.size()) {
    throw std::invalid_argument(
        "ApimDevice batch: values and op_cycles must match ops in size");
  }
  for (std::size_t i = 0; i < ops.size(); ++i) {
    const util::Cycles before = stats_.cycles;
    values[i] = run_op<K>(ops[i].first, ops[i].second);
    op_cycles[i] = stats_.cycles - before;
  }
}

std::uint64_t ApimDevice::mul_magnitude(std::uint64_t a, std::uint64_t b) {
  return run_op<DeviceOp::kMul>(a, b);
}
std::uint64_t ApimDevice::add_magnitude(std::uint64_t a, std::uint64_t b) {
  return run_op<DeviceOp::kAdd>(a, b);
}
std::uint64_t ApimDevice::cmp_magnitude(std::uint64_t a, std::uint64_t b) {
  return run_op<DeviceOp::kCmp>(a, b);
}
std::uint64_t ApimDevice::popcnt_magnitude(std::uint64_t a) {
  return run_op<DeviceOp::kPopcnt>(a, 0);
}

void ApimDevice::mul_magnitude_batch(std::span<const OpPair> ops,
                                     std::span<std::uint64_t> values,
                                     std::span<util::Cycles> op_cycles) {
  run_batch<DeviceOp::kMul>(ops, values, op_cycles);
}
void ApimDevice::add_magnitude_batch(std::span<const OpPair> ops,
                                     std::span<std::uint64_t> values,
                                     std::span<util::Cycles> op_cycles) {
  run_batch<DeviceOp::kAdd>(ops, values, op_cycles);
}
void ApimDevice::cmp_magnitude_batch(std::span<const OpPair> ops,
                                     std::span<std::uint64_t> values,
                                     std::span<util::Cycles> op_cycles) {
  run_batch<DeviceOp::kCmp>(ops, values, op_cycles);
}
void ApimDevice::popcnt_magnitude_batch(std::span<const OpPair> ops,
                                        std::span<std::uint64_t> values,
                                        std::span<util::Cycles> op_cycles) {
  run_batch<DeviceOp::kPopcnt>(ops, values, op_cycles);
}

std::uint64_t ApimDevice::protect_result(std::uint64_t raw, std::uint64_t a,
                                         std::uint64_t b, unsigned out_bits,
                                         bool is_mul, bool exact,
                                         std::uint64_t op_index,
                                         util::Cycles exec_cycles,
                                         double exec_energy,
                                         bool has_residue) {
  const reliability::ReliabilityConfig& rel = config_.reliability;
  const reliability::LaneFaultTable& faults = rel.faults;
  const std::size_t lane = faults.lane_of(op_index);
  std::uint64_t value =
      faults.apply(lane, /*domain=*/0, is_mul, raw, out_bits, op_index,
                   /*attempt=*/0);

  using reliability::ReliabilityPolicy;
  if (rel.policy == ReliabilityPolicy::kOff) return value;
  // Ops with no residue identity (popcount) cannot be arbitrated by the
  // detect policies' mod-3 check, so every active policy protects them the
  // spatial way.
  if (rel.policy == ReliabilityPolicy::kTripleVote || !has_residue) {
    // Domains 1 and 2 run the same schedule concurrently on their
    // redundant processing blocks: latency overlaps (plus a vote step
    // at the sense amps), energy triples.
    const std::uint64_t v1 =
        faults.apply(lane, 1, is_mul, raw, out_bits, op_index, 0);
    const std::uint64_t v2 =
        faults.apply(lane, 2, is_mul, raw, out_bits, op_index, 0);
    stats_.energy_ops_pj +=
        2.0 * exec_energy +
        static_cast<double>(out_bits) * config_.energy.e_maj_pj;
    stats_.cycles += 2;
    ++stats_.votes;
    if (value != v1 || value != v2) ++stats_.faults_detected;
    return (value & v1) | (value & v2) | (v1 & v2);
  }

  // Residue codes arbitrate only EXACT results: an approximate op
  // legitimately deviates from the checked identity (reliability/
  // residue.hpp), so those results pass through unchecked.
  if (!exact) return value;
  const unsigned total_bits =
      is_mul ? 4 * config_.word_bits : 3 * config_.word_bits + 1;
  const auto residue_ok = [&](std::uint64_t v) {
    const reliability::ResidueCost c =
        reliability::residue_check_cost(total_bits, config_.energy);
    stats_.cycles += c.cycles;
    stats_.energy_ops_pj += c.energy_pj;
    ++stats_.residue_checks;
    const bool ok = is_mul ? reliability::residue_match_mul(a, b, v)
                           : reliability::residue_match_add(a, b, v);
    if (!ok) ++stats_.faults_detected;
    return ok;
  };
  if (residue_ok(value)) return value;
  if (rel.policy == ReliabilityPolicy::kDetectOnly) return value;

  // Escalation ladder: re-execute on the redundant domains (whose defects
  // are independent) until a result passes its residue check. Each rung
  // pays the full op again.
  for (unsigned d = 1; d <= rel.max_retries; ++d) {
    ++stats_.retries;
    stats_.cycles += exec_cycles;
    stats_.energy_ops_pj += exec_energy;
    value = faults.apply(lane, d, is_mul, raw, out_bits, op_index, d);
    if (residue_ok(value)) return value;
  }
  // Every domain failed verification: hand back the last value and flag
  // the device degraded (ApimDevice::degraded) — the top of the ladder.
  ++stats_.escalations;
  return value;
}

std::int64_t ApimDevice::mul(std::int64_t a, std::int64_t b,
                             util::FixedPointFormat fmt) {
  const bool negative = (a < 0) != (b < 0);
  const auto ma = clamp_magnitude(static_cast<std::uint64_t>(std::llabs(a)));
  const auto mb = clamp_magnitude(static_cast<std::uint64_t>(std::llabs(b)));
  const std::uint64_t product = mul_magnitude(ma, mb);
  const std::uint64_t rescaled = util::rescale_product(product, fmt);
  const auto mag = static_cast<std::int64_t>(rescaled);
  return negative ? -mag : mag;
}

std::int64_t ApimDevice::mul_int(std::int64_t a, std::int64_t b) {
  const bool negative = (a < 0) != (b < 0);
  const auto ma = clamp_magnitude(static_cast<std::uint64_t>(std::llabs(a)));
  const auto mb = clamp_magnitude(static_cast<std::uint64_t>(std::llabs(b)));
  const auto mag = static_cast<std::int64_t>(mul_magnitude(ma, mb));
  return negative ? -mag : mag;
}

std::int64_t ApimDevice::add(std::int64_t a, std::int64_t b) {
  if ((a >= 0) == (b >= 0)) {
    // Same sign: magnitudes add; relaxation applies (Section 3.4).
    const bool negative = a < 0;
    const auto ma = clamp_magnitude(static_cast<std::uint64_t>(std::llabs(a)));
    const auto mb = clamp_magnitude(static_cast<std::uint64_t>(std::llabs(b)));
    const auto mag = static_cast<std::int64_t>(add_magnitude(ma, mb));
    return negative ? -mag : mag;
  }
  // Mixed sign: exact subtraction, charged at the adder's cost (the borrow
  // chain uses the same exact majority path; see file comment). The issued
  // add's value is discarded; only its cost is kept.
  const std::uint64_t mask = low_mask(config_.word_bits);
  (void)add_magnitude(static_cast<std::uint64_t>(std::llabs(a)) & mask,
                      static_cast<std::uint64_t>(std::llabs(b)) & mask);
  return a + b;
}

std::int64_t ApimDevice::add_wide(std::int64_t a, std::int64_t b) {
  // Two chained word additions over the low/high halves; the value is
  // exact (the cross-word carry rides the exact majority chain).
  const std::uint64_t mask = low_mask(config_.word_bits);
  const auto ma = static_cast<std::uint64_t>(std::llabs(a));
  const auto mb = static_cast<std::uint64_t>(std::llabs(b));
  (void)add_magnitude(ma & mask, mb & mask);
  (void)add_magnitude((ma >> config_.word_bits) & mask,
                      (mb >> config_.word_bits) & mask);
  return a + b;
}

std::int64_t ApimDevice::mac_int(std::int64_t acc, std::int64_t a,
                                 std::int64_t b) {
  return add(acc, mul_int(a, b));
}

std::int64_t ApimDevice::dot_int(std::span<const std::int64_t> a,
                                 std::span<const std::int64_t> b) {
  assert(a.size() == b.size());
  std::int64_t acc = 0;
  for (std::size_t i = 0; i < a.size(); ++i) acc = mac_int(acc, a[i], b[i]);
  return acc;
}

std::int64_t ApimDevice::dot_fixed_tree(std::span<const std::int64_t> a,
                                        std::span<const std::int64_t> b,
                                        util::FixedPointFormat fmt) {
  assert(a.size() == b.size());
  if (a.empty()) return 0;

  std::vector<std::uint64_t> positive, negative;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const std::int64_t p = mul(a[i], b[i], fmt);
    if (p >= 0) {
      if (p != 0) positive.push_back(static_cast<std::uint64_t>(p));
    } else {
      negative.push_back(static_cast<std::uint64_t>(-p));
    }
  }

  const auto reduce = [&](const std::vector<std::uint64_t>& values)
      -> std::uint64_t {
    if (values.empty()) return 0;
    if (values.size() == 1) return values[0];
    const std::vector<unsigned> widths(values.size(), config_.word_bits);
    const unsigned cap = std::min<unsigned>(
        63, config_.word_bits +
                util::bit_width(
                    static_cast<std::uint64_t>(values.size()) - 1));
    const arith::AddOutcome r =
        arith::fast_tree_add(values, widths, cap, config_.energy);
    stats_.additions += values.size() - 1;  // Logical adds performed.
    stats_.cycles += r.cycles;
    stats_.energy_ops_pj += r.energy_ops_pj;
    return r.sum;
  };

  const std::uint64_t pos_sum = reduce(positive);
  const std::uint64_t neg_sum = reduce(negative);
  if (!positive.empty() && !negative.empty()) {
    // Final signed combination: one word-serial subtraction.
    const arith::AddOutcome fin = arith::fast_add(
        pos_sum & low_mask(config_.word_bits),
        neg_sum & low_mask(config_.word_bits), config_.word_bits, 0,
        config_.energy);
    ++stats_.additions;
    stats_.cycles += fin.cycles;
    stats_.energy_ops_pj += fin.energy_ops_pj;
  }
  return static_cast<std::int64_t>(pos_sum) -
         static_cast<std::int64_t>(neg_sum);
}

void ApimDevice::parallel_region_end(util::Cycles begin_cycles,
                                     std::size_t ways) {
  assert(ways >= 1);
  assert(stats_.cycles >= begin_cycles);
  const util::Cycles issued = stats_.cycles - begin_cycles;
  const util::Cycles shared =
      (issued + static_cast<util::Cycles>(ways) - 1) /
      static_cast<util::Cycles>(ways);
  stats_.cycles = begin_cycles + shared;
}

void ApimDevice::charge_data_load(std::uint64_t words) {
  // One wordline write per word (all bitline drivers fire together), with
  // an expected half of the bits actually switching.
  stats_.cycles += words;
  stats_.energy_ops_pj +=
      static_cast<double>(words) * static_cast<double>(config_.word_bits) *
      (config_.energy.e_write_driver_pj + 0.5 * config_.energy.e_switch_pj);
}

double ApimDevice::energy_pj() const noexcept {
  return stats_.energy_ops_pj +
         static_cast<double>(stats_.cycles) *
             config_.energy.e_cycle_overhead_pj;
}

double ApimDevice::elapsed_seconds() const noexcept {
  const double lane_seconds = util::cycles_to_seconds(stats_.cycles);
  return lane_seconds / static_cast<double>(config_.parallel_lanes);
}

double ApimDevice::edp_js() const noexcept {
  return energy_pj() * 1e-12 * elapsed_seconds();
}

}  // namespace apim::core
