// ApimDevice: the public compute API of the APIM architecture.
//
// This is what applications program against. Values are signed fixed-point
// raws (sign-magnitude internally: the in-memory multiplier operates on
// magnitudes and the sign is resolved by XOR at the periphery). Every
// operation runs through the validated word-level models of the in-memory
// schedules, so the device accumulates exactly the cycles and energy the
// bit-level MAGIC engine would measure (tests/arith_equivalence_test.cpp).
//
// Semantics of approximation (Section 3.4):
//  * multiplies honour both mask_bits (first-stage) and relax_bits
//    (last-stage): `relax_bits` = the paper's m, relaxing the low m bits
//    of the 2N-bit final product adder;
//  * same-sign additions use the serial adder when exact; when
//    relax_bits > 0 they use the SA-majority relaxed adder with
//    m_add = relax_bits / 2 — the same *fraction* of the N-bit adder as m
//    is of the 2N-bit product adder (the paper applies the technique to
//    addition in general, Figure 6's "99.9% accuracy" series);
//  * mixed-sign additions (subtractions) are computed exactly and charged
//    at the same adder cost — the borrow chain is carried by the same
//    exact majority hardware, so relaxation error is injected only on the
//    sum path (documented design decision; conservative on error);
//  * add_wide() handles double-width values (e.g. sums of 2N-bit squares)
//    as a carry-chained pair of word additions: exact value, twice the
//    adder cost.
#pragma once

#include <cstdint>
#include <span>
#include <utility>

#include "arith/fast_units.hpp"
#include "core/config.hpp"
#include "core/stats.hpp"
#include "util/fixed_point.hpp"

namespace apim::core {

/// Keys of the per-op-kind kernel table, defined in apim.cpp.
enum class DeviceOp : unsigned char;

class ApimDevice {
 public:
  explicit ApimDevice(ApimConfig config = {});

  [[nodiscard]] const ApimConfig& config() const noexcept { return config_; }

  // -- Approximation knobs (the adaptive runtime uses these) ---------------
  void set_relax_bits(unsigned m) noexcept { config_.approx.relax_bits = m; }
  [[nodiscard]] unsigned relax_bits() const noexcept {
    return config_.approx.relax_bits;
  }
  void set_mask_bits(unsigned b) noexcept { config_.approx.mask_bits = b; }
  [[nodiscard]] unsigned mask_bits() const noexcept {
    return config_.approx.mask_bits;
  }

  // -- Raw magnitude operations --------------------------------------------

  /// word_bits x word_bits magnitude multiply; full 2N-bit product.
  [[nodiscard]] std::uint64_t mul_magnitude(std::uint64_t a, std::uint64_t b);

  /// word_bits-wide magnitude addition (carry out preserved).
  [[nodiscard]] std::uint64_t add_magnitude(std::uint64_t a, std::uint64_t b);

  /// word_bits-wide three-way magnitude comparison: returns
  /// arith::kCmpLt / kCmpEq / kCmpGt. Always exact regardless of the
  /// device's relax setting (predicates and join keys are the exactness
  /// domain); the underlying complement-add is residue-protected like any
  /// other exact add.
  [[nodiscard]] std::uint64_t cmp_magnitude(std::uint64_t a, std::uint64_t b);

  /// Popcount of the low word_bits bits of `a` via the Wallace tree-add of
  /// its bits. No mod-3 residue identity relates the count to the input,
  /// so active reliability policies protect it by spatial triple-vote
  /// instead of residue checks.
  [[nodiscard]] std::uint64_t popcnt_magnitude(std::uint64_t a);

  // -- Batched magnitude operations ----------------------------------------
  //
  // The scalar op once per pair, in order, through the same kernel on every
  // backend: op indices, fault draws, residue checks, retry ladders and
  // every stats field are those of the scalar loop. `values[i]` receives
  // op i's result; `op_cycles[i]` the device-cycle delta charged for op i
  // (including protection and retries). Both spans must match `ops` in
  // size, or the call throws std::invalid_argument before any op runs.
  void mul_magnitude_batch(
      std::span<const std::pair<std::uint64_t, std::uint64_t>> ops,
      std::span<std::uint64_t> values, std::span<util::Cycles> op_cycles);
  void add_magnitude_batch(
      std::span<const std::pair<std::uint64_t, std::uint64_t>> ops,
      std::span<std::uint64_t> values, std::span<util::Cycles> op_cycles);
  void cmp_magnitude_batch(
      std::span<const std::pair<std::uint64_t, std::uint64_t>> ops,
      std::span<std::uint64_t> values, std::span<util::Cycles> op_cycles);
  /// Popcount batch; `ops[i].second` is ignored (pair-shaped for symmetry
  /// with the other batch entry points and serve::Request operands).
  void popcnt_magnitude_batch(
      std::span<const std::pair<std::uint64_t, std::uint64_t>> ops,
      std::span<std::uint64_t> values, std::span<util::Cycles> op_cycles);

  // -- Signed fixed-point operations ----------------------------------------

  /// Signed multiply of two raws in format `fmt`, rescaled back to `fmt`
  /// (product >> frac_bits) with saturation.
  [[nodiscard]] std::int64_t mul(std::int64_t a, std::int64_t b,
                                 util::FixedPointFormat fmt);

  /// Signed integer multiply (no rescale): for integer-scaled kernels.
  [[nodiscard]] std::int64_t mul_int(std::int64_t a, std::int64_t b);

  /// Signed addition.
  [[nodiscard]] std::int64_t add(std::int64_t a, std::int64_t b);

  /// Double-width signed addition (for sums of full products): exact
  /// value, charged as two chained word additions.
  [[nodiscard]] std::int64_t add_wide(std::int64_t a, std::int64_t b);

  /// acc + a*b (integer scaling), the kernel workhorse.
  [[nodiscard]] std::int64_t mac_int(std::int64_t acc, std::int64_t a,
                                     std::int64_t b);

  /// Dot product over integer-scaled spans (serial MAC chain).
  [[nodiscard]] std::int64_t dot_int(std::span<const std::int64_t> a,
                                     std::span<const std::int64_t> b);

  /// Dot product with the accumulation done the APIM way: all products
  /// are generated, then reduced with the Wallace 3:2 tree (13 cycles per
  /// stage) instead of a serial MAC chain — the same structure the
  /// multiplier uses internally (Section 3.2 applies it to any multi-
  /// operand addition). Products are rescaled to `fmt`; positive and
  /// negative products reduce in separate trees and the final subtraction
  /// is one word addition. Exact accumulation; multiplies honour the
  /// device's approximation setting.
  [[nodiscard]] std::int64_t dot_fixed_tree(std::span<const std::int64_t> a,
                                            std::span<const std::int64_t> b,
                                            util::FixedPointFormat fmt);

  /// Row-parallel issue window. Operations issued between the snapshot and
  /// `parallel_region_end` are declared to have shared crossbar passes
  /// across `ways` independent lanes (disjoint row groups, same schedule —
  /// see arith/vector_unit.hpp): the region's LATENCY divides by `ways`
  /// while its energy stands. This balanced-load idealization is within 5%
  /// of the round-robin makespan serve::execute_batch schedules at
  /// realistic batch sizes (the Batch.* cases in
  /// tests/parallel_exec_test.cpp).
  [[nodiscard]] util::Cycles parallel_region_begin() const noexcept {
    return stats_.cycles;
  }
  void parallel_region_end(util::Cycles begin_cycles, std::size_t ways);

  /// Charge the cost of loading `words` data words into the crossbar's
  /// data blocks (one driver-write cycle per word row, write energy per
  /// bit). The paper preloads all data ("to avoid the disk communication
  /// ... all the data used in the experiments is preloaded", Section 4.1),
  /// so the standard benches do NOT call this; the load-cost ablation
  /// quantifies what preloading hides.
  void charge_data_load(std::uint64_t words);

  // -- Reliability ----------------------------------------------------------

  /// Charge fabric-maintenance work (BIST march scans, spare remapping)
  /// that the reliability layer performed on this device's crossbars.
  void charge_reliability_overhead(util::Cycles cycles, double energy_pj) {
    stats_.cycles += cycles;
    stats_.energy_ops_pj += energy_pj;
  }

  /// True once any op exhausted its retry ladder and returned an
  /// unverified result (the escalation ladder's last rung): the device
  /// should be taken out of service.
  [[nodiscard]] bool degraded() const noexcept {
    return stats_.escalations > 0;
  }

  /// The reliability counters an online health tracker consumes per
  /// execution window: residue/vote mismatches, ladder re-executions, and
  /// exhausted ladders. The serving runtime's per-fault-domain state
  /// machine (serve/health.hpp) quarantines on escalations and turns
  /// domains suspect on detections.
  struct HealthCounters {
    std::uint64_t detections = 0;
    std::uint64_t retries = 0;
    std::uint64_t escalations = 0;
  };
  [[nodiscard]] HealthCounters health_counters() const noexcept {
    return health_counters(stats_);
  }
  [[nodiscard]] static HealthCounters health_counters(
      const ExecStats& s) noexcept {
    return HealthCounters{s.faults_detected, s.retries, s.escalations};
  }

  // -- Accounting -----------------------------------------------------------
  [[nodiscard]] const ExecStats& stats() const noexcept { return stats_; }
  void reset_stats() noexcept { stats_.reset(); }

  /// Fold a worker device's accumulated stats into this device. Used by
  /// apps::parallel_map: each host worker issues ops to a private clone
  /// and the clones' stats merge here in deterministic chunk order.
  void merge_stats(const ExecStats& s) noexcept { stats_.merge(s); }

  /// Total energy including per-cycle controller overhead, pJ.
  [[nodiscard]] double energy_pj() const noexcept;
  /// Wall time with `parallel_lanes` pipelines running the issued ops.
  [[nodiscard]] double elapsed_seconds() const noexcept;
  /// Energy-delay product, J*s.
  [[nodiscard]] double edp_js() const noexcept;

 private:
  [[nodiscard]] std::uint64_t clamp_magnitude(std::uint64_t m) const noexcept;

  /// Apply the configured fault state to a raw unit result and run the
  /// policy's detection/recovery machinery (see reliability/policy.hpp).
  /// `exec_cycles`/`exec_energy` are the cost of ONE execution of the op,
  /// used to charge retries and redundant vote copies; `exact` says
  /// whether the raw value is bit-exact (residue checking needs that).
  /// `has_residue` says whether a mod-3 identity over (a, b) checks the
  /// result; ops without one (popcount) fall back to triple-vote under the
  /// detect policies.
  [[nodiscard]] std::uint64_t protect_result(std::uint64_t raw,
                                             std::uint64_t a, std::uint64_t b,
                                             unsigned out_bits, bool is_mul,
                                             bool exact,
                                             std::uint64_t op_index,
                                             util::Cycles exec_cycles,
                                             double exec_energy,
                                             bool has_residue);

  /// The one per-op step every entry point shares: the kernel call (word
  /// model, or the engine under Backend::kBitLevel), op index, op counter,
  /// stats, protection and result decode, as table row K of apim.cpp
  /// specifies them.
  template <DeviceOp K>
  [[nodiscard]] std::uint64_t run_op(std::uint64_t a, std::uint64_t b);
  /// The one batch loop behind the four *_magnitude_batch entry points:
  /// run_op per op, in op order, recording each op's cycle delta.
  template <DeviceOp K>
  void run_batch(std::span<const std::pair<std::uint64_t, std::uint64_t>> ops,
                 std::span<std::uint64_t> values,
                 std::span<util::Cycles> op_cycles);

  /// Shared op-index base: every magnitude op keys its lane assignment and
  /// fault draws off the count of ops issued before it, device-clone-local.
  [[nodiscard]] std::uint64_t next_op_index() const noexcept {
    return stats_.multiplies + stats_.additions + stats_.comparisons +
           stats_.popcounts;
  }

  ApimConfig config_;
  ExecStats stats_;
};

}  // namespace apim::core
