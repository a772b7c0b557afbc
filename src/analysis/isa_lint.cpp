#include "analysis/isa_lint.hpp"

#include <algorithm>
#include <cstdint>
#include <deque>
#include <optional>
#include <string>
#include <vector>

namespace apim::analysis {

namespace {

using isa::Instruction;
using isa::Opcode;
using isa::Program;

/// Registers read / written by one instruction, as r-index lists. The
/// table mirrors the interpreter's semantics exactly (kMac reads its
/// destination, kStore's `dst` field is the *value being stored*, vector
/// ops read all three base registers and write none).
struct RegUse {
  std::vector<std::uint8_t> reads;
  std::optional<std::uint8_t> def;
};

RegUse reg_use(const Instruction& inst) {
  switch (inst.op) {
    case Opcode::kMul:
    case Opcode::kAdd:
    case Opcode::kSub:
      return {{inst.src1, inst.src2}, inst.dst};
    case Opcode::kMac:
      return {{inst.dst, inst.src1, inst.src2}, inst.dst};
    case Opcode::kLoad:
      return {{inst.src1}, inst.dst};
    case Opcode::kLoadImm:
      return {{}, inst.dst};
    case Opcode::kStore:
      return {{inst.dst, inst.src1}, std::nullopt};
    case Opcode::kVAdd:
    case Opcode::kVMul:
      return {{inst.dst, inst.src1, inst.src2}, std::nullopt};
    case Opcode::kMov:
    case Opcode::kAddi:
    case Opcode::kShr:
    case Opcode::kShl:
      return {{inst.src1}, inst.dst};
    case Opcode::kJz:
    case Opcode::kJnz:
      return {{inst.src1}, std::nullopt};
    case Opcode::kSetRelax:
    case Opcode::kSetMask:
    case Opcode::kJmp:
    case Opcode::kHalt:
      return {{}, std::nullopt};
  }
  return {};
}

[[nodiscard]] bool is_branch(Opcode op) noexcept {
  return op == Opcode::kJmp || op == Opcode::kJz || op == Opcode::kJnz;
}

/// Abstract register value for the constant-propagation pass.
struct ConstVal {
  bool known = false;
  std::int64_t value = 0;

  [[nodiscard]] static ConstVal constant(std::int64_t v) noexcept {
    return {true, v};
  }
  [[nodiscard]] static ConstVal unknown() noexcept { return {}; }

  friend bool operator==(const ConstVal&, const ConstVal&) = default;
};

using ConstState = std::vector<ConstVal>;  // One entry per register.

/// Lattice meet: agreeing constants survive a join, anything else is
/// unknown. Returns true when `into` changed.
bool meet_into(ConstState& into, const ConstState& from) {
  bool changed = false;
  for (std::size_t r = 0; r < into.size(); ++r) {
    if (into[r].known && !(into[r] == from[r])) {
      into[r] = ConstVal::unknown();
      changed = true;
    }
  }
  return changed;
}

/// Interpreter-faithful transfer of controller ops; data ops and memory
/// loads yield unknown (their results may be approximate / data-driven).
void const_transfer(const Instruction& inst, ConstState& state) {
  const auto set = [&](std::uint8_t r, ConstVal v) {
    if (r != 0) state[r] = v;  // r0 is hard-wired zero.
  };
  const ConstVal a = state[inst.src1];
  switch (inst.op) {
    case Opcode::kLoadImm:
      set(inst.dst, ConstVal::constant(inst.imm));
      break;
    case Opcode::kMov:
      set(inst.dst, a);
      break;
    case Opcode::kAddi:
      set(inst.dst, a.known ? ConstVal::constant(a.value + inst.imm)
                            : ConstVal::unknown());
      break;
    case Opcode::kShl:
      set(inst.dst, a.known && inst.imm >= 0 && inst.imm <= 63
                        ? ConstVal::constant(static_cast<std::int64_t>(
                              static_cast<std::uint64_t>(a.value)
                              << inst.imm))
                        : ConstVal::unknown());
      break;
    case Opcode::kShr: {
      if (a.known && inst.imm >= 0 && inst.imm <= 63) {
        // Sign-magnitude shift, matching the interpreter.
        const std::int64_t mag =
            (a.value < 0 ? -a.value : a.value) >> inst.imm;
        set(inst.dst, ConstVal::constant(a.value < 0 ? -mag : mag));
      } else {
        set(inst.dst, ConstVal::unknown());
      }
      break;
    }
    case Opcode::kMul:
    case Opcode::kAdd:
    case Opcode::kSub:
    case Opcode::kMac:
    case Opcode::kLoad:
      set(inst.dst, ConstVal::unknown());
      break;
    default:
      break;  // No register effect.
  }
}

class Linter {
 public:
  Linter(const Program& program, const LintOptions& options)
      : program_(program), options_(options), size_(program.code.size()) {}

  Report run() {
    if (size_ == 0) {
      report_.add({Severity::kWarning, "empty-program", 0, -1,
                   "program contains no instructions", ""});
      return std::move(report_);
    }
    check_branch_targets();
    build_cfg();
    compute_reachability();
    check_halt_paths();
    check_register_dataflow();
    run_const_checks();
    return std::move(report_);
  }

 private:
  [[nodiscard]] std::uint32_t line_of(std::size_t pc) const {
    return pc < program_.source_lines.size() ? program_.source_lines[pc] : 0;
  }

  void diag(Severity sev, std::string rule, std::size_t pc,
            std::string message, std::string hint = "") {
    report_.add({sev, std::move(rule), line_of(pc),
                 static_cast<std::int64_t>(pc), std::move(message),
                 std::move(hint)});
  }

  [[nodiscard]] bool valid_target(std::int64_t t) const noexcept {
    return t >= 0 && static_cast<std::size_t>(t) < size_;
  }

  void check_branch_targets() {
    for (std::size_t i = 0; i < size_; ++i) {
      const Instruction& inst = program_.code[i];
      if (!is_branch(inst.op) || valid_target(inst.imm)) continue;
      std::string hint;
      if (inst.imm >= 0 && static_cast<std::size_t>(inst.imm) == size_)
        hint = "the label lands after the final instruction; "
               "add a halt (or code) under it";
      diag(Severity::kError, "branch-target", i,
           "branch target " + std::to_string(inst.imm) + " is outside the "
           "program [0, " + std::to_string(size_) + ")",
           std::move(hint));
    }
  }

  /// Successor edges; invalid branch targets (already reported) produce
  /// no edge so the remaining analyses stay in-bounds.
  void build_cfg() {
    succ_.assign(size_, {});
    pred_.assign(size_, {});
    const auto edge = [&](std::size_t from, std::size_t to) {
      succ_[from].push_back(to);
      pred_[to].push_back(from);
    };
    for (std::size_t i = 0; i < size_; ++i) {
      const Instruction& inst = program_.code[i];
      switch (inst.op) {
        case Opcode::kHalt:
          break;
        case Opcode::kJmp:
          if (valid_target(inst.imm))
            edge(i, static_cast<std::size_t>(inst.imm));
          break;
        case Opcode::kJz:
        case Opcode::kJnz:
          if (valid_target(inst.imm))
            edge(i, static_cast<std::size_t>(inst.imm));
          if (i + 1 < size_) edge(i, i + 1);
          break;
        default:
          if (i + 1 < size_) edge(i, i + 1);
          break;
      }
    }
  }

  void compute_reachability() {
    reachable_.assign(size_, false);
    std::deque<std::size_t> work{0};
    reachable_[0] = true;
    while (!work.empty()) {
      const std::size_t i = work.front();
      work.pop_front();
      for (std::size_t s : succ_[i])
        if (!reachable_[s]) {
          reachable_[s] = true;
          work.push_back(s);
        }
    }
    for (std::size_t i = 0; i < size_; ++i)
      if (!reachable_[i])
        diag(Severity::kWarning, "unreachable", i,
             "instruction is unreachable on every path",
             "dead code after an unconditional jump or halt?");
  }

  void check_halt_paths() {
    // Fall-off-the-end: a reachable instruction whose fall-through leaves
    // the program. (kJmp with a valid target never falls through; an
    // invalid target was already reported as branch-target.)
    for (std::size_t i = 0; i < size_; ++i) {
      if (!reachable_[i] || i + 1 < size_) continue;
      const Opcode op = program_.code[i].op;
      if (op == Opcode::kHalt) continue;
      if (op == Opcode::kJmp && valid_target(program_.code[i].imm)) continue;
      diag(Severity::kError, "fall-off-end", i,
           "control can run past the last instruction without a halt",
           "end the kernel with `halt`");
    }

    // Backward reachability from every halt.
    std::vector<bool> reaches_halt(size_, false);
    std::deque<std::size_t> work;
    for (std::size_t i = 0; i < size_; ++i)
      if (program_.code[i].op == Opcode::kHalt) {
        reaches_halt[i] = true;
        work.push_back(i);
      }
    while (!work.empty()) {
      const std::size_t i = work.front();
      work.pop_front();
      for (std::size_t p : pred_[i])
        if (!reaches_halt[p]) {
          reaches_halt[p] = true;
          work.push_back(p);
        }
    }
    if (!reaches_halt[0]) {
      diag(Severity::kError, "no-halt-path", 0,
           "no halt instruction is reachable from the entry",
           "every kernel must terminate with `halt`");
      return;  // Every instruction would repeat the finding below.
    }
    for (std::size_t i = 0; i < size_; ++i)
      if (reachable_[i] && !reaches_halt[i])
        diag(Severity::kWarning, "infinite-loop", i,
             "once control reaches this instruction no halt is reachable",
             "check the loop exit condition");
  }

  /// Must-defined register analysis (intersection over predecessors);
  /// reading a register not written on every path is flagged. r0 is
  /// always defined (hard-wired zero).
  void check_register_dataflow() {
    constexpr std::uint32_t kAll = 0xFFFFFFFFu;
    std::vector<std::uint32_t> in(size_, kAll);
    in[0] = 1u;  // Only r0 at entry.
    std::deque<std::size_t> work{0};
    std::vector<bool> queued(size_, false);
    queued[0] = true;
    while (!work.empty()) {
      const std::size_t i = work.front();
      work.pop_front();
      queued[i] = false;
      const RegUse use = reg_use(program_.code[i]);
      std::uint32_t out = in[i];
      if (use.def && *use.def != 0) out |= 1u << *use.def;
      for (std::size_t s : succ_[i]) {
        const std::uint32_t met = in[s] & out;
        if (met != in[s]) {
          in[s] = met;
          if (!queued[s]) {
            queued[s] = true;
            work.push_back(s);
          }
        }
      }
    }
    for (std::size_t i = 0; i < size_; ++i) {
      if (!reachable_[i]) continue;
      const RegUse use = reg_use(program_.code[i]);
      std::uint32_t flagged = 0;  // One finding per register per read site.
      for (std::uint8_t r : use.reads) {
        if (r == 0 || (in[i] >> r) & 1u || (flagged >> r) & 1u) continue;
        flagged |= 1u << r;
        std::string reg = "r";
        reg += std::to_string(r);
        std::string message = reg;
        message += " is read before it is written on some path (it "
                   "silently holds the power-on zero)";
        std::string hint = "initialize it first, e.g. `load ";
        hint += reg;
        hint += ", #0`";
        diag(Severity::kError, "use-before-def", i, std::move(message),
             std::move(hint));
      }
      // A write to r0 is dropped by the register file — almost always a
      // typo for another register.
      const Instruction& inst = program_.code[i];
      if (use.def && *use.def == 0 && inst.op != Opcode::kStore)
        diag(Severity::kWarning, "r0-write", i,
             "write to r0 is ignored (r0 is hard-wired zero)",
             "did you mean another register?");
    }
  }

  void check_const_memory(std::size_t pc, const ConstVal& base,
                          std::int64_t offset, std::int64_t count,
                          const char* what) {
    if (!base.known) return;
    const std::int64_t first = base.value + offset;
    const std::int64_t last = first + count - 1;
    const bool below = first < 0;
    const bool above =
        options_.memory_words > 0 &&
        last >= static_cast<std::int64_t>(options_.memory_words);
    if (!below && !above) return;
    std::string range = count == 1
                            ? "address " + std::to_string(first)
                            : "addresses [" + std::to_string(first) + ", " +
                                  std::to_string(last) + "]";
    diag(Severity::kError, "mem-bounds", pc,
         std::string(what) + " " + range + " outside the data memory [0, " +
             (options_.memory_words > 0 ? std::to_string(options_.memory_words)
                                        : std::string("?")) +
             ")",
         "check the base register / offset against --memsize");
  }

  void run_const_checks() {
    // Fixpoint first: per-instruction in-states.
    std::vector<ConstState> in(size_);
    std::vector<bool> seen(size_, false);
    in[0].assign(isa::kRegisterCount, ConstVal::constant(0));
    seen[0] = true;
    std::deque<std::size_t> work{0};
    std::vector<bool> queued(size_, false);
    queued[0] = true;
    while (!work.empty()) {
      const std::size_t i = work.front();
      work.pop_front();
      queued[i] = false;
      ConstState out = in[i];
      const_transfer(program_.code[i], out);
      for (std::size_t s : succ_[i]) {
        bool changed = false;
        if (!seen[s]) {
          in[s] = out;
          seen[s] = true;
          changed = true;
        } else {
          changed = meet_into(in[s], out);
        }
        if (changed && !queued[s]) {
          queued[s] = true;
          work.push_back(s);
        }
      }
    }

    // Single checking pass over the stabilized states.
    for (std::size_t i = 0; i < size_; ++i) {
      if (!reachable_[i]) continue;
      const Instruction& inst = program_.code[i];
      const ConstState& state = in[i];
      switch (inst.op) {
        case Opcode::kLoad:
          check_const_memory(i, state[inst.src1], inst.imm, 1, "load of");
          break;
        case Opcode::kStore:
          check_const_memory(i, state[inst.src1], inst.imm, 1, "store to");
          break;
        case Opcode::kVAdd:
        case Opcode::kVMul: {
          if (inst.imm <= 0) {
            diag(Severity::kError, "vector-length", i,
                 "vector element count " + std::to_string(inst.imm) +
                     " must be positive");
            break;
          }
          const ConstVal d = state[inst.dst];
          const ConstVal a = state[inst.src1];
          const ConstVal b = state[inst.src2];
          check_const_memory(i, d, 0, inst.imm, "vector destination");
          check_const_memory(i, a, 0, inst.imm, "vector source");
          check_const_memory(i, b, 0, inst.imm, "vector source");
          const auto overlap_check = [&](const ConstVal& src,
                                         const char* name) {
            if (!d.known || !src.known || d.value == src.value) return;
            const std::int64_t dist = d.value > src.value
                                          ? d.value - src.value
                                          : src.value - d.value;
            if (dist >= inst.imm) return;
            diag(Severity::kError, "vector-overlap", i,
                 "destination [" + std::to_string(d.value) + ", " +
                     std::to_string(d.value + inst.imm - 1) +
                     "] partially overlaps " + name + " [" +
                     std::to_string(src.value) + ", " +
                     std::to_string(src.value + inst.imm - 1) +
                     "]: elements are clobbered before they are read",
                 "separate the regions (identical bases — pure in-place — "
                 "are fine)");
          };
          overlap_check(a, "source A");
          overlap_check(b, "source B");
          break;
        }
        case Opcode::kSetRelax:
          if (inst.imm < 0 || inst.imm > 64)
            diag(Severity::kError, "setrelax-range", i,
                 "setrelax " + std::to_string(inst.imm) +
                     " outside the 0..64 precision range");
          break;
        case Opcode::kSetMask:
          if (inst.imm < 0 || inst.imm > 32)
            diag(Severity::kError, "setmask-range", i,
                 "setmask " + std::to_string(inst.imm) +
                     " outside the 0..32 first-stage mask range",
                 "mask bits apply to the 32-bit multiplier image");
          break;
        default:
          break;
      }
    }
  }

  const Program& program_;
  const LintOptions& options_;
  std::size_t size_;
  Report report_;
  std::vector<std::vector<std::size_t>> succ_;
  std::vector<std::vector<std::size_t>> pred_;
  std::vector<bool> reachable_;
};

}  // namespace

Report lint_program(const isa::Program& program, const LintOptions& options) {
  return Linter(program, options).run();
}

}  // namespace apim::analysis
