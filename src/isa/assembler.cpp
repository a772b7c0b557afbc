#include "isa/assembler.hpp"

#include <algorithm>
#include <cctype>
#include <limits>
#include <map>
#include <vector>

#include "util/scan.hpp"

namespace apim::isa {

namespace {

/// Strip comments/whitespace and split one line into mnemonic + operands
/// (operands separated by commas).
struct ParsedLine {
  std::string label;     ///< Without the trailing ':'.
  std::string mnemonic;  ///< Lowercased.
  std::vector<std::string> operands;
};

std::string trim(std::string_view s) {
  std::size_t begin = 0;
  std::size_t end = s.size();
  while (begin < end && std::isspace(static_cast<unsigned char>(s[begin])))
    ++begin;
  while (end > begin && std::isspace(static_cast<unsigned char>(s[end - 1])))
    --end;
  return std::string(s.substr(begin, end - begin));
}

std::string lowercase(std::string s) {
  std::transform(s.begin(), s.end(), s.begin(), [](unsigned char c) {
    return static_cast<char>(std::tolower(c));
  });
  return s;
}

ParsedLine parse_line(std::string_view raw, std::uint32_t line) {
  ParsedLine parsed;
  std::string text(raw.substr(0, raw.find(';')));

  // Leading label?
  if (const auto colon = text.find(':'); colon != std::string::npos) {
    parsed.label = trim(text.substr(0, colon));
    if (parsed.label.empty())
      throw AssemblyError(line, "empty label");
    for (char c : parsed.label)
      if (!std::isalnum(static_cast<unsigned char>(c)) && c != '_')
        throw AssemblyError(line, "invalid label '" + parsed.label + "'");
    text = text.substr(colon + 1);
  }

  text = trim(text);
  if (text.empty()) return parsed;

  const auto space = text.find_first_of(" \t");
  parsed.mnemonic = lowercase(trim(text.substr(0, space)));
  if (space != std::string::npos) {
    std::string rest = trim(text.substr(space));
    std::size_t start = 0;
    while (start <= rest.size()) {
      const auto comma = rest.find(',', start);
      const std::string operand =
          trim(rest.substr(start, comma == std::string::npos
                                      ? std::string::npos
                                      : comma - start));
      if (operand.empty())
        throw AssemblyError(line, "empty operand");
      parsed.operands.push_back(operand);
      if (comma == std::string::npos) break;
      start = comma + 1;
    }
  }
  return parsed;
}

std::uint8_t parse_register(const std::string& operand, std::uint32_t line) {
  if (operand.size() < 2 || (operand[0] != 'r' && operand[0] != 'R'))
    throw AssemblyError(line, "expected register, got '" + operand + "'");
  std::uint8_t value = 0;
  if (!util::scan(std::string_view(operand).substr(1), &value, 0,
                  kRegisterCount - 1))
    throw AssemblyError(line, "bad register '" + operand + "'");
  return value;
}

std::int64_t parse_immediate(const std::string& operand, std::uint32_t line) {
  if (operand.empty() || operand[0] != '#')
    throw AssemblyError(line, "expected immediate, got '" + operand + "'");
  std::int64_t value = 0;
  if (!util::scan(std::string_view(operand).substr(1), &value))
    throw AssemblyError(line, "bad immediate '" + operand + "'");
  return value;
}

/// "[rA+off]" or "[rA]" or "[rA-off]".
struct MemOperand {
  std::uint8_t base;
  std::int64_t offset;
};

MemOperand parse_memory(const std::string& operand, std::uint32_t line) {
  if (operand.size() < 3 || operand.front() != '[' || operand.back() != ']')
    throw AssemblyError(line, "expected memory operand, got '" + operand + "'");
  const std::string inner = trim(operand.substr(1, operand.size() - 2));
  const auto sign = inner.find_first_of("+-");
  if (sign == std::string::npos) return {parse_register(inner, line), 0};
  const std::uint8_t base = parse_register(trim(inner.substr(0, sign)), line);
  // The sign is the operator; the offset's magnitude is unsigned and fits
  // int64, so negating it cannot overflow.
  std::uint64_t magnitude = 0;
  if (!util::scan(trim(inner.substr(sign + 1)), &magnitude, 0,
                  std::numeric_limits<std::int64_t>::max()))
    throw AssemblyError(line, "bad offset in '" + operand + "'");
  const auto offset = static_cast<std::int64_t>(magnitude);
  return {base, inner[sign] == '-' ? -offset : offset};
}

std::string parse_label_ref(const std::string& operand, std::uint32_t line) {
  if (operand.size() < 2 || operand[0] != '@')
    throw AssemblyError(line, "expected @label, got '" + operand + "'");
  return operand.substr(1);
}

void expect_operands(const ParsedLine& p, std::size_t count,
                     std::uint32_t line) {
  if (p.operands.size() != count)
    throw AssemblyError(line, p.mnemonic + " expects " +
                                  std::to_string(count) + " operands, got " +
                                  std::to_string(p.operands.size()));
}

}  // namespace

Program assemble(std::string_view source) {
  Program program;
  struct LabelDef {
    std::size_t instruction;
    std::uint32_t line;
  };
  std::map<std::string, LabelDef> labels;
  struct Fixup {
    std::size_t instruction;
    std::string label;
    std::uint32_t line;
  };
  std::vector<Fixup> fixups;

  std::uint32_t line_number = 0;
  std::size_t start = 0;
  while (start <= source.size()) {
    const auto newline = source.find('\n', start);
    const std::string_view raw = source.substr(
        start, newline == std::string_view::npos ? std::string_view::npos
                                                 : newline - start);
    ++line_number;
    start = newline == std::string_view::npos ? source.size() + 1
                                              : newline + 1;

    const ParsedLine p = parse_line(raw, line_number);
    if (!p.label.empty()) {
      const auto [it, inserted] = labels.emplace(
          p.label, LabelDef{program.code.size(), line_number});
      if (!inserted)
        throw AssemblyError(line_number,
                            "duplicate label '" + p.label +
                                "' (first defined at line " +
                                std::to_string(it->second.line) + ")");
    }
    if (p.mnemonic.empty()) continue;

    Instruction inst;
    if (p.mnemonic == "mul" || p.mnemonic == "add" || p.mnemonic == "sub" ||
        p.mnemonic == "mac") {
      expect_operands(p, 3, line_number);
      inst.op = p.mnemonic == "mul"   ? Opcode::kMul
                : p.mnemonic == "add" ? Opcode::kAdd
                : p.mnemonic == "sub" ? Opcode::kSub
                                      : Opcode::kMac;
      inst.dst = parse_register(p.operands[0], line_number);
      inst.src1 = parse_register(p.operands[1], line_number);
      inst.src2 = parse_register(p.operands[2], line_number);
    } else if (p.mnemonic == "load") {
      expect_operands(p, 2, line_number);
      inst.dst = parse_register(p.operands[0], line_number);
      if (!p.operands[1].empty() && p.operands[1][0] == '#') {
        inst.op = Opcode::kLoadImm;
        inst.imm = parse_immediate(p.operands[1], line_number);
      } else {
        inst.op = Opcode::kLoad;
        const MemOperand mem = parse_memory(p.operands[1], line_number);
        inst.src1 = mem.base;
        inst.imm = mem.offset;
      }
    } else if (p.mnemonic == "store") {
      expect_operands(p, 2, line_number);
      inst.op = Opcode::kStore;
      inst.dst = parse_register(p.operands[0], line_number);
      const MemOperand mem = parse_memory(p.operands[1], line_number);
      inst.src1 = mem.base;
      inst.imm = mem.offset;
    } else if (p.mnemonic == "vadd" || p.mnemonic == "vmul") {
      expect_operands(p, 4, line_number);
      inst.op = p.mnemonic == "vadd" ? Opcode::kVAdd : Opcode::kVMul;
      const MemOperand dst = parse_memory(p.operands[0], line_number);
      const MemOperand src_a = parse_memory(p.operands[1], line_number);
      const MemOperand src_b = parse_memory(p.operands[2], line_number);
      if (dst.offset != 0 || src_a.offset != 0 || src_b.offset != 0)
        throw AssemblyError(line_number,
                            "vector operands take bare [rX] addresses");
      inst.dst = dst.base;
      inst.src1 = src_a.base;
      inst.src2 = src_b.base;
      inst.imm = parse_immediate(p.operands[3], line_number);
      if (inst.imm <= 0)
        throw AssemblyError(line_number, "vector length must be positive");
    } else if (p.mnemonic == "mov") {
      expect_operands(p, 2, line_number);
      inst.op = Opcode::kMov;
      inst.dst = parse_register(p.operands[0], line_number);
      inst.src1 = parse_register(p.operands[1], line_number);
    } else if (p.mnemonic == "addi" || p.mnemonic == "shr" ||
               p.mnemonic == "shl") {
      expect_operands(p, 3, line_number);
      inst.op = p.mnemonic == "addi" ? Opcode::kAddi
                : p.mnemonic == "shr" ? Opcode::kShr
                                      : Opcode::kShl;
      inst.dst = parse_register(p.operands[0], line_number);
      inst.src1 = parse_register(p.operands[1], line_number);
      inst.imm = parse_immediate(p.operands[2], line_number);
      if ((inst.op == Opcode::kShr || inst.op == Opcode::kShl) &&
          (inst.imm < 0 || inst.imm > 63))
        throw AssemblyError(line_number, "shift amount out of range");
    } else if (p.mnemonic == "setrelax" || p.mnemonic == "setmask") {
      expect_operands(p, 1, line_number);
      inst.op = p.mnemonic == "setrelax" ? Opcode::kSetRelax
                                         : Opcode::kSetMask;
      inst.imm = parse_immediate(p.operands[0], line_number);
      if (inst.imm < 0 || inst.imm > 64)
        throw AssemblyError(line_number, "precision setting out of range");
    } else if (p.mnemonic == "jmp") {
      expect_operands(p, 1, line_number);
      inst.op = Opcode::kJmp;
      fixups.push_back(
          {program.code.size(), parse_label_ref(p.operands[0], line_number),
           line_number});
    } else if (p.mnemonic == "jz" || p.mnemonic == "jnz") {
      expect_operands(p, 2, line_number);
      inst.op = p.mnemonic == "jz" ? Opcode::kJz : Opcode::kJnz;
      inst.src1 = parse_register(p.operands[0], line_number);
      fixups.push_back(
          {program.code.size(), parse_label_ref(p.operands[1], line_number),
           line_number});
    } else if (p.mnemonic == "halt") {
      expect_operands(p, 0, line_number);
      inst.op = Opcode::kHalt;
    } else {
      throw AssemblyError(line_number,
                          "unknown mnemonic '" + p.mnemonic + "'");
    }
    program.code.push_back(inst);
    program.source_lines.push_back(line_number);
  }

  for (const auto& fixup : fixups) {
    const auto it = labels.find(fixup.label);
    if (it == labels.end())
      throw AssemblyError(fixup.line, "undefined label '" + fixup.label + "'");
    program.code[fixup.instruction].imm =
        static_cast<std::int64_t>(it->second.instruction);
  }
  return program;
}

}  // namespace apim::isa
