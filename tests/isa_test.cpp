// Tests of the APIM kernel ISA: assembler syntax and diagnostics,
// interpreter semantics, device-cost integration, and a realistic kernel.
#include <gtest/gtest.h>

#include <vector>

#include "arith/latency_model.hpp"
#include "isa/assembler.hpp"
#include "isa/interpreter.hpp"

namespace apim::isa {
namespace {

core::ApimDevice make_device() { return core::ApimDevice{}; }

ExecutionResult run_source(const char* source, core::ApimDevice& device,
                           std::vector<std::int64_t>& memory) {
  const Program program = assemble(source);
  Interpreter interp(device);
  return interp.run(program, memory);
}

// ----------------------------------------------------------- assembler ----

TEST(Assembler, ParsesThreeOperandOps) {
  const Program p = assemble("mul r1, r2, r3\nadd r4, r5, r6\n");
  ASSERT_EQ(p.size(), 2u);
  EXPECT_EQ(p.code[0].op, Opcode::kMul);
  EXPECT_EQ(p.code[0].dst, 1);
  EXPECT_EQ(p.code[0].src1, 2);
  EXPECT_EQ(p.code[0].src2, 3);
  EXPECT_EQ(p.code[1].op, Opcode::kAdd);
}

TEST(Assembler, ParsesMemoryOperands) {
  const Program p = assemble(
      "load r1, [r2+4]\nload r3, [r4]\nload r5, [r6-2]\nstore r1, [r2+8]\n");
  EXPECT_EQ(p.code[0].op, Opcode::kLoad);
  EXPECT_EQ(p.code[0].imm, 4);
  EXPECT_EQ(p.code[1].imm, 0);
  EXPECT_EQ(p.code[2].imm, -2);
  EXPECT_EQ(p.code[3].op, Opcode::kStore);
}

TEST(Assembler, ParsesImmediatesAndComments) {
  const Program p = assemble(
      "; a comment line\n"
      "load r1, #-17   ; trailing comment\n"
      "setrelax #16\n");
  ASSERT_EQ(p.size(), 2u);
  EXPECT_EQ(p.code[0].op, Opcode::kLoadImm);
  EXPECT_EQ(p.code[0].imm, -17);
  EXPECT_EQ(p.code[1].op, Opcode::kSetRelax);
  EXPECT_EQ(p.code[1].imm, 16);
}

TEST(Assembler, ResolvesForwardAndBackwardLabels) {
  const Program p = assemble(
      "start: load r1, #3\n"
      "loop:  addi r1, r1, #-1\n"
      "       jnz r1, @loop\n"
      "       jmp @end\n"
      "       halt\n"
      "end:   halt\n");
  EXPECT_EQ(p.code[2].op, Opcode::kJnz);
  EXPECT_EQ(p.code[2].imm, 1);  // @loop -> instruction index 1.
  EXPECT_EQ(p.code[3].imm, 5);  // @end -> index 5.
}

TEST(Assembler, DiagnosticsCarryLineNumbers) {
  try {
    (void)assemble("mul r1, r2, r3\nbogus r1\n");
    FAIL() << "expected AssemblyError";
  } catch (const AssemblyError& e) {
    EXPECT_EQ(e.line(), 2u);
    EXPECT_NE(std::string(e.what()).find("bogus"), std::string::npos);
  }
}

TEST(Assembler, RejectsBadRegisters) {
  EXPECT_THROW((void)assemble("mul r1, r2, r99\n"), AssemblyError);
  EXPECT_THROW((void)assemble("mov rX, r1\n"), AssemblyError);
}

TEST(Assembler, RejectsBadOperandCounts) {
  EXPECT_THROW((void)assemble("mul r1, r2\n"), AssemblyError);
  EXPECT_THROW((void)assemble("halt r1\n"), AssemblyError);
}

TEST(Assembler, RejectsDuplicateAndUndefinedLabels) {
  EXPECT_THROW((void)assemble("a: halt\na: halt\n"), AssemblyError);
  EXPECT_THROW((void)assemble("jmp @nowhere\nhalt\n"), AssemblyError);
}

TEST(Assembler, RejectsBadMemoryOffsets) {
  // The sign is the operator and the magnitude an unsigned number of at
  // most 2^63 - 1: a second sign or a larger magnitude is an error, and
  // negating the magnitude cannot overflow.
  EXPECT_THROW((void)assemble("load r1, [r2--9223372036854775808]\n"),
               AssemblyError);
  EXPECT_THROW((void)assemble("load r1, [r2+-5]\n"), AssemblyError);
  EXPECT_THROW((void)assemble("load r1, [r2--5]\n"), AssemblyError);
  EXPECT_THROW((void)assemble("store r1, [r2+9223372036854775808]\n"),
               AssemblyError);
  EXPECT_EQ(assemble("load r1, [r2-9223372036854775807]\n").code[0].imm,
            -9223372036854775807);
}

TEST(Assembler, RejectsOutOfRangePrecision) {
  EXPECT_THROW((void)assemble("setrelax #65\n"), AssemblyError);
  EXPECT_THROW((void)assemble("shr r1, r2, #64\n"), AssemblyError);
}

TEST(Assembler, DisassembleRoundTrips) {
  const char* source =
      "load r1, #5\nmul r2, r1, r1\nstore r2, [r0+0]\nhalt\n";
  const Program p = assemble(source);
  const Program p2 = assemble(
      // Reassembling the disassembly (minus the pc prefixes) must give the
      // same code; here we just sanity-check the text.
      source);
  EXPECT_EQ(p.disassemble(), p2.disassemble());
  EXPECT_NE(p.disassemble().find("mul r2, r1, r1"), std::string::npos);
}

// ---------------------------------------------------------- interpreter ----

TEST(Interpreter, ArithmeticAndMemory) {
  core::ApimDevice device = make_device();
  std::vector<std::int64_t> memory{7, 6, 0};
  const auto result = run_source(
      "load r1, [r0+0]\n"
      "load r2, [r0+1]\n"
      "mul r3, r1, r2\n"
      "store r3, [r0+2]\n"
      "halt\n",
      device, memory);
  EXPECT_TRUE(result.halted);
  EXPECT_EQ(memory[2], 42);
  EXPECT_EQ(result.data_ops, 1u);
}

TEST(Interpreter, RegisterZeroIsHardwired) {
  core::ApimDevice device = make_device();
  std::vector<std::int64_t> memory{0};
  const auto result = run_source(
      "load r0, #99\n"
      "mov r1, r0\n"
      "halt\n",
      device, memory);
  EXPECT_EQ(result.registers[0], 0);
  EXPECT_EQ(result.registers[1], 0);
}

TEST(Interpreter, LoopsViaBranches) {
  // Sum 1..10 with a loop: result in r2.
  core::ApimDevice device = make_device();
  std::vector<std::int64_t> memory{0};
  const auto result = run_source(
      "      load r1, #10\n"
      "loop: add  r2, r2, r1\n"
      "      addi r1, r1, #-1\n"
      "      jnz  r1, @loop\n"
      "      halt\n",
      device, memory);
  EXPECT_TRUE(result.halted);
  EXPECT_EQ(result.registers[2], 55);
  EXPECT_EQ(result.data_ops, 10u);  // Ten in-memory adds.
}

TEST(Interpreter, DataOpsChargeTheDevice) {
  core::ApimDevice device = make_device();
  std::vector<std::int64_t> memory{0};
  (void)run_source("load r1, #9\nload r2, #5\nadd r3, r1, r2\nhalt\n", device,
                   memory);
  // Exactly one serial add was issued.
  EXPECT_EQ(device.stats().additions, 1u);
  EXPECT_EQ(device.stats().cycles, arith::serial_add_cycles(32));
}

TEST(Interpreter, ControlOpsAreFree) {
  core::ApimDevice device = make_device();
  std::vector<std::int64_t> memory{1, 2};
  (void)run_source(
      "load r1, [r0+0]\nmov r2, r1\naddi r3, r2, #5\nshl r4, r3, #2\nhalt\n",
      device, memory);
  EXPECT_EQ(device.stats().cycles, 0u);
}

TEST(Interpreter, SetRelaxTakesEffectMidKernel) {
  core::ApimDevice device = make_device();
  std::vector<std::int64_t> memory{0};
  (void)run_source(
      "load r1, #1000000\n"
      "mul r2, r1, r1\n"      // Exact multiply.
      "setrelax #32\n"
      "mul r3, r1, r1\n"      // Relaxed multiply.
      "halt\n",
      device, memory);
  EXPECT_EQ(device.relax_bits(), 32u);
  EXPECT_EQ(device.stats().multiplies, 2u);
}

TEST(Interpreter, SubUsesSignedSemantics) {
  core::ApimDevice device = make_device();
  std::vector<std::int64_t> memory{0};
  const auto result =
      run_source("load r1, #10\nload r2, #25\nsub r3, r1, r2\nhalt\n", device,
                 memory);
  EXPECT_EQ(result.registers[3], -15);
}

TEST(Interpreter, OutOfRangeMemoryThrows) {
  core::ApimDevice device = make_device();
  std::vector<std::int64_t> memory{0};
  const Program p = assemble("load r1, [r0+5]\nhalt\n");
  Interpreter interp(device);
  EXPECT_THROW((void)interp.run(p, memory), std::out_of_range);
}

TEST(Interpreter, FuelStopsRunawayKernels) {
  core::ApimDevice device = make_device();
  std::vector<std::int64_t> memory{0};
  const Program p = assemble("spin: jmp @spin\n");
  Interpreter interp(device, /*fuel=*/1000);
  const auto result = interp.run(p, memory);
  EXPECT_FALSE(result.halted);
  EXPECT_EQ(result.instructions_executed, 1000u);
}

TEST(Interpreter, DotProductKernelMatchesDeviceApi) {
  // The same dot product via the ISA and via a chain of ApimDevice::mac_int
  // calls must give identical values and identical costs.
  const std::vector<std::int64_t> a{3, -1, 4, 1, -5};
  const std::vector<std::int64_t> b{9, 2, -6, 5, 3};

  core::ApimDevice api_device = make_device();
  std::int64_t expected = 0;
  for (std::size_t i = 0; i < a.size(); ++i)
    expected = api_device.mac_int(expected, a[i], b[i]);

  core::ApimDevice isa_device = make_device();
  std::vector<std::int64_t> memory;
  memory.insert(memory.end(), a.begin(), a.end());
  memory.insert(memory.end(), b.begin(), b.end());
  memory.push_back(0);  // Result slot at address 10.
  const auto result = run_source(
      "      load r1, #0\n"   // i
      "      load r2, #5\n"   // count
      "loop: load r3, [r1+0]\n"
      "      load r4, [r1+5]\n"
      "      mac  r5, r3, r4\n"
      "      addi r1, r1, #1\n"
      "      addi r2, r2, #-1\n"
      "      jnz  r2, @loop\n"
      "      store r5, [r0+10]\n"
      "      halt\n",
      isa_device, memory);
  EXPECT_TRUE(result.halted);
  EXPECT_EQ(memory[10], expected);
  EXPECT_EQ(isa_device.stats().cycles, api_device.stats().cycles);
  EXPECT_DOUBLE_EQ(isa_device.energy_pj(), api_device.energy_pj());
}

TEST(Assembler, ParsesVectorOps) {
  const Program p = assemble("vadd [r1], [r2], [r3], #8\nvmul [r4], [r5], [r6], #4\n");
  ASSERT_EQ(p.size(), 2u);
  EXPECT_EQ(p.code[0].op, Opcode::kVAdd);
  EXPECT_EQ(p.code[0].dst, 1);
  EXPECT_EQ(p.code[0].imm, 8);
  EXPECT_EQ(p.code[1].op, Opcode::kVMul);
}

TEST(Assembler, RejectsBadVectorOperands) {
  EXPECT_THROW((void)assemble("vadd [r1+4], [r2], [r3], #8\n"), AssemblyError);
  EXPECT_THROW((void)assemble("vadd [r1], [r2], [r3], #0\n"), AssemblyError);
  EXPECT_THROW((void)assemble("vadd [r1], [r2], #8\n"), AssemblyError);
}

TEST(Interpreter, VectorAddComputesAndCollapsesLatency) {
  core::ApimDevice vec_dev = make_device();
  std::vector<std::int64_t> memory(24, 0);
  for (int i = 0; i < 8; ++i) {
    memory[static_cast<std::size_t>(i)] = 100 + i;
    memory[static_cast<std::size_t>(8 + i)] = 1000 * i;
  }
  const auto result = run_source(
      "load r1, #16\nload r2, #0\nload r3, #8\n"
      "vadd [r1], [r2], [r3], #8\nhalt\n",
      vec_dev, memory);
  EXPECT_TRUE(result.halted);
  for (int i = 0; i < 8; ++i)
    EXPECT_EQ(memory[static_cast<std::size_t>(16 + i)], 100 + i + 1000 * i);
  // Row-parallel: eight adds in the latency of one serial add.
  EXPECT_EQ(vec_dev.stats().cycles, arith::serial_add_cycles(32));
  EXPECT_EQ(vec_dev.stats().additions, 8u);

  // A scalar loop doing the same work pays ~8x the latency.
  core::ApimDevice scalar_dev = make_device();
  std::vector<std::int64_t> memory2(memory.begin(), memory.end());
  (void)run_source(
      "      load r1, #0\n"
      "      load r4, #8\n"
      "loop: load r2, [r1+0]\n"
      "      load r3, [r1+8]\n"
      "      add  r5, r2, r3\n"
      "      store r5, [r1+16]\n"
      "      addi r1, r1, #1\n"
      "      addi r4, r4, #-1\n"
      "      jnz  r4, @loop\n"
      "      halt\n",
      scalar_dev, memory2);
  EXPECT_EQ(scalar_dev.stats().cycles, 8 * arith::serial_add_cycles(32));
}

TEST(Interpreter, VectorMulComputesProducts) {
  core::ApimDevice dev = make_device();
  std::vector<std::int64_t> memory{2, 3, 4, 5, 10, 20, 30, 40, 0, 0, 0, 0};
  const auto result = run_source(
      "load r1, #8\nload r2, #0\nload r3, #4\n"
      "vmul [r1], [r2], [r3], #4\nhalt\n",
      dev, memory);
  EXPECT_TRUE(result.halted);
  EXPECT_EQ(memory[8], 20);
  EXPECT_EQ(memory[9], 60);
  EXPECT_EQ(memory[10], 120);
  EXPECT_EQ(memory[11], 200);
  EXPECT_EQ(dev.stats().multiplies, 4u);
}

TEST(Interpreter, VectorOpBoundsChecked) {
  core::ApimDevice dev = make_device();
  std::vector<std::int64_t> memory(8, 1);
  const Program p = assemble("load r1, #4\nvadd [r0], [r0], [r1], #8\nhalt\n");
  Interpreter interp(dev);
  EXPECT_THROW((void)interp.run(p, memory), std::out_of_range);
}

}  // namespace
}  // namespace apim::isa
