// apim_asm: assemble and run an APIM kernel file.
//
//   apim_asm kernel.s                  # assemble + run, empty memory
//   apim_asm kernel.s --mem 1,2,3,4    # preload data memory
//   apim_asm kernel.s --memsize 64     # zero-filled memory of 64 words
//   apim_asm kernel.s --relax 24       # device approximation setting
//   apim_asm kernel.s --disasm         # print the assembled program only
//   apim_asm kernel.s --lint           # static checks gate execution
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/isa_lint.hpp"
#include "isa/assembler.hpp"
#include "isa/interpreter.hpp"
#include "util/scan.hpp"

namespace {

using namespace apim;

/// Largest --memsize: the data memory is allocated up front.
constexpr std::size_t kMaxMemoryWords = std::size_t{1} << 24;

/// Consistent bad-invocation diagnostic; every such path exits 2.
int fail_usage(const char* fmt, const char* detail) {
  std::fprintf(stderr, "apim_asm: error: ");
  std::fprintf(stderr, fmt, detail);
  std::fprintf(stderr,
               "\nusage: apim_asm KERNEL.s [--mem v0,v1,...] [--memsize N] "
               "[--relax M] [--disasm] [--lint]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return fail_usage("no kernel file%s", "");

  const std::string path = argv[1];
  std::vector<std::int64_t> memory;
  std::size_t memsize = 0;
  unsigned relax = 0;
  bool disasm_only = false;
  bool lint = false;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto need_value = [&]() -> const char* {
      if (i + 1 >= argc)
        std::exit(fail_usage("option %s requires a value", arg.c_str()));
      return argv[++i];
    };
    if (arg == "--mem") {
      const char* v = need_value();
      if (!util::scan_list(v, &memory))
        return fail_usage("--mem expects comma-separated integers, got '%s'",
                          v);
    } else if (arg == "--memsize") {
      const char* v = need_value();
      if (!util::scan(v, &memsize, 0, kMaxMemoryWords))
        return fail_usage("--memsize expects 0..16777216, got '%s'", v);
    } else if (arg == "--relax") {
      const char* v = need_value();
      if (!util::scan(v, &relax, 0, 64))
        return fail_usage("--relax expects 0..64, got '%s'", v);
    } else if (arg == "--disasm") {
      disasm_only = true;
    } else if (arg == "--lint") {
      lint = true;
    } else {
      return fail_usage("unknown option '%s'", arg.c_str());
    }
  }
  if (memsize > memory.size()) memory.resize(memsize, 0);
  if (memory.empty()) memory.resize(16, 0);

  std::ifstream in(path);
  if (!in) return fail_usage("cannot open '%s'", path.c_str());
  std::stringstream buffer;
  buffer << in.rdbuf();

  isa::Program program;
  try {
    program = isa::assemble(buffer.str());
  } catch (const isa::AssemblyError& e) {
    std::fprintf(stderr, "%s: %s\n", path.c_str(), e.what());
    return 1;
  }

  if (disasm_only) {
    std::fputs(program.disassemble().c_str(), stdout);
    return 0;
  }

  if (lint) {
    // The actual run knows the real data-memory size, so the bounds rules
    // get the exact figure. Errors gate execution.
    const analysis::Report report = analysis::lint_program(
        program, analysis::LintOptions{memory.size()});
    if (!report.empty())
      std::fprintf(stderr, "%s", report.format().c_str());
    if (report.has_errors()) {
      std::fprintf(stderr, "%s: lint failed, not running\n", path.c_str());
      return 1;
    }
  }

  core::ApimConfig cfg;
  cfg.approx.relax_bits = relax;
  core::ApimDevice device{cfg};
  isa::Interpreter interpreter(device);
  isa::ExecutionResult result;
  try {
    result = interpreter.run(program, memory);
  } catch (const std::out_of_range& e) {
    std::fprintf(stderr, "runtime fault: %s\n", e.what());
    return 1;
  }

  std::printf("halted: %s after %llu instructions (%llu data ops)\n",
              result.halted ? "yes" : "NO (fuel exhausted)",
              static_cast<unsigned long long>(result.instructions_executed),
              static_cast<unsigned long long>(result.data_ops));
  std::printf("device: %llu cycles, %.4g pJ, EDP %.4g J*s\n",
              static_cast<unsigned long long>(device.stats().cycles),
              device.energy_pj(), device.edp_js());
  std::printf("registers (non-zero):\n");
  for (std::size_t r = 1; r < result.registers.size(); ++r)
    if (result.registers[r] != 0)
      std::printf("  r%-2zu = %lld\n", r,
                  static_cast<long long>(result.registers[r]));
  std::printf("memory:\n ");
  for (std::size_t i = 0; i < memory.size(); ++i) {
    std::printf(" %lld", static_cast<long long>(memory[i]));
    if (i % 8 == 7 && i + 1 < memory.size()) std::printf("\n ");
  }
  std::puts("");
  return result.halted ? 0 : 1;
}
