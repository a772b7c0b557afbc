// apim_lint: static verifier for APIM kernel files.
//
// Assembles each .apim file and runs the full ISA lint rule catalog over
// it (analysis/isa_lint.hpp) without executing anything. Parse errors are
// reported as diagnostics at their source line, so a broken file and a
// buggy file gate CI the same way.
//
//   apim_lint kernel.apim                  # lint one file
//   apim_lint --memsize 64 examples/*.apim # bounds-check against 64 words
//   apim_lint --json kernel.apim           # machine-readable report
//   apim_lint --werror kernel.apim         # warnings also fail the run
//
// Exit status: 0 clean (warnings allowed unless --werror), 1 when any
// error-severity diagnostic was produced, 2 on bad invocation.
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/isa_lint.hpp"
#include "isa/assembler.hpp"
#include "util/scan.hpp"

namespace {

using namespace apim;

void usage(const char* argv0) {
  std::printf(
      "usage: %s [--memsize N] [--json] [--werror] FILE.apim...\n\n"
      "Statically verifies APIM kernel files without running them.\n"
      "  --memsize N   data-memory size in words for bounds checks\n"
      "                (default 0 = unknown: only negative addresses flag)\n"
      "  --json        emit one JSON report object per file\n"
      "  --werror      exit nonzero on warnings too\n",
      argv0);
}

int fail_usage(const char* fmt, const char* detail) {
  std::fprintf(stderr, "apim_lint: error: ");
  std::fprintf(stderr, fmt, detail);
  std::fprintf(stderr, " (see --help)\n");
  return 2;
}

/// Lint one file; returns the report (a parse failure becomes a single
/// error diagnostic at the offending line).
analysis::Report lint_file(const std::string& path,
                           const analysis::LintOptions& options,
                           bool& io_error) {
  analysis::Report report;
  std::ifstream in(path);
  if (!in) {
    io_error = true;
    report.add({analysis::Severity::kError, "io", 0, -1,
                "cannot open '" + path + "'", ""});
    return report;
  }
  std::stringstream buffer;
  buffer << in.rdbuf();
  try {
    const isa::Program program = isa::assemble(buffer.str());
    report = analysis::lint_program(program, options);
  } catch (const isa::AssemblyError& e) {
    report.add({analysis::Severity::kError, "parse", e.line(), -1, e.what(),
                "fix the syntax before lint rules can run"});
  }
  return report;
}

}  // namespace

int main(int argc, char** argv) {
  analysis::LintOptions options;
  bool json = false;
  bool werror = false;
  std::vector<std::string> files;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      usage(argv[0]);
      return 0;
    } else if (arg == "--json") {
      json = true;
    } else if (arg == "--werror") {
      werror = true;
    } else if (arg == "--memsize") {
      if (i + 1 >= argc)
        return fail_usage("option %s requires a value", "--memsize");
      // The bounds rules compare addresses as int64.
      if (!util::scan(argv[++i], &options.memory_words, 0,
                      std::numeric_limits<std::int64_t>::max()))
        return fail_usage("--memsize expects 0..2^63-1 words, got '%s'",
                          argv[i]);
    } else if (!arg.empty() && arg[0] == '-') {
      return fail_usage("unknown option '%s'", arg.c_str());
    } else {
      files.push_back(arg);
    }
  }
  if (files.empty()) return fail_usage("no input files%s", "");

  std::size_t errors = 0;
  std::size_t warnings = 0;
  bool io_error = false;
  bool first = true;
  if (json) std::printf("[");
  for (const std::string& path : files) {
    const analysis::Report report = lint_file(path, options, io_error);
    errors += report.count(analysis::Severity::kError);
    warnings += report.count(analysis::Severity::kWarning);
    if (json) {
      std::printf("%s{\"file\":\"%s\",\"report\":%s}", first ? "" : ",",
                  path.c_str(), report.to_json().c_str());
    } else if (!report.empty()) {
      // Prefix each diagnostic line with the file, compiler style.
      std::istringstream lines(report.format());
      std::string line;
      while (std::getline(lines, line))
        std::printf("%s:%s\n", path.c_str(), line.c_str());
    }
    first = false;
  }
  if (json) std::printf("]\n");
  if (!json)
    std::printf("apim_lint: %zu file(s), %zu error(s), %zu warning(s)\n",
                files.size(), errors, warnings);
  if (io_error || errors > 0) return 1;
  return werror && warnings > 0 ? 1 : 0;
}
