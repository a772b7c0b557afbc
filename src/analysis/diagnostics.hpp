// Structured diagnostics shared by the APIM static-analysis passes.
//
// Every checker (ISA lint, MAGIC schedule verifier) reports findings as
// Diagnostic records — severity, a stable rule id, a source location
// (assembler line and/or instruction index) and a fix hint — collected in
// a Report. Consumers render a report as human-readable text (one line
// per finding, compiler style) or JSON (tools/apim_lint --json), and gate
// on has_errors(). Keeping the record structured means a new rule only
// has to produce Diagnostics; printing, JSON and exit codes come free.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace apim::analysis {

enum class Severity : std::uint8_t { kNote, kWarning, kError };

[[nodiscard]] const char* to_string(Severity s) noexcept;

struct Diagnostic {
  Severity severity = Severity::kError;
  std::string rule;        ///< Stable rule id, e.g. "use-before-def".
  std::uint32_t line = 0;  ///< 1-based assembler source line (0 = none).
  std::int64_t pc = -1;    ///< Instruction index or trace cycle (-1 = n/a).
  std::string message;
  std::string hint;        ///< Optional fix suggestion.
};

class Report {
 public:
  void add(Diagnostic d) { diagnostics_.push_back(std::move(d)); }

  [[nodiscard]] const std::vector<Diagnostic>& diagnostics() const noexcept {
    return diagnostics_;
  }
  [[nodiscard]] bool empty() const noexcept { return diagnostics_.empty(); }
  [[nodiscard]] std::size_t count(Severity s) const noexcept;
  [[nodiscard]] bool has_errors() const noexcept {
    return count(Severity::kError) > 0;
  }

  /// Compiler-style text, one diagnostic per line:
  ///   line 12: error [vector-overlap]: ... (hint: ...)
  [[nodiscard]] std::string format() const;

  /// JSON object: {"diagnostics":[...],"errors":N,"warnings":N}.
  [[nodiscard]] std::string to_json() const;

 private:
  std::vector<Diagnostic> diagnostics_;
};

}  // namespace apim::analysis
