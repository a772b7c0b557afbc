// Shared scaffolding for the experiment-reproduction benches.
//
// Every bench binary regenerates one table or figure of the paper, prints
// it as an aligned text table (plus a CSV next to the binary's working
// directory), and runs SHAPE CHECKS — assertions on the qualitative result
// the paper reports (who wins, by roughly what factor, where the crossover
// falls). A bench exits nonzero if a shape check fails, so regressions in
// the models are caught by simply running the bench suite.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "apps/app.hpp"
#include "core/apim.hpp"
#include "quality/qos.hpp"
#include "util/json.hpp"

namespace apim::serve::trace {
class EventLog;
}  // namespace apim::serve::trace

namespace apim::bench {

/// Collects named pass/fail checks and renders a summary.
class ShapeChecker {
 public:
  void check(const std::string& name, bool ok);
  /// Convenience: value within [lo, hi].
  void check_range(const std::string& name, double value, double lo,
                   double hi);

  /// Prints one line per check and a final verdict; returns the exit code
  /// (0 when everything passed).
  int finish() const;

  [[nodiscard]] bool all_passed() const;

  /// Checks as a JSON array of {name, ok} objects, for `--json` reports.
  [[nodiscard]] util::JsonValue to_json() const;

 private:
  struct Entry {
    std::string name;
    bool ok;
  };
  std::vector<Entry> entries_;
};

/// Per-element cost and quality of one application at one relax setting,
/// measured by running the real kernels through the fast functional model.
struct AppSample {
  double cycles_per_element = 0.0;
  double energy_pj_per_element = 0.0;
  double loss = 0.0;     ///< Normalized quality loss (quality::QosEvaluation).
  double metric = 0.0;   ///< PSNR dB or avg relative error.
  bool acceptable = false;
  std::size_t elements = 0;

  /// APIM wall time per element with the configured lane parallelism.
  [[nodiscard]] double seconds_per_element(std::size_t lanes) const;
  /// Energy-delay product per element (J*s).
  [[nodiscard]] double edp_per_element_js(std::size_t lanes) const;
};

/// Run `app` (already generated) at the given relax setting and measure.
/// The golden output is recomputed internally for the quality evaluation.
[[nodiscard]] AppSample sample_app(const apps::Application& app,
                                   unsigned relax_bits);

/// Machine-readable output knob shared by the bench binaries: parses
/// `--json <path>` (or `--json=path`) from argv. Returns the path, or an
/// empty string when the flag is absent. The bench writes a JsonValue
/// report there in addition to its human tables and CSVs. Like the other
/// path flags below, a `--json` without a path exits 2 with
/// "<bench>: error: --json needs a path", so benches read their path
/// flags before any work runs.
[[nodiscard]] std::string json_output_path(int argc, char** argv);

/// Runtime-trace output knob shared by the serving-layer benches: parses
/// `--trace <path>` (or `--trace=path`) from argv. Returns the path, or an
/// empty string when the flag is absent. When set, the bench attaches a
/// serve::trace::EventLog to one representative run, verifies it in
/// process (analysis::verify_trace, as a shape check) and writes the
/// apim-trace v1 text there for tools/apim_trace_lint.
[[nodiscard]] std::string trace_output_path(int argc, char** argv);

/// Finish a `--trace` capture: add two shape checks (the log did not
/// overflow; analysis::verify_trace replays it clean) and serialize the
/// apim-trace v1 text to `path`. No-op when `path` is empty.
void finish_trace_capture(const std::string& path,
                          const serve::trace::EventLog& log,
                          ShapeChecker& checker);

/// CSV output knob shared by the bench binaries: parses `--out <path>`
/// (or `--out=path`) from argv, falling back to `default_name` — a bare
/// filename, so by default the CSV lands in the CURRENT directory, never
/// in the source tree (CI and scripts/bench_pr.sh point it at their temp
/// dirs; `ext_*.csv` is gitignored as a second line of defense).
[[nodiscard]] std::string csv_output_path(int argc, char** argv,
                                          const std::string& default_name);

/// True when the exact `flag` (e.g. "--smoke") appears in argv.
[[nodiscard]] bool has_flag(int argc, char** argv, const char* flag);

/// Serialize `report` to `path` unless it is empty; prints a confirmation
/// line and warns (without failing) when the file cannot be written.
void write_json_report(const std::string& path, const util::JsonValue& report);

/// Number of 32-bit elements in a dataset of `bytes` bytes.
[[nodiscard]] inline double elements_in(double bytes) { return bytes / 4.0; }

/// The default workload size used when sampling per-element costs
/// (large enough for stable averages, small enough to run in seconds).
inline constexpr std::size_t kSampleElements = 4096;
inline constexpr std::uint64_t kSampleSeed = 2017;

/// Paper reference data for Table 1 (DAC'17, Table 1): EDP-improvement and
/// quality-loss columns at m = 0,4,8,16,24,32 relax bits.
struct Table1Reference {
  const char* app;
  double edp_improvement[6];
  double qol_percent[6];
};
inline constexpr unsigned kTable1RelaxBits[6] = {0, 4, 8, 16, 24, 32};
inline constexpr Table1Reference kTable1Paper[6] = {
    {"Sobel", {94, 164, 235, 305, 376, 446}, {0, 1.3, 3.1, 6.9, 11.4, 15.6}},
    {"Robert", {177, 311, 444, 577, 711, 844}, {0, 1.2, 2.9, 4.8, 6.8, 9.1}},
    {"FFT", {203, 356, 509, 662, 815, 968}, {0, 2.2, 3.7, 5.8, 8.6, 13.5}},
    {"DwtHaar1D", {90, 157, 225, 293, 361, 428}, {0, 0.9, 2.6, 5.7, 7.9, 10.6}},
    {"Sharpen", {104, 149, 206, 273, 340, 410}, {0, 3.4, 5.1, 8.1, 12.5, 18.4}},
    {"QuasiR", {69, 127, 198, 258, 310, 386}, {0, 2.1, 3.5, 5.8, 9.3, 15.7}},
};

/// Reference dataset size for the Table 1 comparison point.
inline constexpr double kTable1DatasetBytes = 256.0 * 1024 * 1024;

}  // namespace apim::bench
