#include "bench_common.hpp"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string_view>

#include "analysis/trace_check.hpp"
#include "serve/trace.hpp"
#include "util/units.hpp"

namespace apim::bench {

void ShapeChecker::check(const std::string& name, bool ok) {
  entries_.push_back(Entry{name, ok});
}

void ShapeChecker::check_range(const std::string& name, double value,
                               double lo, double hi) {
  char buf[256];
  std::snprintf(buf, sizeof buf, "%s (%.3g in [%.3g, %.3g])", name.c_str(),
                value, lo, hi);
  check(buf, value >= lo && value <= hi);
}

int ShapeChecker::finish() const {
  std::puts("\nShape checks:");
  for (const Entry& e : entries_)
    std::printf("  [%s] %s\n", e.ok ? "PASS" : "FAIL", e.name.c_str());
  const bool all_ok = all_passed();
  std::printf("%s\n", all_ok ? "ALL SHAPE CHECKS PASSED"
                             : "SHAPE CHECK FAILURES PRESENT");
  return all_ok ? 0 : 1;
}

bool ShapeChecker::all_passed() const {
  for (const Entry& e : entries_)
    if (!e.ok) return false;
  return true;
}

util::JsonValue ShapeChecker::to_json() const {
  util::JsonValue checks = util::JsonValue::array();
  for (const Entry& e : entries_) {
    util::JsonValue check = util::JsonValue::object();
    check.set("name", e.name);
    check.set("ok", e.ok);
    checks.append(std::move(check));
  }
  return checks;
}

namespace {

/// The path of the first `flag path` or `flag=path` in argv, or `absent`
/// when the flag is not given. A flag without a path (given last, or
/// empty) exits 2 with "<program>: error: <flag> needs a path".
std::string path_flag(int argc, char** argv, std::string_view flag,
                      std::string absent) {
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    std::string_view path;
    if (arg == flag)
      path = i + 1 < argc ? argv[i + 1] : "";
    else if (arg.starts_with(flag) && arg[flag.size()] == '=')
      path = arg.substr(flag.size() + 1);
    else
      continue;
    if (path.empty()) {
      const char* slash = std::strrchr(argv[0], '/');
      std::fprintf(stderr, "%s: error: %.*s needs a path\n",
                   slash != nullptr ? slash + 1 : argv[0],
                   static_cast<int>(flag.size()), flag.data());
      std::exit(2);
    }
    return std::string(path);
  }
  return absent;
}

}  // namespace

std::string json_output_path(int argc, char** argv) {
  return path_flag(argc, argv, "--json", {});
}

std::string trace_output_path(int argc, char** argv) {
  return path_flag(argc, argv, "--trace", {});
}

void finish_trace_capture(const std::string& path,
                          const serve::trace::EventLog& log,
                          ShapeChecker& checker) {
  if (path.empty()) return;
  checker.check("captured event trace is complete (no overflow)",
                !log.overflowed());
  const std::string verdict = analysis::verify_trace(log);
  if (!verdict.empty()) std::printf("%s", verdict.c_str());
  checker.check("captured event trace replays clean (trace_check)",
                verdict.empty());
  std::ofstream out(path);
  out << log.serialize();
  if (out)
    std::printf("Wrote %s (%zu events)\n", path.c_str(),
                log.events().size());
  else
    std::printf("WARNING: cannot write trace to %s\n", path.c_str());
}

std::string csv_output_path(int argc, char** argv,
                            const std::string& default_name) {
  return path_flag(argc, argv, "--out", default_name);
}

bool has_flag(int argc, char** argv, const char* flag) {
  for (int i = 1; i < argc; ++i)
    if (std::strcmp(argv[i], flag) == 0) return true;
  return false;
}

void write_json_report(const std::string& path,
                       const util::JsonValue& report) {
  if (path.empty()) return;
  if (report.write_file(path))
    std::printf("Wrote %s\n", path.c_str());
  else
    std::fprintf(stderr, "warning: could not write JSON report to %s\n",
                 path.c_str());
}

double AppSample::seconds_per_element(std::size_t lanes) const {
  return cycles_per_element * util::kMagicCycleNs * 1e-9 /
         static_cast<double>(lanes);
}

double AppSample::edp_per_element_js(std::size_t lanes) const {
  return energy_pj_per_element * 1e-12 * seconds_per_element(lanes);
}

AppSample sample_app(const apps::Application& app, unsigned relax_bits) {
  core::ApimConfig cfg;
  cfg.approx.relax_bits = relax_bits;
  core::ApimDevice device{cfg};
  const auto golden = app.run_golden();
  const auto output = app.run_apim(device);
  const auto eval = quality::evaluate_qos(app.qos(), golden, output);

  AppSample sample;
  sample.elements = app.element_count();
  const auto elements = static_cast<double>(sample.elements);
  sample.cycles_per_element =
      static_cast<double>(device.stats().cycles) / elements;
  sample.energy_pj_per_element = device.energy_pj() / elements;
  sample.loss = eval.loss;
  sample.metric = eval.metric;
  sample.acceptable = eval.acceptable;
  return sample;
}

}  // namespace apim::bench
