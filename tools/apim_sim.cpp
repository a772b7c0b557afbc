// apim_sim: command-line front end for the APIM simulator.
//
// Runs one application workload at a chosen approximation setting and
// prints the quality/cost summary (optionally as a CSV row for scripting).
//
//   apim_sim --app Sobel --elements 16384 --relax 24
//   apim_sim --app FFT --mask 8 --seed 7 --csv
//   apim_sim --app GEMM --backend bit --elements 256
//   apim_sim --list
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "apps/app.hpp"
#include "core/apim.hpp"
#include "quality/qos.hpp"
#include "util/scan.hpp"

namespace {

using namespace apim;

/// Largest --elements: the workload's buffers are allocated up front.
constexpr std::size_t kMaxElements = std::size_t{1} << 24;

struct Options {
  std::string app = "Sobel";
  std::size_t elements = 4096;
  std::uint64_t seed = 2017;
  unsigned relax = 0;
  unsigned mask = 0;
  std::size_t lanes = 0;  // 0 = default.
  core::Backend backend = core::Backend::kFast;
  bool csv = false;
  bool list = false;
};

void usage(const char* argv0) {
  std::printf(
      "usage: %s [--app NAME] [--elements N] [--seed S] [--relax M]\n"
      "          [--mask B] [--lanes L] [--backend fast|bit] [--csv]\n"
      "          [--list] [--help]\n\n"
      "Runs an APIM application workload and reports quality and cost.\n"
      "  --app NAME      workload (see --list; default Sobel)\n"
      "  --elements N    input elements, 0..16777216 (default 4096)\n"
      "  --seed S        workload seed (default 2017)\n"
      "  --relax M       last-stage relax bits, 0..64 (default 0)\n"
      "  --mask B        first-stage mask bits, 0..32 (default 0)\n"
      "  --lanes L       parallel lanes (default: chip-derived 12288)\n"
      "  --backend X     'fast' word models or 'bit' cell-level engine\n"
      "  --csv           emit a single CSV row instead of text\n",
      argv0);
}

/// Consistent bad-invocation diagnostic; every such path exits 2.
int fail_usage(const char* fmt, const char* detail) {
  std::fprintf(stderr, "apim_sim: error: ");
  std::fprintf(stderr, fmt, detail);
  std::fprintf(stderr, " (see --help)\n");
  return 2;
}

int run(const Options& opt) {
  if (opt.list) {
    std::puts("paper applications:");
    for (const auto& app : apps::make_all_applications())
      std::printf("  %s\n", app->name().c_str());
    std::puts("extension applications:");
    for (const auto& app : apps::make_extension_applications())
      std::printf("  %s\n", app->name().c_str());
    return 0;
  }

  auto app = apps::make_application(opt.app);
  if (app == nullptr)
    return fail_usage("unknown application '%s', try --list", opt.app.c_str());
  app->generate(opt.elements, opt.seed);

  core::ApimConfig cfg;
  cfg.approx.relax_bits = opt.relax;
  cfg.approx.mask_bits = opt.mask;
  cfg.backend = opt.backend;
  if (opt.lanes > 0) cfg.parallel_lanes = opt.lanes;
  core::ApimDevice device{cfg};

  const auto golden = app->run_golden();
  const auto output = app->run_apim(device);
  const auto eval = quality::evaluate_qos(app->qos(), golden, output);

  const double seconds = device.elapsed_seconds();
  if (opt.csv) {
    std::printf("app,elements,relax,mask,backend,metric,loss,acceptable,"
                "cycles,energy_pj,seconds,edp_js\n");
    std::printf("%s,%zu,%u,%u,%s,%.6g,%.6g,%d,%llu,%.6g,%.6g,%.6g\n",
                app->name().c_str(), app->element_count(), opt.relax,
                opt.mask,
                opt.backend == core::Backend::kFast ? "fast" : "bit",
                eval.metric, eval.loss, eval.acceptable ? 1 : 0,
                static_cast<unsigned long long>(device.stats().cycles),
                device.energy_pj(), seconds, device.edp_js());
    return eval.acceptable ? 0 : 1;
  }

  std::printf("app:       %s (%zu elements, seed %llu)\n",
              app->name().c_str(), app->element_count(),
              static_cast<unsigned long long>(opt.seed));
  std::printf("approx:    relax=%u mask=%u backend=%s\n", opt.relax, opt.mask,
              opt.backend == core::Backend::kFast ? "fast" : "bit-level");
  std::printf("quality:   %s = %.4g (%s), loss %.4g%%\n",
              quality::to_string(app->qos().kind).c_str(), eval.metric,
              eval.acceptable ? "QoS met" : "QoS MISSED", eval.loss * 100.0);
  std::printf("ops:       %llu multiplies, %llu additions\n",
              static_cast<unsigned long long>(device.stats().multiplies),
              static_cast<unsigned long long>(device.stats().additions));
  std::printf("cost:      %llu cycles | %.4g uJ | %.4g s wall (%zu lanes) | "
              "EDP %.4g J*s\n",
              static_cast<unsigned long long>(device.stats().cycles),
              device.energy_pj() * 1e-6, seconds, cfg.parallel_lanes,
              device.edp_js());
  return eval.acceptable ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto need_value = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::exit(fail_usage("option %s requires a value", flag));
      }
      return argv[++i];
    };
    if (arg == "--help" || arg == "-h") {
      usage(argv[0]);
      return 0;
    } else if (arg == "--list") {
      opt.list = true;
    } else if (arg == "--csv") {
      opt.csv = true;
    } else if (arg == "--app") {
      opt.app = need_value("--app");
    } else if (arg == "--elements") {
      const char* v = need_value("--elements");
      if (!util::scan(v, &opt.elements, 0, kMaxElements))
        return fail_usage("--elements expects 0..16777216, got '%s'", v);
    } else if (arg == "--seed") {
      const char* v = need_value("--seed");
      if (!util::scan(v, &opt.seed))
        return fail_usage("--seed expects an unsigned integer, got '%s'", v);
    } else if (arg == "--relax") {
      const char* v = need_value("--relax");
      if (!util::scan(v, &opt.relax, 0, 64))
        return fail_usage("--relax expects 0..64, got '%s'", v);
    } else if (arg == "--mask") {
      const char* v = need_value("--mask");
      if (!util::scan(v, &opt.mask, 0, 32))
        return fail_usage("--mask expects 0..32, got '%s'", v);
    } else if (arg == "--lanes") {
      const char* v = need_value("--lanes");
      if (!util::scan(v, &opt.lanes, 1, SIZE_MAX))
        return fail_usage("--lanes expects a positive count, got '%s'", v);
    } else if (arg == "--backend") {
      const char* v = need_value("--backend");
      const std::string backend = v;
      if (backend == "fast") {
        opt.backend = core::Backend::kFast;
      } else if (backend == "bit") {
        opt.backend = core::Backend::kBitLevel;
      } else {
        return fail_usage("--backend must be 'fast' or 'bit', got '%s'", v);
      }
    } else {
      return fail_usage("unknown option '%s'", arg.c_str());
    }
  }
  return run(opt);
}
