// apim_benchmark: one workload per process, end-to-end or traced.
//
//   apim_benchmark --workload <name> [--seed N] [--seconds S] [--trace 0|1]
//                  [--threads N] [--out DIR] [--smoke]
//
// Untraced (--trace 0): the end-to-end metrics. Set up the workload's
// replicas (Workload::replicas), run each once to warm up and to gate
// output correctness, then alternate set-ups and repeats, one replica per
// repeat on a fresh system, until --seconds have passed; setup_s is the
// median set-up of all replicas, and each replica's modeled metrics must
// be identical in every repeat. Traced (--trace 1): per-layer metrics of one replica
// (traced.hpp), at one host thread so every layer's host time is CPU time
// on one core.
//
// Prints `name value unit` per metric and, as the last line, one JSON
// object {"correct", "attempted", "failed", "metrics"}. Exit 1 when an
// output check fails, 2 on a usage error.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <vector>

#include "measure.hpp"
#include "traced.hpp"
#include "util/stats.hpp"
#include "util/thread_pool.hpp"
#include "workloads.hpp"

namespace {

using namespace apim_bench;
using apim::util::percentile;

/// Set-ups are interleaved with the repeats, each kind taking as long as
/// the other within the measured window, so that setup_s samples the
/// machine over the whole window rather than over its first second: a
/// shared 4-vCPU virtual machine ran at half speed for seconds at a time,
/// and a median over one second swung by a third between runs.
constexpr std::size_t kMinSetups = 3;

struct Options {
  std::string workload;
  std::uint64_t seed = 2017;
  double seconds = 5.0;
  bool traced = false;
  std::size_t threads = 2;
  std::string out_dir = "bench-out";
  bool smoke = false;
};

[[noreturn]] void usage(const std::string& error) {
  std::fprintf(stderr, "apim_benchmark: %s\n", error.c_str());
  std::string names;
  for (const std::string& n : workload_names()) names += " " + n;
  std::fprintf(stderr,
               "usage: apim_benchmark --workload <name> [--seed N] "
               "[--seconds S] [--trace 0|1] [--threads N] [--out DIR] "
               "[--smoke]\nworkloads:%s\n",
               names.c_str());
  std::exit(2);
}

std::uint64_t parse_uint(const std::string& flag, const char* text) {
  char* end = nullptr;
  const unsigned long long v = std::strtoull(text, &end, 10);
  if (*text == '\0' || *text == '-' || *end != '\0')
    usage(flag + " expects a non-negative integer, got '" + text + "'");
  return v;
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--smoke") {
      o.smoke = true;
      continue;
    }
    if (i + 1 >= argc) usage("missing value for " + flag);
    const char* value = argv[++i];
    if (flag == "--workload") {
      o.workload = value;
    } else if (flag == "--seed") {
      o.seed = parse_uint(flag, value);
    } else if (flag == "--seconds") {
      char* end = nullptr;
      o.seconds = std::strtod(value, &end);
      if (*end != '\0' || !(o.seconds > 0.0 && o.seconds <= 3600.0))
        usage("--seconds expects a number in (0, 3600]");
    } else if (flag == "--trace") {
      const std::uint64_t t = parse_uint(flag, value);
      if (t > 1) usage("--trace expects 0 or 1");
      o.traced = t == 1;
    } else if (flag == "--threads") {
      o.threads = parse_uint(flag, value);
      if (o.threads < 1 || o.threads > 512) usage("--threads expects 1..512");
    } else if (flag == "--out") {
      o.out_dir = value;
    } else {
      usage("unknown flag " + flag);
    }
  }
  if (o.workload.empty()) usage("--workload is required");
  return o;
}

Result run_end_to_end(Replicas& ws, const Options& o) {
  Result r;
  std::vector<double> setup_s;
  double setup_total_s = 0.0;
  std::uint64_t fingerprint = 0;
  const auto set_up = [&] {
    const Clock::time_point t0 = Clock::now();
    for (std::size_t k = 0; k < ws.size(); ++k) ws[k]->setup(replica_seed(o.seed, k));
    setup_s.push_back(seconds_since(t0));
    setup_total_s += setup_s.back();
    std::uint64_t f = 0;
    for (const std::unique_ptr<Workload>& w : ws)
      f = (f ^ w->input_fingerprint()) * 1099511628211ull;
    if (setup_s.size() == 1) fingerprint = f;
    r.check(f == fingerprint, "setup built different inputs from the same seed");
  };
  set_up();

  // Warm-up: fills caches and the thread pool, and is the run whose
  // outputs the correctness gate inspects. The peak resident set is read
  // here, after one set-up and one run, so that neither the interleaved
  // set-ups below (old and new inputs live at once) nor the SLO probes
  // move it.
  std::vector<Modeled> each;
  for (const std::unique_ptr<Workload>& w : ws) {
    (void)w->run(nullptr);
    w->check(r);
    each.push_back(modeled(*w));
  }
  const Modeled m = modeled(ws);
  const double rss_mib = peak_rss_mib();

  // Each repeat runs one replica, in turn, and checks that its modeled
  // metrics repeat exactly. The repeats' host time is printed for
  // reference only: it is too noisy on a shared machine for an end-to-end
  // bound (README, "Host noise").
  std::size_t repeats = 0;
  double repeat_total_s = 0.0, host_ops_per_s = 0.0;
  const Clock::time_point t0 = Clock::now();
  while (repeats == 0 || setup_s.size() < kMinSetups ||
         seconds_since(t0) < o.seconds) {
    const std::size_t k = repeats++ % ws.size();
    const double s = ws[k]->run(nullptr);
    repeat_total_s += s;
    host_ops_per_s = std::max(host_ops_per_s, static_cast<double>(each[k].ok_ops) / s);
    r.check(modeled(*ws[k]) == each[k], "modeled metrics differ between repeats");
    while (setup_s.size() < kMinSetups ||
           (setup_total_s < repeat_total_s && seconds_since(t0) < o.seconds)) {
      set_up();
    }
  }
  const double slo = slo_rate_per_kcycle(ws);

  r.attempted = m.attempted;
  r.failed = m.failed;
  std::printf("# workload %s seed %llu threads %zu replicas %zu: %zu set-ups, "
              "%zu repeats, host %.6g ops/s (fastest repeat)\n",
              ws[0]->name(), static_cast<unsigned long long>(o.seed), o.threads,
              ws.size(), setup_s.size(), repeats, host_ops_per_s);
  const std::vector<MetricSpec>& c = end_to_end_catalog();
  r.add(c[0], percentile(setup_s, 0.5));
  r.add(c[1], rss_mib);
  r.add(c[2], m.ops_per_kcycle);
  r.add(c[3], m.p50_latency_cycles, m.samples);
  r.add(c[4], m.p99_latency_cycles, m.samples);
  r.add(c[5], m.energy_pj_per_op);
  r.add(c[6], slo);
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  const Options o = parse(argc, argv);
  Replicas ws;
  ws.push_back(make_workload(o.workload, o.smoke));
  if (!ws[0]) usage("unknown workload '" + o.workload + "'");
  const std::size_t replicas = o.traced ? 1 : ws[0]->replicas();
  while (ws.size() < replicas) ws.push_back(make_workload(o.workload, o.smoke));
  apim::util::set_thread_count(o.traced ? 1 : o.threads);
  try {
    const Result r = o.traced ? run_traced(*ws[0], o.seed, o.seconds, o.out_dir)
                              : run_end_to_end(ws, o);
    print_result(r);
    return r.correct ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "apim_benchmark: %s failed: %s\n", o.workload.c_str(),
                 e.what());
    return 1;
  }
}
