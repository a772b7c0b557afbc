// Extension: Monte Carlo fault campaigns — resilience curves per policy.
//
// The paper assumes a fault-free fabric; real memristive arrays ship with
// stuck-at defects and suffer transient upsets. This extension sweeps the
// stuck-at rate across the reliability policies (reliability/policy.hpp)
// and draws the resilience curve: QoS acceptance vs fault rate, with the
// measured cycle/energy overhead each protection level costs. Every
// policy is evaluated on IDENTICAL sampled silicon (same fault seed), so
// the curves differ only by the protection mechanism:
//
//   off     silent corruption, zero overhead — the paper's assumption;
//   detect  mod-3 residue checks, counts faults but returns them;
//   repair  BIST march + spare-row remap before execution, residue-
//           triggered retry ladder at run time;
//   vote    three redundant domains + bitwise 2-of-3 majority.
//
// Flags: --threads N, --json <path>, --smoke (fewer trials/elements for CI).
#include <algorithm>
#include <cstdio>
#include <string>

#include "bench_common.hpp"
#include "reliability/campaign.hpp"
#include "util/csv.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"

namespace {
using namespace apim;

/// One row of the sweep: a full campaign at (rate, policy).
struct SweepPoint {
  double stuck_rate;
  reliability::ReliabilityPolicy policy;
  reliability::CampaignResult result;
};

reliability::CampaignConfig campaign_at(double stuck_rate,
                                        reliability::ReliabilityPolicy policy,
                                        bool smoke) {
  reliability::CampaignConfig cfg;
  cfg.apps = {"Sobel", "Robert", "Sharpen"};
  cfg.elements = smoke ? 256 : 1024;
  cfg.trials = smoke ? 2 : 3;
  cfg.stuck_rate = stuck_rate;
  cfg.policy = policy;
  cfg.lanes = 16;
  return cfg;  // fault_seed stays at the shared default: same silicon.
}

double mean_over_runs(const reliability::CampaignResult& r,
                      double (*f)(const reliability::CampaignRun&)) {
  if (r.runs.empty()) return 0.0;
  double sum = 0.0;
  for (const auto& run : r.runs) sum += f(run);
  return sum / static_cast<double>(r.runs.size());
}

}  // namespace

int main(int argc, char** argv) {
  using namespace apim;
  const std::size_t threads = util::configure_threads(argc, argv);
  const bool smoke = bench::has_flag(argc, argv, "--smoke");
  const std::string json_path = bench::json_output_path(argc, argv);
  const std::string csv_path =
      bench::csv_output_path(argc, argv, "ext_fault_campaign.csv");

  std::puts("=== Extension: fault campaigns and the resilience curve ===");
  std::printf("(3 image kernels x %d fault maps per point; identical sampled "
              "silicon for every policy%s)\n\n",
              smoke ? 2 : 3, smoke ? "; smoke" : "");

  const double rates[] = {1e-4, 3e-4, 1e-3, 3e-3};
  const reliability::ReliabilityPolicy policies[] = {
      reliability::ReliabilityPolicy::kOff,
      reliability::ReliabilityPolicy::kDetectOnly,
      reliability::ReliabilityPolicy::kDetectAndRepair,
      reliability::ReliabilityPolicy::kTripleVote,
  };

  std::vector<SweepPoint> sweep;
  for (const double rate : rates)
    for (const auto policy : policies)
      sweep.push_back({rate, policy,
                       reliability::run_campaign(
                           campaign_at(rate, policy, smoke))});

  util::TextTable table({"stuck rate", "policy", "accept", "min PSNR dB",
                         "detected", "retries", "escal.", "cycle ovh",
                         "energy ovh"});
  util::CsvWriter csv(csv_path);
  csv.write_row({"stuck_rate", "policy", "accept_fraction", "min_metric",
                 "faults_detected", "retries", "escalations",
                 "cycle_overhead", "energy_overhead"});
  for (const SweepPoint& p : sweep) {
    double min_metric = 1e9;
    std::uint64_t detected = 0, retries = 0, escalations = 0;
    for (const auto& run : p.result.runs) {
      min_metric = std::min(min_metric, run.qos.metric);
      detected += run.faults_detected;
      retries += run.retries;
      escalations += run.escalations;
    }
    const double cyc = mean_over_runs(
        p.result, [](const reliability::CampaignRun& r) {
          return r.cycle_overhead;
        });
    const double nrg = mean_over_runs(
        p.result, [](const reliability::CampaignRun& r) {
          return r.energy_overhead;
        });
    table.add_row({util::format_sci(p.stuck_rate, 0),
                   reliability::to_string(p.policy),
                   util::format_double(100.0 * p.result.accept_fraction(), 0) +
                       "%",
                   min_metric > 1e8 ? "inf" : util::format_double(min_metric, 1),
                   std::to_string(detected), std::to_string(retries),
                   std::to_string(escalations),
                   util::format_double(100.0 * cyc, 1) + "%",
                   util::format_double(100.0 * nrg, 1) + "%"});
    csv.write_row({util::format_sci(p.stuck_rate, 4),
                   reliability::to_string(p.policy),
                   util::format_double(p.result.accept_fraction(), 4),
                   util::format_double(min_metric, 4),
                   std::to_string(detected), std::to_string(retries),
                   std::to_string(escalations), util::format_double(cyc, 4),
                   util::format_double(nrg, 4)});
  }
  std::fputs(table.render().c_str(), stdout);

  // Transient upsets on top: moderate soft-error rate, repaired fabric.
  reliability::CampaignConfig storm = campaign_at(
      1e-3, reliability::ReliabilityPolicy::kDetectAndRepair, smoke);
  storm.transient_rate = 1e-4;
  const reliability::CampaignResult storm_result =
      reliability::run_campaign(storm);
  std::uint64_t storm_retries = 0;
  for (const auto& run : storm_result.runs) storm_retries += run.retries;
  std::printf("\nwith 1e-4 transient upsets on top (repair policy): "
              "accept %.0f%%, %llu retries absorbed the soft errors\n",
              100.0 * storm_result.accept_fraction(),
              static_cast<unsigned long long>(storm_retries));

  bench::ShapeChecker checks;
  const auto find = [&](double rate, reliability::ReliabilityPolicy policy)
      -> const reliability::CampaignResult& {
    for (const SweepPoint& p : sweep)
      if (p.stuck_rate == rate && p.policy == policy) return p.result;
    return sweep.front().result;  // Unreachable for the queried points.
  };

  const auto& off_hi = find(1e-3, reliability::ReliabilityPolicy::kOff);
  const auto& repair_hi =
      find(1e-3, reliability::ReliabilityPolicy::kDetectAndRepair);
  const auto& vote_hi = find(1e-3, reliability::ReliabilityPolicy::kTripleVote);
  checks.check("1e-3 stuck-at breaks the unprotected device (accept < 1)",
               off_hi.accept_fraction() < 1.0);
  checks.check("detect-and-repair holds every kernel above threshold at 1e-3",
               repair_hi.all_acceptable());
  checks.check("triple vote also protects at 1e-3",
               vote_hi.accept_fraction() >= repair_hi.accept_fraction() - 0.2);
  const double repair_cyc = mean_over_runs(
      repair_hi,
      [](const reliability::CampaignRun& r) { return r.cycle_overhead; });
  checks.check_range("repair latency overhead is modest (2%..60%)",
                     repair_cyc, 0.02, 0.60);
  const double vote_nrg = mean_over_runs(
      vote_hi,
      [](const reliability::CampaignRun& r) { return r.energy_overhead; });
  checks.check_range("vote pays ~3x op energy (total +40%..+200%)",
                     vote_nrg, 0.40, 2.00);
  checks.check("transient retries recover soft errors",
               storm_result.accept_fraction() >= 0.9 && storm_retries > 0);
  std::puts("\nTakeaway: silent stuck-at faults destroy image QoS well "
            "before 1e-3; residue-triggered retries plus BIST spare repair "
            "buy the QoS back for tens of percent latency, while triple "
            "voting trades ~2x extra energy for approximation-compatible "
            "protection.");
  const int exit_code = checks.finish();

  if (!json_path.empty()) {
    util::JsonValue report = util::JsonValue::object();
    report.set("bench", "ext_fault_campaign");
    report.set("smoke", smoke);
    report.set("threads", static_cast<std::uint64_t>(threads));
    report.set("off_accept_at_1e3", off_hi.accept_fraction());
    report.set("repair_accept_at_1e3", repair_hi.accept_fraction());
    report.set("vote_accept_at_1e3", vote_hi.accept_fraction());
    report.set("repair_cycle_overhead_at_1e3", repair_cyc);
    report.set("vote_energy_overhead_at_1e3", vote_nrg);
    report.set("storm_accept", storm_result.accept_fraction());
    report.set("storm_retries", storm_retries);

    util::JsonValue rows = util::JsonValue::array();
    for (const SweepPoint& p : sweep) {
      util::JsonValue row = util::JsonValue::object();
      row.set("stuck_rate", p.stuck_rate);
      row.set("policy", reliability::to_string(p.policy));
      row.set("accept_fraction", p.result.accept_fraction());
      std::uint64_t detected = 0, retries = 0, escalations = 0;
      for (const auto& run : p.result.runs) {
        detected += run.faults_detected;
        retries += run.retries;
        escalations += run.escalations;
      }
      row.set("faults_detected", detected);
      row.set("retries", retries);
      row.set("escalations", escalations);
      row.set("cycle_overhead", mean_over_runs(
          p.result,
          [](const reliability::CampaignRun& r) { return r.cycle_overhead; }));
      row.set("energy_overhead", mean_over_runs(
          p.result,
          [](const reliability::CampaignRun& r) { return r.energy_overhead; }));
      rows.append(std::move(row));
    }
    report.set("sweep", std::move(rows));
    bench::write_json_report(json_path, report);
  }
  return exit_code;
}
