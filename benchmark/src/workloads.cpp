#include "workloads.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <iterator>
#include <utility>

#include "analytics/runner.hpp"
#include "analytics/tpch.hpp"
#include "analytics_harness.hpp"
#include "arith/compare_units.hpp"
#include "cluster/cluster.hpp"
#include "cluster/placement.hpp"
#include "cluster_harness.hpp"
#include "serve/load_gen.hpp"
#include "serve/qos_table.hpp"
#include "serve_chaos_harness.hpp"
#include "serve_harness.hpp"
#include "util/bitops.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "workload_harness.hpp"

namespace apim_bench {

namespace {

namespace serve = apim::serve;
namespace cluster = apim::cluster;
namespace analytics = apim::analytics;
using apim::util::Cycles;
using apim::util::percentile;
using serve::OpKind;
using serve::Request;
using serve::RequestStatus;
using serve::Response;

/// The SLO search probes 10 rates over [0, 4x the workload's rate].
constexpr int kSloSteps = 10;
constexpr double kSloRangeFactor = 4.0;

/// Host-exact value of one op, clamped to the request width exactly as
/// the device clamps its operands.
std::uint64_t exact_value(const Request& r, std::size_t j) {
  const std::uint64_t cap = apim::util::mask_n(r.width);
  const std::uint64_t a = std::min(r.operands[j].first, cap);
  const std::uint64_t b = std::min(r.operands[j].second, cap);
  switch (r.op) {
    case OpKind::kMultiply: return a * b;
    case OpKind::kVectorAdd: return a + b;
    case OpKind::kCompare:
      return a < b ? apim::arith::kCmpLt
                   : a == b ? apim::arith::kCmpEq : apim::arith::kCmpGt;
    case OpKind::kPopcount: return apim::util::popcount(a);
  }
  return 0;
}

/// FNV-1a over 64-bit words: the input fingerprint.
struct Hasher {
  std::uint64_t h = 14695981039346656037ull;
  void add(std::uint64_t x) { h = (h ^ x) * 1099511628211ull; }
  void add(const std::string& s) {
    for (const char c : s) add(static_cast<unsigned char>(c));
  }
};

void hash_trace(Hasher& h, const std::vector<Request>& trace) {
  for (const Request& r : trace) {
    h.add(r.app);
    h.add(static_cast<std::uint64_t>(r.op));
    h.add(r.width);
    h.add(r.arrival);
    h.add(r.deadline);
    h.add(static_cast<std::uint64_t>(r.policy));
    for (const auto& [a, b] : r.operands) {
      h.add(a);
      h.add(b);
    }
  }
}

/// Turns an open-loop trace of n + 1 Poisson arrivals into n arrivals over
/// exactly [0, end): the first n arrival times scaled by end / the last
/// one, which is then dropped. That is the Poisson process conditioned on
/// its count over a fixed window (sorted uniform arrivals): the offered
/// load no longer varies with the seed, while its bursts still do.
void fix_window(std::vector<Request>& trace, double end) {
  const double last = static_cast<double>(trace.back().arrival);
  trace.pop_back();
  for (Request& r : trace)
    r.arrival = static_cast<Cycles>(static_cast<double>(r.arrival) * end / last);
}

/// One open-loop trace of `gen.requests` arrivals at `gen.rate_per_kcycle`
/// over a fixed window (fix_window). Unfixed, the realized load moved with
/// the seed, and so did throughput: over ten seeds its quartile spread was
/// 0.73% on serve-kernel, 0.02% with the window fixed.
std::vector<Request> windowed_trace(serve::LoadGenConfig gen) {
  const double end = 1000.0 * static_cast<double>(gen.requests) / gen.rate_per_kcycle;
  ++gen.requests;
  std::vector<Request> trace = serve::make_open_loop_trace(gen);
  fix_window(trace, end);
  return trace;
}

/// The tenants' merged open-loop trace of `requests` arrivals, each
/// tenant's share by rate, every tenant's stream over the same fixed
/// window. With a fixed count per tenant but no fixed window, the least
/// popular tenant's stream ended at a random time, which moved the span:
/// over ten seeds the quartile spread of throughput was 2.5% on
/// cluster-skew, 0.11% with the window fixed.
std::vector<Request> windowed_trace(
    const std::vector<apim::serve_harness::TenantSpec>& tenants,
    std::uint64_t seed, std::size_t requests) {
  double rate = 0.0;
  for (const auto& t : tenants) rate += t.rate_per_kcycle;
  const double end = 1000.0 * static_cast<double>(requests) / rate;
  std::vector<Request> all;
  for (apim::serve_harness::TenantSpec t : tenants) {
    t.requests = 1 + static_cast<std::size_t>(std::llround(
                         static_cast<double>(requests) * t.rate_per_kcycle / rate));
    std::vector<Request> part = apim::serve_harness::tenant_trace(t, seed);
    fix_window(part, end);
    all.insert(all.end(), std::make_move_iterator(part.begin()),
               std::make_move_iterator(part.end()));
  }
  // Stable, as in serve_harness::merged_trace: simultaneous arrivals keep
  // tenant-list order.
  std::stable_sort(all.begin(), all.end(), [](const Request& a, const Request& b) {
    return a.arrival < b.arrival;
  });
  return all;
}

/// kOk values at relax 0 must equal the host-exact results; relaxed
/// responses must end with an acceptable QoS evaluation.
void check_values(const std::vector<Request>& trace,
                  const std::vector<const Response*>& responses, Result& r) {
  std::uint64_t wrong = 0, qos_misses = 0;
  for (std::size_t i = 0; i < responses.size(); ++i) {
    const Response& resp = *responses[i];
    if (resp.status != RequestStatus::kOk) continue;
    if (resp.relax_bits > 0) {
      if (!resp.qos.acceptable) ++qos_misses;
      continue;
    }
    const Request& req = trace[i];
    bool ok = resp.values.size() == req.operands.size();
    for (std::size_t j = 0; ok && j < req.operands.size(); ++j)
      ok = resp.values[j] == exact_value(req, j);
    if (!ok) ++wrong;
  }
  r.check(wrong == 0, std::to_string(wrong) +
                          " exact kOk responses differ from the host result");
  r.check(qos_misses == 0,
          std::to_string(qos_misses) +
              " relaxed responses end with a failed QoS evaluation");
}

/// Highest rate in [0, max_rate] for which `meets` holds, by bisection.
double bisect_rate(double max_rate, const std::function<bool(double)>& meets) {
  double lo = 0.0, hi = max_rate;
  for (int step = 0; step < kSloSteps; ++step) {
    const double mid = 0.5 * (lo + hi);
    if (meets(mid)) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return lo;
}

/// Per-layer numbers every serving snapshot carries: executor occupancy,
/// health activity, escalations and reliability counters. Cluster chips
/// are summed (counts), averaged (shares) or min-ed (serving domains).
void add_snapshot_layers(const std::vector<serve::MetricsSnapshot>& chips,
                         const serve::ServerConfig& cfg,
                         std::map<std::string, double>& layer) {
  double stream_occ = 0, lane_occ = 0, scrub_share = 0;
  double relocated = 0, quarantines = 0, escalations = 0, completed = 0;
  double detections = 0, retries = 0;
  double min_serving = static_cast<double>(cfg.streams);
  for (const serve::MetricsSnapshot& s : chips) {
    stream_occ += s.stream_occupancy;
    lane_occ += s.lane_occupancy;
    if (s.span_cycles > 0) {
      scrub_share += static_cast<double>(s.scrub_cycles) /
                     (static_cast<double>(cfg.streams) *
                      static_cast<double>(s.span_cycles));
    }
    relocated += static_cast<double>(s.relocated_requests);
    for (const auto& d : s.domains) quarantines += static_cast<double>(d.quarantines);
    escalations += static_cast<double>(s.escalations);
    completed += static_cast<double>(s.completed);
    detections += static_cast<double>(s.device_stats.faults_detected);
    retries += static_cast<double>(s.device_stats.retries);
    if (cfg.health.enabled)
      min_serving = std::min(min_serving, static_cast<double>(s.min_serving_domains));
  }
  const double n = static_cast<double>(std::max<std::size_t>(1, chips.size()));
  layer["serve.executor.stream_occupancy"] = stream_occ / n;
  layer["serve.executor.lane_occupancy"] = lane_occ / n;
  layer["serve.health.scrub_stream_share"] = scrub_share / n;
  layer["serve.health.relocated_requests"] = relocated;
  layer["serve.health.quarantines"] = quarantines;
  layer["serve.health.min_serving_domains"] = min_serving;
  layer["serve.server.escalation_share"] =
      completed > 0 ? escalations / completed : 0.0;
  layer["reliability.detections"] = detections;
  layer["reliability.retries"] = retries;
}

// -- Single-server workloads ------------------------------------------------

/// A workload served by one serve::Server replaying an open-loop trace.
class ServeWorkload : public Workload {
 public:
  void setup(std::uint64_t seed) override {
    seed_ = seed;
    prepare();
    inputs_ = inputs(rate_, requests_);
    const serve::Server first(inputs_.cfg, inputs_.table);
  }

  [[nodiscard]] std::uint64_t input_fingerprint() const override {
    Hasher h;
    hash_trace(h, inputs_.trace);
    for (const auto& [app, e] : inputs_.table.entries()) {
      h.add(app);
      h.add(e.relax_bits);
    }
    return h.h;
  }

  double run(serve::trace::EventLog* log) override {
    serve::ServerConfig cfg = inputs_.cfg;
    cfg.trace = log;
    serve::Server server(cfg, inputs_.table);
    std::vector<Request> trace = inputs_.trace;
    const Clock::time_point t0 = Clock::now();
    responses_ = server.run_trace(std::move(trace));
    const double s = seconds_since(t0);
    snap_ = server.snapshot();
    return s;
  }

  void tally(ModeledBuilder& b) const override {
    for (std::size_t i = 0; i < responses_.size(); ++i) {
      const Response& r = responses_[i];
      const Request& req = inputs_.trace[i];
      b.attempt(req.arrival);
      if (r.status != RequestStatus::kOk) {
        b.fail();
        continue;
      }
      b.served(req.operands.size(), r.latency_cycles(), r.completion,
               r.qos.acceptable);
    }
    b.end_open_loop_run(snap_.energy_pj + snap_.scrub_energy_pj);
  }

  void check(Result& r) const override {
    std::vector<const Response*> ptrs;
    ptrs.reserve(responses_.size());
    for (const Response& resp : responses_) ptrs.push_back(&resp);
    check_values(inputs_.trace, ptrs, r);
    const apim::serve_harness::Outcome out{inputs_.trace, responses_, snap_};
    r.check_empty(apim::serve_harness::check_conservation(out),
                  "request conservation");
    extra_checks(out, r);
  }

  [[nodiscard]] double offered_rate() const override { return rate_; }

  [[nodiscard]] bool probe(double rate,
                           std::vector<double>& latencies) const override {
    Inputs in = inputs(rate, probe_requests_);
    serve::Server server(in.cfg, in.table);
    for (const Response& x : server.run_trace(std::move(in.trace))) {
      if (x.status != RequestStatus::kOk || !x.qos.acceptable) return false;
      latencies.push_back(static_cast<double>(x.latency_cycles()));
    }
    return true;
  }

  void capture(Capture& out, Spans& /*spans*/,
               std::int64_t /*parent*/) override {
    out.server = inputs_.cfg;
    out.chips = 1;
    out.requests.clear();
    for (std::size_t i = 0; i < responses_.size(); ++i) {
      out.requests.push_back(ServedRequest{0, i, &inputs_.trace[i],
                                           responses_[i],
                                           responses_[i].arrival,
                                           responses_[i].completion});
    }
    add_snapshot_layers({snap_}, inputs_.cfg, out.layer);
  }

 protected:
  struct Inputs {
    serve::ServerConfig cfg;
    serve::QosTable table;
    std::vector<Request> trace;
  };

  /// Setup work that precedes trace generation (tuning, calibration).
  virtual void prepare() {}
  /// The server, QoS table and open-loop trace at `rate` req/kcycle with
  /// `requests` requests.
  [[nodiscard]] virtual Inputs inputs(double rate,
                                      std::size_t requests) const = 0;
  virtual void extra_checks(const apim::serve_harness::Outcome& /*out*/,
                            Result& /*r*/) const {}

  std::uint64_t seed_ = 0;
  double rate_ = 0.0;  ///< Offered load, requests per kcycle.
  std::size_t requests_ = 0;
  std::size_t probe_requests_ = 0;  ///< Trace length of each SLO probe.
  Inputs inputs_;
  std::vector<Response> responses_;
  serve::MetricsSnapshot snap_;
};

/// 4 x 64 lanes, bitsliced: 32-op requests at width 32 make the kernels
/// dominate host time.
serve::ServerConfig wide_server() {
  serve::ServerConfig cfg;
  cfg.streams = 4;
  cfg.lanes_per_stream = 64;
  cfg.batch_window = 2000;
  cfg.queue_capacity = 4096;
  cfg.device.backend = apim::core::Backend::kBitsliced;
  return cfg;
}

class ServeKernel final : public ServeWorkload {
 public:
  explicit ServeKernel(bool smoke) : smoke_(smoke) {
    rate_ = 10.0;
    // The tail is set by bursts of add batches that wait out the batch
    // window; over thirty seeds the standard deviation of p99 was 2.7% of
    // its mean at 40 000 requests and 1.8% at 80 000.
    requests_ = smoke ? 2000 : 80000;
    probe_requests_ = smoke ? 1000 : 20000;
  }
  [[nodiscard]] const char* name() const override { return "serve-kernel"; }

 private:
  void prepare() override {
    // The offline tuning step: a fixed seed, since the tuned table is
    // part of the served system, not of the offered traffic.
    const std::vector<std::string> apps = {"Sobel", "FFT"};
    table_ = serve::build_qos_table(apps, smoke_ ? 256 : 1024, 2017);
  }

  [[nodiscard]] Inputs inputs(double rate,
                              std::size_t requests) const override {
    serve::LoadGenConfig gen;
    gen.requests = requests;
    gen.rate_per_kcycle = rate;
    gen.seed = seed_;
    gen.apps = {"Sobel", "FFT"};
    gen.min_ops = 32;
    gen.max_ops = 32;
    gen.width = 32;
    gen.add_fraction = 0.25;
    return Inputs{wide_server(), table_, windowed_trace(gen)};
  }

  bool smoke_;
  serve::QosTable table_;
};

class ServeEngine final : public ServeWorkload {
 public:
  explicit ServeEngine(bool smoke) {
    rate_ = 20.0;
    requests_ = smoke ? 5000 : 200000;
    // 1-op requests arrive so densely that a 20 000-request probe spans
    // too little virtual time for a backlog to reach the p99 limit; the
    // SLO rate then swings with the seed.
    probe_requests_ = smoke ? 1000 : 100000;
  }
  [[nodiscard]] const char* name() const override { return "serve-engine"; }

 private:
  [[nodiscard]] Inputs inputs(double rate,
                              std::size_t requests) const override {
    constexpr std::size_t kTenants = 16;
    serve::LoadGenConfig gen;
    gen.requests = requests;
    gen.rate_per_kcycle = rate;
    gen.seed = seed_;
    for (std::size_t t = 0; t < kTenants; ++t)
      gen.apps.push_back("t" + std::to_string(t));
    gen.min_ops = 1;
    gen.max_ops = 1;
    gen.width = 8;
    Inputs in{wide_server(), serve::QosTable{}, windowed_trace(gen)};
    for (std::size_t t = 0; t < 4; ++t) in.cfg.tenant_weights[gen.apps[t]] = 4;
    // Op kinds drawn uniformly from the benchmark's own stream, so every
    // device batch entry point sees traffic.
    apim::util::Xoshiro256 rng(
        apim::workload_harness::seeded_stream(seed_, "op-kind"));
    for (Request& r : in.trace) r.op = static_cast<OpKind>(rng.next_below(4));
    return in;
  }
};

class ServeChaos final : public ServeWorkload {
 public:
  explicit ServeChaos(bool smoke) : smoke_(smoke) {
    // Over thirty seeds the standard deviation of p99 was 1.4% of its mean
    // at 20 000 requests and 1.1% at 40 000. Probes as long: the SLO
    // rate's quartile spread was 1.9% (thirty seeds) with 20 000-request
    // probes and 1.4% (twenty seeds) with 40 000.
    requests_ = smoke ? 2000 : 40000;
    probe_requests_ = smoke ? 1000 : 40000;
  }
  [[nodiscard]] const char* name() const override { return "serve-chaos"; }

 private:
  /// bench/ext_chaos's server: 4 streams x 4 lanes, health layer in
  /// kShed mode, quarantine on escalation only.
  static serve::ServerConfig chaos_server() {
    serve::ServerConfig cfg;
    cfg.streams = 4;
    cfg.lanes_per_stream = 4;
    cfg.max_batch_ops = 16;
    cfg.batch_window = 2000;
    cfg.queue_capacity = 8192;
    cfg.escalate_on_miss = false;
    cfg.health.mode = serve::health::DegradeMode::kShed;
    cfg.health.suspect_detections = 4;
    cfg.health.quarantine_detections = 1u << 30;
    return cfg;
  }

  static apim::serve_harness::TenantSpec vision() {
    apim::serve_harness::TenantSpec t;
    t.name = "vision";
    t.weight = 3;
    t.width = 12;
    t.min_ops = 2;
    t.max_ops = 12;
    t.policy = apim::reliability::ReliabilityPolicy::kDetectAndRepair;
    return t;
  }

  void prepare() override {
    // Capacity calibration: one saturating tenant on the fault-free
    // server (fixed seed, like the tuned QoS table: it sizes the system,
    // not the traffic). Offer half of it: after the kill three domains
    // serve it at 67% utilization, so the tail reflects protection and
    // relocation rather than near-saturation queueing luck. At 65% of
    // capacity (87% after the kill) the quartile spread of p99 over ten
    // seeds was 13%, and the range 36%.
    apim::serve_harness::TenantSpec probe = vision();
    probe.requests = smoke_ ? 200 : 600;
    probe.rate_per_kcycle = 64.0;
    const double capacity =
        apim::serve_harness::measure_capacity_ops_per_kcycle(chaos_server(),
                                                             probe, 7);
    const double mean_ops = 0.5 * static_cast<double>(probe.min_ops + probe.max_ops);
    rate_ = 0.5 * capacity / mean_ops;
  }

  [[nodiscard]] Inputs inputs(double rate,
                              std::size_t requests) const override {
    apim::serve_harness::TenantSpec v = vision();
    apim::serve_harness::TenantSpec s = v;
    s.name = "sensor";
    s.weight = 1;
    v.rate_per_kcycle = 0.75 * rate;
    s.rate_per_kcycle = 0.25 * rate;
    const double span = 1000.0 * static_cast<double>(requests) / rate;

    apim::serve_harness::ChaosSpec spec;
    spec.scenario.seed = seed_;
    spec.scenario.server = chaos_server();
    spec.scenario.server.health.enabled = true;
    spec.scenario.server.health.scrub_interval = static_cast<Cycles>(span / 15.0);
    spec.scenario.server.health.repair_interval = static_cast<Cycles>(span / 20.0);
    spec.scenario.tenants = {v, s};
    // The decay is the chip's, not the traffic's: a fixed fault seed.
    spec.stuck_rate = 1e-3;
    spec.cells_per_unit = 256;
    spec.transient_rate = 1e-4;
    spec.fault_seed = 0xFA177;
    spec.kill_domain = 1;
    spec.kill_at = static_cast<Cycles>(0.40 * span);

    Inputs in;
    in.cfg = spec.scenario.server;
    in.cfg.health.fault_schedule = apim::serve_harness::chaos_schedule(spec);
    for (const auto& t : spec.scenario.tenants) {
      in.table.set(t.name, serve::QosTableEntry{t.relax_bits, 0.0, true, false});
      in.cfg.tenant_weights[t.name] = t.weight;
    }
    in.trace = windowed_trace(spec.scenario.tenants, seed_, requests);
    return in;
  }

  void extra_checks(const apim::serve_harness::Outcome& out,
                    Result& r) const override {
    const apim::serve_harness::CorruptionReport rep =
        apim::serve_harness::count_corruption(out);
    r.check(rep.corrupted == 0,
            std::to_string(rep.corrupted) + " corrupted responses served");
    r.check_empty(apim::serve_harness::check_chaos_conservation(out),
                  "chaos relocation ledger");
  }

  bool smoke_;
};

// -- Cluster ----------------------------------------------------------------

class ClusterSkew final : public Workload {
 public:
  /// 50 000 requests per replica; each SLO probe serves 10 000 per
  /// replica, pooled (with 5 000, the SLO rate's quartile spread over ten
  /// seeds reached 3.9%; with 10 000 it was 1.4% over twenty).
  explicit ClusterSkew(bool smoke)
      : requests_(smoke ? 1000 : 50000),
        probe_requests_(smoke ? 250 : 10000) {}

  [[nodiscard]] const char* name() const override { return "cluster-skew"; }

  /// The rebalancer settles on a placement that depends on the seed (3 to
  /// 17 migrations over seeds 1-10), and the tail follows it all run long:
  /// one 100 000-request cluster's p99 had a 5.2% quartile spread over ten
  /// seeds, and 5.0% at 200 000 requests. Four independent clusters average
  /// over four placements: 3.8% with 25 000 requests each, 1.3-3.4% with
  /// 50 000 (five sets of ten seeds).
  [[nodiscard]] std::size_t replicas() const override { return 4; }

  void setup(std::uint64_t seed) override {
    seed_ = seed;
    inputs_ = inputs(kRate, requests_);
    const cluster::Cluster first(inputs_.cfg, inputs_.table);
  }

  [[nodiscard]] std::uint64_t input_fingerprint() const override {
    Hasher h;
    hash_trace(h, inputs_.trace);
    for (const auto& [shard, chip] : inputs_.cfg.placement_overrides) {
      h.add(shard);
      h.add(chip);
    }
    return h.h;
  }

  double run(serve::trace::EventLog* log) override {
    cluster::ClusterConfig cfg = inputs_.cfg;
    cfg.trace = log;
    cluster::Cluster cl(cfg, inputs_.table);
    std::vector<Request> trace = inputs_.trace;
    const Clock::time_point t0 = Clock::now();
    responses_ = cl.run_trace(std::move(trace));
    const double s = seconds_since(t0);
    snap_ = cl.snapshot();
    return s;
  }

  void tally(ModeledBuilder& b) const override {
    for (const cluster::ClusterResponse& cr : responses_) {
      b.attempt(cr.edge_arrival);
      if (cr.resp.status != RequestStatus::kOk) {
        b.fail();
        continue;
      }
      b.served(cr.resp.values.size(), cr.edge_latency_cycles(),
               cr.edge_completion, cr.resp.qos.acceptable);
    }
    b.end_open_loop_run(total_energy_pj(snap_));
  }

  void check(Result& r) const override {
    std::vector<const Response*> ptrs;
    ptrs.reserve(responses_.size());
    for (const cluster::ClusterResponse& cr : responses_)
      ptrs.push_back(&cr.resp);
    check_values(inputs_.trace, ptrs, r);
    const apim::cluster_harness::ClusterOutcome out{inputs_.trace, responses_,
                                                    snap_};
    r.check_empty(apim::cluster_harness::check_cluster_conservation(out),
                  "cluster conservation");
  }

  [[nodiscard]] double offered_rate() const override { return kRate; }

  [[nodiscard]] bool probe(double rate,
                           std::vector<double>& latencies) const override {
    Inputs in = inputs(rate, probe_requests_);
    cluster::Cluster cl(in.cfg, in.table);
    for (const cluster::ClusterResponse& x : cl.run_trace(std::move(in.trace))) {
      if (x.resp.status != RequestStatus::kOk || !x.resp.qos.acceptable)
        return false;
      latencies.push_back(static_cast<double>(x.edge_latency_cycles()));
    }
    return true;
  }

  void capture(Capture& out, Spans& spans, std::int64_t parent) override {
    out.server = inputs_.cfg.server;
    out.chips = inputs_.cfg.chips;
    out.requests.clear();
    for (std::size_t i = 0; i < responses_.size(); ++i) {
      const cluster::ClusterResponse& cr = responses_[i];
      out.requests.push_back(ServedRequest{cr.exec_chip, cr.resp.id,
                                           &inputs_.trace[i], cr.resp,
                                           cr.edge_arrival,
                                           cr.edge_completion});
    }
    add_snapshot_layers(snap_.chips, out.server, out.layer);
    out.layer["cluster.held_requests"] = static_cast<double>(snap_.held_requests);
    out.layer["cluster.migrations"] = static_cast<double>(snap_.migrations);
    out.layer["cluster.chip_jain"] = snap_.chip_jain;
    out.layer["cluster.cross_shard_traffic_share"] =
        snap_.cross_shard_traffic_share;
    out.layer["cluster.interconnect_energy_share"] =
        snap_.interconnect_energy_pj / total_energy_pj(snap_);
    out.layer["cluster.coord_self_share"] =
        coordinator_share(out.untraced_s, spans, parent);
  }

 private:
  /// Offered requests per kcycle. Closer to saturation the tail depends
  /// even more on which shards the rebalancer happens to move: at 9
  /// req/kcycle the quartile spread of p99 over ten seeds was 30%.
  static constexpr double kRate = 6.0;
  static constexpr std::size_t kChips = 4;
  static constexpr std::size_t kShards = 32;
  static constexpr std::size_t kTenants = 12;

  struct Inputs {
    cluster::ClusterConfig cfg;
    serve::QosTable table;
    std::vector<Request> trace;
  };

  [[nodiscard]] Inputs inputs(double rate, std::size_t requests) const {
    apim::cluster_harness::ClusterScenario s;
    s.seed = seed_;
    s.tenants = apim::cluster_harness::zipf_tenants(kTenants, 1.1, rate, requests);
    s.cluster.chips = kChips;
    s.cluster.shards = kShards;
    s.cluster.server.streams = 2;
    s.cluster.server.lanes_per_stream = 8;
    s.cluster.server.batch_window = 400;
    s.cluster.server.queue_capacity = 4096;
    s.cluster.rebalance.interval = 10000;
    // The naive placement: the popular half of the Zipf curve homes on
    // chip 0, so the rebalancer has hot shards to move.
    for (std::size_t k = 0; k < kTenants / 2; ++k)
      s.cluster.placement_overrides[cluster::Placement::shard_of(
          s.tenants[k].name, kShards)] = 0;

    Inputs in;
    in.cfg = s.cluster;
    for (const auto& t : s.tenants) {
      in.table.set(t.name, serve::QosTableEntry{t.relax_bits, 0.0, true, false});
      in.cfg.server.tenant_weights[t.name] = t.weight;
    }
    in.trace = windowed_trace(s.tenants, seed_, requests);
    return in;
  }

  static double total_energy_pj(const cluster::ClusterSnapshot& snap) {
    double e = snap.interconnect_energy_pj;  // Includes migration energy.
    for (const serve::MetricsSnapshot& chip : snap.chips)
      e += chip.energy_pj + chip.scrub_energy_pj;
    return e;
  }

  /// Share of Cluster::run_trace host time not spent serving: each chip's
  /// executed requests are replayed (at their chip arrival times) on a
  /// standalone Server, and those times are subtracted.
  double coordinator_share(double cluster_s, Spans& spans,
                           std::int64_t parent) const {
    std::vector<std::vector<Request>> per_chip(kChips);
    for (std::size_t i = 0; i < responses_.size(); ++i) {
      Request r = inputs_.trace[i];
      r.arrival = responses_[i].resp.arrival;
      per_chip[responses_[i].exec_chip].push_back(std::move(r));
    }
    double chips_s = 0.0;
    for (std::size_t c = 0; c < kChips; ++c) {
      serve::Server server(inputs_.cfg.server, inputs_.table);
      const std::int64_t s = spans.begin(
          "serve.server.run_trace.chip", parent, static_cast<std::int64_t>(c));
      (void)server.run_trace(std::move(per_chip[c]));
      chips_s += spans.end(s);
    }
    return cluster_s > 0.0 ? (cluster_s - chips_s) / cluster_s : 0.0;
  }

  std::uint64_t seed_ = 0;
  std::size_t requests_;
  std::size_t probe_requests_;  ///< Trace length of each SLO probe.
  Inputs inputs_;
  std::vector<cluster::ClusterResponse> responses_;
  cluster::ClusterSnapshot snap_;
};

// -- Analytics --------------------------------------------------------------

class AnalyticsTpch final : public Workload {
 public:
  explicit AnalyticsTpch(bool smoke) : orders_(smoke ? 1024 : 16384) {}

  [[nodiscard]] const char* name() const override { return "analytics-tpch"; }

  /// The tables' contents set the size of every wave, and with them the
  /// latency percentiles: over ten seeds one table set's p50 had a 1.8%
  /// quartile spread, and two table sets 0.6%.
  [[nodiscard]] std::size_t replicas() const override { return 2; }

  void setup(std::uint64_t seed) override {
    analytics::TpchConfig tc;
    tc.orders = orders_;
    tc.seed = seed;
    tables_ = analytics::make_tables(tc);
    for (std::vector<double>& times : query_host_s_) times.clear();
    const analytics::Runner first(runner_config());
  }

  [[nodiscard]] std::uint64_t input_fingerprint() const override {
    Hasher h;
    for (const analytics::Table* t : {&tables_.orders, &tables_.lineitem})
      for (const analytics::Column& c : t->columns) {
        h.add(c.name);
        for (const std::uint64_t v : c.values) h.add(v);
      }
    return h.h;
  }

  double run(serve::trace::EventLog* log) override {
    analytics::RunnerConfig cfg = runner_config();
    cfg.server.trace = log;
    return run_queries(std::move(cfg), log == nullptr);
  }

  void tally(ModeledBuilder& b) const override {
    for (const Response& r : responses_) {
      b.attempt(r.arrival);
      b.served(r.values.size(), r.latency_cycles(), r.completion,
               r.qos.acceptable);
    }
    b.end_run(snap_.energy_pj + snap_.scrub_energy_pj, virtual_cycles_);
  }

  void check(Result& r) const override;

  [[nodiscard]] double offered_rate() const override { return 0.0; }

  /// A closed loop is never probed (slo_rate_per_kcycle).
  [[nodiscard]] bool probe(double /*rate*/,
                           std::vector<double>& /*latencies*/) const override {
    return false;
  }

  void capture(Capture& out, Spans& /*spans*/,
               std::int64_t /*parent*/) override {
    out.server = runner_config().server;
    out.chips = 1;
    out.requests.clear();
    for (std::size_t i = 0; i < responses_.size(); ++i)
      out.requests.push_back(ServedRequest{0, i, nullptr, responses_[i],
                                           responses_[i].arrival,
                                           responses_[i].completion});
    add_snapshot_layers({snap_}, out.server, out.layer);
    out.layer["analytics.waves"] = static_cast<double>(waves_);
    out.layer["analytics.ops_per_wave"] =
        waves_ == 0 ? 0.0 : static_cast<double>(ops_) / static_cast<double>(waves_);
    const char* names[3][2] = {
        {"analytics.query_kcycles.q6", "analytics.query_host_ms.q6"},
        {"analytics.query_kcycles.q1", "analytics.query_host_ms.q1"},
        {"analytics.query_kcycles.q3", "analytics.query_host_ms.q3"}};
    for (int q = 0; q < 3; ++q) {
      out.layer[names[q][0]] = static_cast<double>(query_cycles_[q]) / 1000.0;
      out.layer[names[q][1]] = 1000.0 * percentile(query_host_s_[q], 0.5);
    }
  }

 private:
  /// bench/ext_analytics's runner: 4 x 64 lanes, bitsliced.
  static analytics::RunnerConfig runner_config() {
    analytics::RunnerConfig cfg;
    cfg.server.streams = 4;
    cfg.server.lanes_per_stream = 64;
    cfg.server.queue_capacity = 1024;
    cfg.server.batch_window = 1000;
    cfg.server.device.backend = apim::core::Backend::kBitsliced;
    return cfg;
  }

  /// Q6, Q1 and Q3 in sequence on one fresh Runner (one client, each wave
  /// waiting for the last). Times the queries only; `keep_times` keeps
  /// each query's host time for the per-layer medians.
  double run_queries(analytics::RunnerConfig cfg, bool keep_times) {
    analytics::Runner runner(std::move(cfg));
    Cycles cycles_before = 0;
    const Clock::time_point t0 = Clock::now();
    Clock::time_point tq = t0;
    const auto lap = [&](int q) {
      const Clock::time_point now = Clock::now();
      if (keep_times)
        query_host_s_[q].push_back(std::chrono::duration<double>(now - tq).count());
      tq = now;
      query_cycles_[q] = runner.virtual_now() - cycles_before;
      cycles_before = runner.virtual_now();
    };
    q6_ = analytics::q6_revenue(runner, tables_);
    lap(0);
    q1_ = analytics::q1_pricing_summary(runner, tables_);
    lap(1);
    q3_ = analytics::q3_shipping_priority(runner, tables_);
    lap(2);
    const double s = seconds_since(t0);

    virtual_cycles_ = runner.virtual_now();
    waves_ = runner.waves();
    ops_ = runner.ops();
    snap_ = runner.snapshot();
    responses_.clear();
    responses_.reserve(runner.requests());
    for (std::uint64_t id = 0; id < runner.requests(); ++id)
      responses_.push_back(runner.server().response(id));
    return s;
  }

  std::size_t orders_;
  analytics::TpchTables tables_;
  analytics::Q6Result q6_;
  std::vector<analytics::AggRow> q1_;
  analytics::Q3Result q3_;
  std::vector<double> query_host_s_[3];  ///< Untraced runs since setup.
  Cycles query_cycles_[3] = {0, 0, 0};
  Cycles virtual_cycles_ = 0;
  std::uint64_t waves_ = 0;
  std::uint64_t ops_ = 0;
  serve::MetricsSnapshot snap_;
  std::vector<Response> responses_;
};

void AnalyticsTpch::check(Result& r) const {
  namespace oracle = apim::analytics_harness;
  using analytics::CmpOp;
  const analytics::Table& li = tables_.lineitem;
  const analytics::Table& od = tables_.orders;
  const auto& qty = li.col("l_quantity").values;
  const auto& disc = li.col("l_discount").values;
  const auto& price = li.col("l_price").values;

  // Q6: two selects, mask AND, sum of price * discount.
  const analytics::Q6Params q6p;
  const auto by_qty = oracle::ref_select(qty, {CmpOp::kLt, q6p.quantity_lt});
  const auto by_disc = oracle::ref_select(disc, {CmpOp::kGe, q6p.discount_ge});
  std::uint64_t rows = 0, revenue = 0;
  for (std::size_t i = 0; i < qty.size(); ++i) {
    if (!by_qty.mask[i] || !by_disc.mask[i]) continue;
    ++rows;
    revenue += price[i] * disc[i];
  }
  r.check(q6_.matching_rows == rows && q6_.revenue == revenue,
          "q6 differs from the scalar oracle");

  // Q1: select on quantity, group price by ship mode.
  const auto q1_mask =
      oracle::ref_select(qty, {CmpOp::kLe, analytics::Q1Params{}.quantity_le});
  r.check_empty(oracle::diff_agg_rows(
                    q1_, oracle::ref_group_aggregate(
                             li.col("l_shipmode").values, price, &q1_mask.mask),
                    "q1"),
                "q1 vs the scalar oracle");

  // Q3: order filter, join on order key, revenue by customer, sorted.
  const auto& status = od.col("o_status").values;
  const auto& okey = od.col("o_orderkey").values;
  const auto& cust = od.col("o_custkey").values;
  const auto qual =
      oracle::ref_select(status, {CmpOp::kLt, analytics::Q3Params{}.status_lt});
  std::vector<std::uint64_t> build_keys;
  std::vector<std::size_t> build_rows;
  for (std::size_t o = 0; o < status.size(); ++o) {
    if (!qual.mask[o]) continue;
    build_keys.push_back(okey[o]);
    build_rows.push_back(o);
  }
  const std::vector<analytics::JoinPair> pairs =
      oracle::ref_hash_join(li.col("l_orderkey").values, build_keys);
  std::vector<std::uint64_t> custkeys, prices;
  for (const analytics::JoinPair& jp : pairs) {
    custkeys.push_back(cust[build_rows[jp.right]]);
    prices.push_back(price[jp.left]);
  }
  const auto by_cust = oracle::ref_group_aggregate(custkeys, prices);
  std::vector<std::uint64_t> sums;
  for (const analytics::AggRow& row : by_cust) sums.push_back(row.sum);
  r.check(q3_.qualifying_orders == qual.count && q3_.join_pairs == pairs.size(),
          "q3 filter/join differs from the scalar oracle");
  r.check_empty(oracle::diff_agg_rows(q3_.by_cust, by_cust, "q3"),
                "q3 vs the scalar oracle");
  r.check(q3_.revenue_sorted == oracle::ref_sorted(sums),
          "q3 sorted revenue differs from the scalar oracle");
}

}  // namespace

void ModeledBuilder::attempt(Cycles arrival) {
  ++m_.attempted;
  first_arrival_ = std::min(first_arrival_, arrival);
}

void ModeledBuilder::served(std::size_t ops, Cycles latency, Cycles completion,
                            bool qos_ok) {
  if (!qos_ok) ++m_.failed;
  m_.ok_ops += ops;
  latencies_.push_back(static_cast<double>(latency));
  last_completion_ = std::max(last_completion_, completion);
}

void ModeledBuilder::end_open_loop_run(double energy_pj) {
  end_run(energy_pj, last_completion_ > first_arrival_
                         ? last_completion_ - first_arrival_
                         : 0);
}

void ModeledBuilder::end_run(double energy_pj, Cycles span) {
  energy_pj_ += energy_pj;
  m_.span += span;
  first_arrival_ = ~Cycles{0};
  last_completion_ = 0;
}

Modeled ModeledBuilder::finish() const {
  Modeled m = m_;
  m.samples = latencies_.size();
  if (m.span > 0)
    m.ops_per_kcycle =
        1000.0 * static_cast<double>(m.ok_ops) / static_cast<double>(m.span);
  m.p50_latency_cycles = percentile(latencies_, 0.50);
  m.p99_latency_cycles = percentile(latencies_, 0.99);
  if (m.ok_ops > 0) m.energy_pj_per_op = energy_pj_ / static_cast<double>(m.ok_ops);
  return m;
}

std::vector<std::string> workload_names() {
  return {"serve-kernel", "serve-engine", "serve-chaos", "cluster-skew",
          "analytics-tpch"};
}

std::unique_ptr<Workload> make_workload(const std::string& name, bool smoke) {
  if (name == "serve-kernel") return std::make_unique<ServeKernel>(smoke);
  if (name == "serve-engine") return std::make_unique<ServeEngine>(smoke);
  if (name == "serve-chaos") return std::make_unique<ServeChaos>(smoke);
  if (name == "cluster-skew") return std::make_unique<ClusterSkew>(smoke);
  if (name == "analytics-tpch") return std::make_unique<AnalyticsTpch>(smoke);
  return nullptr;
}

std::uint64_t replica_seed(std::uint64_t seed, std::size_t k) {
  return k == 0 ? seed
                : apim::workload_harness::seeded_stream(
                      seed, "replica-" + std::to_string(k));
}

Modeled modeled(const Workload& w) {
  ModeledBuilder b;
  w.tally(b);
  return b.finish();
}

Modeled modeled(const Replicas& ws) {
  ModeledBuilder b;
  for (const std::unique_ptr<Workload>& w : ws) w->tally(b);
  return b.finish();
}

double slo_rate_per_kcycle(const Replicas& ws) {
  const double rate = ws.front()->offered_rate();
  if (rate == 0.0) {
    const Modeled m = modeled(ws);
    return m.span == 0 ? 0.0
                       : 1000.0 * static_cast<double>(m.attempted) /
                             static_cast<double>(m.span);
  }
  return bisect_rate(kSloRangeFactor * rate, [&](double probe_rate) {
    std::vector<double> latencies;
    for (const std::unique_ptr<Workload>& w : ws)
      if (!w->probe(probe_rate, latencies)) return false;
    return percentile(std::move(latencies), 0.99) <= kSloP99Cycles;
  });
}

}  // namespace apim_bench
