// The benchmark's five workloads (benchmark/README.md says why each exists).
//
// A workload builds its inputs from the seed in setup(), then runs them on
// a freshly built system per repeat, timing only the public entry point
// that does the work (Server::run_trace, Cluster::run_trace, or the query
// set on one analytics::Runner). Modeled metrics come from the outputs;
// host seconds from the timer.
//
// An end-to-end run sets up several replicas of some workloads, each from
// its own seed derived from the run's, and pools their outputs into one
// set of modeled metrics (Workload::replicas says why).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "measure.hpp"
#include "serve/request.hpp"
#include "serve/server.hpp"
#include "serve/trace.hpp"
#include "util/units.hpp"

namespace apim_bench {

/// Virtual-time limit of the SLO search: the p99 a rate must meet.
inline constexpr double kSloP99Cycles = 40000.0;

/// Modeled end-to-end metrics of one repeat. Deterministic for a seed:
/// every repeat of one run must produce identical values.
struct Modeled {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;  ///< Rejected, expired, invalid or QoS-missed.
  std::uint64_t ok_ops = 0;  ///< Operand pairs of kOk requests.
  std::uint64_t samples = 0;  ///< Latency samples (kOk requests).
  apim::util::Cycles span = 0;  ///< Virtual cycles, summed over replicas.
  double ops_per_kcycle = 0.0;
  double p50_latency_cycles = 0.0;
  double p99_latency_cycles = 0.0;
  double energy_pj_per_op = 0.0;

  [[nodiscard]] bool operator==(const Modeled&) const = default;
};

/// Pools the outputs of one or more runs (one per replica) into Modeled.
class ModeledBuilder {
 public:
  void attempt(apim::util::Cycles arrival);
  void fail() { ++m_.failed; }
  /// A kOk request carrying `ops` operand pairs.
  void served(std::size_t ops, apim::util::Cycles latency,
              apim::util::Cycles completion, bool qos_ok);
  /// Ends an open-loop run: its span runs from its first arrival to its
  /// last completion.
  void end_open_loop_run(double energy_pj);
  /// Ends a closed-loop run that took `span` virtual cycles.
  void end_run(double energy_pj, apim::util::Cycles span);
  [[nodiscard]] Modeled finish() const;

 private:
  Modeled m_;
  double energy_pj_ = 0.0;
  std::vector<double> latencies_;
  apim::util::Cycles first_arrival_ = ~apim::util::Cycles{0};
  apim::util::Cycles last_completion_ = 0;
};

/// One served request as the per-layer analysis sees it.
struct ServedRequest {
  std::size_t chip = 0;        ///< Executing chip (0 outside a cluster).
  std::uint64_t local_id = 0;  ///< Chip-local request id (event `req`).
  /// The request as staged, or nullptr when the workload cannot see its
  /// operands (analytics::Runner stages requests internally).
  const apim::serve::Request* request = nullptr;
  apim::serve::Response response;  ///< Chip-level response.
  /// Cluster edge timestamps; equal to the response's own outside one.
  apim::util::Cycles edge_arrival = 0;
  apim::util::Cycles edge_completion = 0;
};

/// Everything a traced run hands to the per-layer analysis (traced.cpp).
struct Capture {
  apim::serve::trace::EventLog log{std::size_t{1} << 24};
  apim::serve::ServerConfig server;  ///< Per-chip serving configuration.
  std::size_t chips = 1;
  std::vector<ServedRequest> requests;
  /// Fastest host seconds of the run without and with the event log.
  double untraced_s = 0.0;
  double traced_s = 0.0;
  /// Per-layer metrics only this workload can compute (health, cluster,
  /// analytics), keyed by catalog name.
  std::map<std::string, double> layer;
};

class Workload {
 public:
  virtual ~Workload() = default;

  [[nodiscard]] virtual const char* name() const = 0;

  /// Replicas an end-to-end run pools: more than one where a single
  /// replica's modeled metrics depend on its seed in a way that a longer
  /// trace does not average out. A traced run uses one.
  [[nodiscard]] virtual std::size_t replicas() const { return 1; }

  /// Build the inputs from `seed` (QoS tuning, capacity calibration,
  /// trace/table generation) and construct the first system.
  virtual void setup(std::uint64_t seed) = 0;

  /// Fingerprint of the inputs setup() built; equal seeds must give equal
  /// fingerprints.
  [[nodiscard]] virtual std::uint64_t input_fingerprint() const = 0;

  /// Run the inputs once on a freshly built system, emitting events to
  /// `log` when it is not null. Returns the host seconds of the timed
  /// region (the run only); the outputs are kept for tally(), check() and
  /// capture().
  virtual double run(apim::serve::trace::EventLog* log) = 0;

  /// Add the last run's outputs to `b`.
  virtual void tally(ModeledBuilder& b) const = 0;

  /// Output-correctness gate over the last run.
  virtual void check(Result& r) const = 0;

  /// Offered load in requests per kcycle; 0 for a closed loop.
  [[nodiscard]] virtual double offered_rate() const = 0;

  /// Serve a shorter trace at `rate` req/kcycle, from this replica's seed,
  /// on a fresh system (open loops only). Appends the latencies of its
  /// kOk requests and returns false when any request failed.
  [[nodiscard]] virtual bool probe(double rate,
                                   std::vector<double>& latencies) const = 0;

  /// Describe the last run for the per-layer analysis: its requests,
  /// serving configuration and the per-layer metrics only this workload
  /// can compute. `out.untraced_s` is already set.
  virtual void capture(Capture& out, Spans& spans, std::int64_t parent) = 0;
};

using Replicas = std::vector<std::unique_ptr<Workload>>;

[[nodiscard]] std::vector<std::string> workload_names();

/// nullptr for an unknown name. `smoke` shrinks every size for the
/// self-test.
[[nodiscard]] std::unique_ptr<Workload> make_workload(const std::string& name,
                                                      bool smoke);

/// The seed replica `k` of a run with `seed` sets up from; replica 0 uses
/// the run's own seed.
[[nodiscard]] std::uint64_t replica_seed(std::uint64_t seed, std::size_t k);

/// The modeled metrics of one workload's last run.
[[nodiscard]] Modeled modeled(const Workload& w);
/// The modeled metrics of the replicas' last runs, pooled.
[[nodiscard]] Modeled modeled(const Replicas& ws);

/// Highest offered rate whose pooled p99 over the replicas' probes meets
/// kSloP99Cycles with nothing failed, by a 10-step bisection over
/// [0, 4x the offered rate]. A closed loop cannot be overdriven: it
/// reports its achieved request rate.
[[nodiscard]] double slo_rate_per_kcycle(const Replicas& ws);

}  // namespace apim_bench
