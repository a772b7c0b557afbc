// Runner: the analytics layer's gateway to the serving runtime.
//
// Every in-memory operation an analytics operator issues travels through a
// full serve::Server — admission, QoS relax lookup, dynamic same-shape
// batching, DRR fair share, health — as ordinary requests, so the serving
// metrics and the virtual clock cover analytic queries exactly like any
// other tenant's traffic. The Runner drives the server with the stepping
// API (stage_request / next_event_at / step_until), the same discipline
// the cluster coordinator uses: stage a wave of same-shape requests at the
// current virtual time, drain the engine, collect responses in request
// order. Bit-identical for every host thread count.
//
// Operators require completed results: any response that is not kOk
// (rejected, expired, invalid) throws — analytic plans have no partial-
// result semantics. Configure capacity/deadlines accordingly (the default
// config has no deadlines and waves are throttled to queue capacity).
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "reliability/policy.hpp"
#include "serve/metrics.hpp"
#include "serve/qos_table.hpp"
#include "serve/request.hpp"
#include "serve/server.hpp"

namespace apim::analytics {

/// Tenant name for waves that must stay exact regardless of the QoS table:
/// COUNT / cardinality reductions. Keep it out of the QoS table: the
/// table's conservative fallback serves unknown apps at relax 0.
inline constexpr const char* kExactApp = "analytics#exact";

struct RunnerConfig {
  serve::ServerConfig server{};
  /// Tenant name the analytic requests run under (QoS table / DRR key).
  std::string app = "analytics";
  /// Fault-tolerance level of the issued requests.
  reliability::ReliabilityPolicy policy = reliability::ReliabilityPolicy::kOff;
  /// QoS table handed to the server. Default empty: every request runs
  /// exact. The bench's relaxed-aggregate variant registers `app` here
  /// with a nonzero relax level (compares/popcounts stay exact by the
  /// kernel contract; only SUM reduction adds ever approximate).
  serve::QosTable qos{};
};

class Runner {
 public:
  explicit Runner(RunnerConfig cfg);
  ~Runner();

  Runner(const Runner&) = delete;
  Runner& operator=(const Runner&) = delete;

  /// Execute one wave of same-shape ops through the server and return the
  /// values in op order. `width` is clamped to the request range [4, 32];
  /// operands must already fit in it. Throws std::runtime_error when any
  /// request finalizes as anything other than kOk. With `force_exact` the
  /// wave runs under kExactApp, sidestepping any relax level configured
  /// for the analytic tenant (used by COUNT reductions, whose results are
  /// cardinalities, not approximable aggregates).
  std::vector<std::uint64_t> run_wave(
      serve::OpKind op, unsigned width,
      std::span<const std::pair<std::uint64_t, std::uint64_t>> ops,
      bool force_exact = false);

  /// Engine virtual time (total simulated cycles so far).
  [[nodiscard]] util::Cycles virtual_now() const;

  [[nodiscard]] serve::MetricsSnapshot snapshot() const;
  [[nodiscard]] const serve::Server& server() const { return *server_; }

  /// Cumulative counters across every wave.
  [[nodiscard]] std::uint64_t waves() const noexcept { return waves_; }
  [[nodiscard]] std::uint64_t requests() const noexcept { return requests_; }
  [[nodiscard]] std::uint64_t ops() const noexcept { return ops_; }
  /// Sum of the per-response energy shares (pJ).
  [[nodiscard]] double energy_pj() const noexcept { return energy_pj_; }

 private:
  RunnerConfig cfg_;
  std::unique_ptr<serve::Server> server_;
  std::uint64_t waves_ = 0;
  std::uint64_t requests_ = 0;
  std::uint64_t ops_ = 0;
  double energy_pj_ = 0.0;
};

}  // namespace apim::analytics
