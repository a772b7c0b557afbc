#include "analytics/runner.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>

namespace apim::analytics {

Runner::Runner(RunnerConfig cfg)
    : cfg_(std::move(cfg)),
      server_(std::make_unique<serve::Server>(cfg_.server, cfg_.qos)) {}

Runner::~Runner() = default;

std::vector<std::uint64_t> Runner::run_wave(
    serve::OpKind op, unsigned width,
    std::span<const std::pair<std::uint64_t, std::uint64_t>> ops,
    bool force_exact) {
  std::vector<std::uint64_t> out;
  out.reserve(ops.size());
  if (ops.empty()) return out;
  width = std::clamp(width, 4u, 32u);

  // One request per dispatch budget: each staged request is already a full
  // batch, and the batcher still coalesces short tails with same-shape
  // company from the same wave.
  const std::size_t per_request = cfg_.server.batch_op_budget();
  const std::size_t wave_cap = std::max<std::size_t>(
      1, cfg_.server.queue_capacity);

  std::size_t next = 0;
  while (next < ops.size()) {
    std::vector<std::uint64_t> ids;
    while (next < ops.size() && ids.size() < wave_cap) {
      const std::size_t m = std::min(per_request, ops.size() - next);
      serve::Request r;
      r.app = force_exact ? kExactApp : cfg_.app;
      r.op = op;
      r.width = width;
      r.operands.assign(ops.begin() + static_cast<std::ptrdiff_t>(next),
                        ops.begin() + static_cast<std::ptrdiff_t>(next + m));
      r.arrival = server_->virtual_now();
      r.policy = cfg_.policy;
      ids.push_back(server_->stage_request(std::move(r)));
      next += m;
      ++requests_;
    }
    while (const auto at = server_->next_event_at()) server_->step_until(*at);
    server_->release_finished();
    for (const std::uint64_t id : ids) {
      const serve::Response& resp = server_->response(id);
      if (resp.status != serve::RequestStatus::kOk)
        throw std::runtime_error(
            std::string("analytics request not served: ") +
            serve::to_string(resp.status));
      out.insert(out.end(), resp.values.begin(), resp.values.end());
      energy_pj_ += resp.energy_pj;
    }
  }
  ops_ += ops.size();
  ++waves_;
  return out;
}

util::Cycles Runner::virtual_now() const { return server_->virtual_now(); }

serve::MetricsSnapshot Runner::snapshot() const { return server_->snapshot(); }

}  // namespace apim::analytics
