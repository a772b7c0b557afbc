#include "serve/load_gen.hpp"

#include <cmath>
#include <stdexcept>
#include <utility>

#include "util/bitops.hpp"
#include "util/rng.hpp"

namespace apim::serve {

std::vector<Request> make_open_loop_trace(const LoadGenConfig& cfg) {
  // Checked in every build type: a zero rate would cast an infinite
  // arrival clock to util::Cycles, which is undefined behaviour.
  if (!(std::isfinite(cfg.rate_per_kcycle) && cfg.rate_per_kcycle > 0.0)) {
    throw std::invalid_argument(
        "make_open_loop_trace: rate_per_kcycle must be finite and > 0");
  }
  if (cfg.min_ops == 0)
    throw std::invalid_argument("make_open_loop_trace: min_ops must be >= 1");
  if (cfg.min_ops > cfg.max_ops) {
    throw std::invalid_argument(
        "make_open_loop_trace: min_ops must be <= max_ops");
  }
  util::Xoshiro256 rng(cfg.seed);
  std::vector<Request> trace;
  trace.reserve(cfg.requests);

  const double mean_gap_cycles = 1000.0 / cfg.rate_per_kcycle;
  const std::uint64_t operand_mask = util::mask_n(cfg.width);
  double clock = 0.0;
  for (std::size_t i = 0; i < cfg.requests; ++i) {
    // Exponential interarrival: -ln(1 - U) * mean. next_double() < 1, so
    // the log argument stays positive.
    clock += -std::log(1.0 - rng.next_double()) * mean_gap_cycles;

    Request& r = trace.emplace_back();
    r.arrival = static_cast<util::Cycles>(clock);
    if (!cfg.apps.empty()) r.app = cfg.apps[rng.next_below(cfg.apps.size())];
    r.op = rng.next_double() < cfg.add_fraction ? OpKind::kVectorAdd
                                                : OpKind::kMultiply;
    r.width = cfg.width;
    r.deadline = cfg.deadline;
    r.policy = cfg.policy;
    const std::size_t ops =
        cfg.min_ops +
        (cfg.max_ops > cfg.min_ops
             ? rng.next_below(cfg.max_ops - cfg.min_ops + 1)
             : 0);
    r.operands.assign_generated(ops, [&] {
      // `second` is drawn first (load_gen.hpp).
      const std::uint64_t second = rng.next() & operand_mask;
      const std::uint64_t first = rng.next() & operand_mask;
      return std::pair{first, second};
    });
  }
  return trace;
}

}  // namespace apim::serve
