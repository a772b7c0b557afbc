#include "traced.hpp"

#include <algorithm>
#include <array>
#include <cstdio>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "analysis/trace_check.hpp"
#include "arith/bitsliced.hpp"
#include "arith/compare_units.hpp"
#include "core/apim.hpp"
#include "serve/batcher.hpp"
#include "serve/executor.hpp"
#include "serve/scheduler.hpp"
#include "util/bitops.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace apim_bench {

namespace {

namespace serve = apim::serve;
namespace arith = apim::arith;
using apim::util::Cycles;
using apim::util::percentile;
using serve::OpKind;
using serve::trace::Event;
using serve::trace::EventKind;
using OpPair = std::pair<std::uint64_t, std::uint64_t>;
using Layer = std::map<std::string, double>;

constexpr std::size_t kNoRequest = static_cast<std::size_t>(-1);
/// Untraced and traced run pairs at least, whatever --seconds says.
constexpr int kMinRepeats = 3;
constexpr const char* kKindNames[4] = {"mul", "add", "cmp", "popcnt"};
/// Slices timed per op kind by the arith replay.
constexpr std::size_t kMaxSlices = 2048;
/// Where the arith replay stores its kernels' results, so the compiler
/// cannot drop the timed calls.
volatile std::uint64_t g_sink = 0;

std::size_t kind_index(OpKind op) { return static_cast<std::size_t>(op); }

bool cluster_scope(EventKind k) {
  return k == EventKind::kClusterAdmit || k == EventKind::kForward ||
         k == EventKind::kResponseLeg || k == EventKind::kMigrationStart ||
         k == EventKind::kMigrationCommit;
}

std::size_t chip_of(const Event& e) {
  return e.chip < 0 ? 0 : static_cast<std::size_t>(e.chip);
}

/// (chip, chip-local request id) -> index into Capture::requests.
class RequestIndex {
 public:
  explicit RequestIndex(const Capture& cap) : by_chip_(cap.chips) {
    for (std::size_t i = 0; i < cap.requests.size(); ++i) {
      std::vector<std::size_t>& v = by_chip_[cap.requests[i].chip];
      const std::uint64_t id = cap.requests[i].local_id;
      if (v.size() <= id) v.resize(id + 1, kNoRequest);
      v[id] = i;
    }
  }

  [[nodiscard]] std::size_t find(const Event& e, std::int64_t id) const {
    const std::size_t chip = chip_of(e);
    if (chip >= by_chip_.size() || id < 0) return kNoRequest;
    const std::vector<std::size_t>& v = by_chip_[chip];
    const auto u = static_cast<std::size_t>(id);
    return u < v.size() ? v[u] : kNoRequest;
  }

 private:
  std::vector<std::vector<std::size_t>> by_chip_;
};

/// The shape a request was admitted with, from its admit event.
struct Shape {
  serve::BatchKey key;
  std::size_t ops = 0;
};

std::vector<Shape> admitted_shapes(const Capture& cap,
                                   const RequestIndex& index) {
  std::vector<Shape> shapes(cap.requests.size());
  for (const Event& e : cap.log.events()) {
    if (e.kind != EventKind::kAdmit) continue;
    const std::size_t i = index.find(e, e.req);
    if (i == kNoRequest) continue;
    shapes[i].key = serve::BatchKey{static_cast<OpKind>(e.op), e.width,
                                    e.relax,
                                    static_cast<apim::reliability::ReliabilityPolicy>(
                                        e.policy),
                                    e.app};
    shapes[i].ops = e.ops;
  }
  return shapes;
}

// -- Modeled latency split --------------------------------------------------

/// Splits every kOk request's latency into admission wait, batch window,
/// DRR wait, execution and rerun/relocation (plus the cluster's forward
/// and response legs) from the event log, and checks the parts sum
/// exactly to the response's latency.
void latency_split(const Capture& cap, const RequestIndex& index, Result& r,
                   Layer& layer) {
  struct Phases {
    Cycles admit = 0, seal = 0, dispatch = 0, end = 0, served = 0;
    unsigned seen = 0;  ///< Bit per phase reached.
  };
  enum : unsigned { kAdmit = 1, kSeal = 2, kDispatch = 4, kEnd = 8, kServed = 16 };
  std::vector<Phases> ph(cap.requests.size());
  const auto mark = [&](const Event& e, std::int64_t id, unsigned bit,
                        Cycles Phases::*field) {
    const std::size_t i = index.find(e, id);
    if (i == kNoRequest || (ph[i].seen & bit) != 0) return;
    ph[i].seen |= bit;
    ph[i].*field = e.at;
  };

  std::vector<double> exec_cycles, forward, response_leg;
  std::map<std::pair<std::size_t, std::int64_t>, Cycles> busy_since;
  for (const Event& e : cap.log.events()) {
    if (e.kind == EventKind::kForward) forward.push_back(static_cast<double>(e.cycles));
    if (e.kind == EventKind::kResponseLeg)
      response_leg.push_back(static_cast<double>(e.cycles));
    if (cluster_scope(e.kind) || e.scrub) continue;
    switch (e.kind) {
      case EventKind::kAdmit: mark(e, e.req, kAdmit, &Phases::admit); break;
      case EventKind::kServe: mark(e, e.req, kServed, &Phases::served); break;
      case EventKind::kBatchSeal:
        for (const std::uint64_t m : e.members)
          mark(e, static_cast<std::int64_t>(m), kSeal, &Phases::seal);
        break;
      case EventKind::kDispatch:
        busy_since[{chip_of(e), e.domain}] = e.at;
        for (const std::uint64_t m : e.members)
          mark(e, static_cast<std::int64_t>(m), kDispatch, &Phases::dispatch);
        break;
      case EventKind::kComplete:
      case EventKind::kAbort:
        if (e.kind == EventKind::kComplete)
          exec_cycles.push_back(
              static_cast<double>(e.at - busy_since[{chip_of(e), e.domain}]));
        for (const std::uint64_t m : e.members)
          mark(e, static_cast<std::int64_t>(m), kEnd, &Phases::end);
        break;
      default: break;
    }
  }

  std::vector<double> batch_wait, drr_wait, rerun;
  std::uint64_t broken = 0;
  for (std::size_t i = 0; i < cap.requests.size(); ++i) {
    const ServedRequest& sr = cap.requests[i];
    const serve::Response& resp = sr.response;
    if (resp.status != serve::RequestStatus::kOk) continue;
    const Phases& p = ph[i];
    const bool ordered =
        p.seen == (kAdmit | kSeal | kDispatch | kEnd | kServed) &&
        resp.arrival <= p.admit && p.admit <= p.seal && p.seal <= p.dispatch &&
        p.dispatch <= p.end && p.end <= p.served &&
        sr.edge_arrival <= resp.arrival && resp.completion <= sr.edge_completion;
    if (!ordered) {
      ++broken;
      continue;
    }
    const Cycles parts[] = {
        resp.arrival - sr.edge_arrival,       // Forward leg (cluster).
        p.admit - resp.arrival,               // Admission wait.
        p.seal - p.admit,                     // Batch window.
        p.dispatch - p.seal,                  // DRR wait.
        p.end - p.dispatch,                   // Execution.
        p.served - p.end,                     // Rerun / relocation.
        sr.edge_completion - resp.completion  // Response leg (cluster).
    };
    Cycles sum = 0;
    for (const Cycles c : parts) sum += c;
    const Cycles want = sr.edge_completion - sr.edge_arrival;
    const Cycles chip_latency = resp.latency_cycles();
    if (sum != want || parts[1] + parts[2] + parts[3] + parts[4] + parts[5] !=
                           chip_latency) {
      ++broken;
      continue;
    }
    batch_wait.push_back(static_cast<double>(parts[2]));
    drr_wait.push_back(static_cast<double>(parts[3]));
    if (parts[5] > 0) rerun.push_back(static_cast<double>(parts[5]));
  }
  r.check(broken == 0, std::to_string(broken) +
                           " requests whose logged phases do not sum to "
                           "their latency");

  layer["serve.batcher.wait_cycles_p50"] = percentile(batch_wait, 0.50);
  layer["serve.batcher.wait_cycles_p99"] = percentile(batch_wait, 0.99);
  layer["serve.scheduler.wait_cycles_p50"] = percentile(drr_wait, 0.50);
  layer["serve.scheduler.wait_cycles_p99"] = percentile(drr_wait, 0.99);
  layer["serve.executor.exec_cycles_p50"] = percentile(exec_cycles, 0.50);
  layer["serve.executor.exec_cycles_p99"] = percentile(exec_cycles, 0.99);
  layer["serve.server.rerun_cycles_p99"] = percentile(rerun, 0.99);
  layer["cluster.forward_leg_cycles_p99"] = percentile(forward, 0.99);
  layer["cluster.response_leg_cycles_p99"] = percentile(response_leg, 0.99);

  double members = 0, fill = 0, seals = 0;
  const double budget = static_cast<double>(cap.server.batch_op_budget());
  for (const Event& e : cap.log.events()) {
    if (e.kind != EventKind::kBatchSeal || e.scrub) continue;
    members += static_cast<double>(e.members.size());
    fill += static_cast<double>(e.ops) / budget;
    ++seals;
  }
  layer["serve.batcher.requests_per_batch"] = seals > 0 ? members / seals : 0.0;
  layer["serve.batcher.lane_fill"] = seals > 0 ? fill / seals : 0.0;
}

// -- Batcher replay ---------------------------------------------------------

/// Feeds every logged batcher entry (admissions, escalation and
/// relocation rejoins) to a fresh DynamicBatcher per chip, closing windows
/// at their expiry, and checks the seals match the logged ones. Returns the
/// host seconds spent inside the batcher.
double replay_batcher(const Capture& cap, const RequestIndex& index,
                      const std::vector<Shape>& shapes, Result& r, Layer& layer,
                      Spans& spans, std::int64_t parent) {
  struct Add {
    Cycles at;
    std::uint64_t id;
    serve::BatchKey key;
    std::size_t ops;
  };
  struct Seal {
    Cycles at;
    std::vector<std::uint64_t> members;
  };
  std::vector<std::vector<Add>> adds(cap.chips);
  std::vector<std::vector<Seal>> logged(cap.chips);
  std::vector<unsigned> relax(shapes.size());
  for (std::size_t i = 0; i < shapes.size(); ++i) relax[i] = shapes[i].key.relax_bits;

  for (const Event& e : cap.log.events()) {
    if (cluster_scope(e.kind)) continue;
    const std::size_t chip = chip_of(e);
    if (e.kind == EventKind::kBatchSeal && !e.scrub) {
      logged[chip].push_back(Seal{e.at, e.members});
      continue;
    }
    if (e.kind != EventKind::kAdmit && e.kind != EventKind::kQosEscalate &&
        e.kind != EventKind::kRelocate) {
      continue;
    }
    const std::size_t i = index.find(e, e.req);
    if (i == kNoRequest) continue;
    if (e.kind == EventKind::kQosEscalate) relax[i] = e.relax;
    serve::BatchKey key = shapes[i].key;
    key.relax_bits = relax[i];
    adds[chip].push_back(
        Add{e.at, static_cast<std::uint64_t>(e.req), key, shapes[i].ops});
  }

  double seconds = 0.0;
  std::size_t total_adds = 0, mismatched = 0;
  for (std::size_t chip = 0; chip < cap.chips; ++chip) {
    std::vector<serve::ClosedBatch> produced;
    produced.reserve(logged[chip].size());
    const auto take = [&](std::vector<serve::ClosedBatch>&& closed) {
      for (serve::ClosedBatch& b : closed) produced.push_back(std::move(b));
    };
    const std::int64_t s = spans.begin("serve.batcher.replay", parent,
                                       static_cast<std::int64_t>(chip));
    serve::DynamicBatcher batcher(cap.server.batch_window,
                                  cap.server.batch_op_budget());
    for (const Add& a : adds[chip]) {
      // Windows that expired before this instant closed at their expiry;
      // those expiring now close after this instant's additions.
      while (const auto next = batcher.next_close()) {
        if (*next >= a.at) break;
        take(batcher.close_due(*next));
      }
      if (auto full = batcher.add(a.id, a.key, a.ops, a.at))
        produced.push_back(std::move(*full));
    }
    while (const auto next = batcher.next_close()) take(batcher.close_due(*next));
    seconds += spans.end(s);
    total_adds += adds[chip].size();

    if (produced.size() != logged[chip].size()) {
      mismatched += std::max(produced.size(), logged[chip].size());
      continue;
    }
    for (std::size_t k = 0; k < produced.size(); ++k)
      if (produced[k].closed_at != logged[chip][k].at ||
          produced[k].members != logged[chip][k].members) {
        ++mismatched;
      }
  }
  r.check(mismatched == 0, "batcher replay differs from " +
                               std::to_string(mismatched) + " logged seals");
  layer["serve.batcher.host_ns_per_admit"] =
      total_adds == 0 ? 0.0 : 1e9 * seconds / static_cast<double>(total_adds);
  return seconds;
}

// -- Scheduler replay -------------------------------------------------------

/// Replays the logged seals, picks, stream releases and refunds through a
/// fresh DrrScheduler per chip (configured from the log header) and
/// reports the share of logged dispatches it picks identically. Returns
/// the host seconds spent inside the scheduler.
double replay_scheduler(const Capture& cap, Layer& layer, Spans& spans,
                        std::int64_t parent) {
  const serve::trace::Meta& meta = cap.log.meta;
  serve::SchedulerConfig sc;
  sc.fair_share = meta.fair_share;
  sc.streams = meta.streams;
  sc.quantum_ops = meta.quantum_ops;
  sc.default_weight = static_cast<std::uint32_t>(meta.default_weight);
  for (const auto& [app, w] : meta.weights)
    sc.weights[app] = static_cast<std::uint32_t>(w);

  enum class Op { kEnqueue, kPick, kRelease, kRefund };
  struct Action {
    Op op;
    const Event* e;
  };
  std::vector<std::vector<Action>> actions(cap.chips);
  std::vector<std::vector<serve::ClosedBatch>> sealed(cap.chips);
  for (const Event& e : cap.log.events()) {
    if (cluster_scope(e.kind)) continue;
    std::vector<Action>& a = actions[chip_of(e)];
    switch (e.kind) {
      case EventKind::kBatchSeal: {
        serve::ClosedBatch b;
        b.key = serve::BatchKey{static_cast<OpKind>(e.op), e.width, e.relax,
                                static_cast<apim::reliability::ReliabilityPolicy>(
                                    e.policy),
                                e.app};
        b.members = e.members;
        b.ops = e.ops;
        b.closed_at = e.at;
        b.seq = sealed[chip_of(e)].size();
        if (e.scrub) b.scrub_domain = static_cast<std::size_t>(e.domain);
        sealed[chip_of(e)].push_back(std::move(b));
        a.push_back({Op::kEnqueue, &e});
        break;
      }
      case EventKind::kDispatch: a.push_back({Op::kPick, &e}); break;
      case EventKind::kComplete:
      case EventKind::kAbort: a.push_back({Op::kRelease, &e}); break;
      case EventKind::kCreditRefund: a.push_back({Op::kRefund, &e}); break;
      default: break;
    }
  }

  const auto same_pick = [](const std::optional<serve::DispatchPick>& p,
                            const Event& e) {
    if (!p || p->app != e.app) return false;
    if (e.scrub)
      return p->batch.scrub_domain == static_cast<std::size_t>(e.domain);
    // Dispatched members are the sealed ones minus any that expired.
    for (const std::uint64_t m : e.members)
      if (std::find(p->batch.members.begin(), p->batch.members.end(), m) ==
          p->batch.members.end())
        return false;
    return true;
  };

  double seconds = 0.0;
  std::size_t picks = 0, agreed = 0;
  for (std::size_t chip = 0; chip < cap.chips; ++chip) {
    std::size_t next_sealed = 0;
    const std::int64_t s = spans.begin("serve.scheduler.replay", parent,
                                       static_cast<std::int64_t>(chip));
    serve::DrrScheduler sched(sc);
    for (const Action& a : actions[chip]) {
      switch (a.op) {
        case Op::kEnqueue: sched.enqueue(std::move(sealed[chip][next_sealed++])); break;
        case Op::kPick: {
          ++picks;
          // The engine consumes scrub picks it cannot dispatch (target
          // busy: re-sealed later; target quarantined: dropped), so skip
          // scrub picks until one matches the logged dispatch.
          std::optional<serve::DispatchPick> p = sched.next(a.e->at);
          while (p && p->batch.scrub_domain != serve::kNotScrub &&
                 !same_pick(p, *a.e)) {
            p = sched.next(a.e->at);
          }
          if (same_pick(p, *a.e)) ++agreed;
          sched.stream_acquired(a.e->app);
          break;
        }
        case Op::kRelease: sched.stream_released(a.e->app); break;
        case Op::kRefund: sched.refund(a.e->app, a.e->amount, a.e->at); break;
      }
    }
    seconds += spans.end(s);
  }
  layer["serve.scheduler.host_ns_per_pick"] =
      picks == 0 ? 0.0 : 1e9 * seconds / static_cast<double>(picks);
  layer["serve.scheduler.pick_agreement"] =
      picks == 0 ? 1.0 : static_cast<double>(agreed) / static_cast<double>(picks);
  return seconds;
}

// -- Executor, device, reliability and arith replays ------------------------

/// One logged tenant dispatch with the operands of its members.
struct Batch {
  std::int64_t id = 0;  ///< Dispatch event index: the span id.
  serve::BatchKey key;
  std::vector<std::size_t> members;  ///< Indices into Capture::requests.
  /// Member operands, pointing into the captured trace or into `owned`.
  std::vector<std::span<const OpPair>> member_ops;
  std::vector<std::vector<OpPair>> owned;
  std::vector<OpPair> flat;  ///< Clamped, flattened: the device's input.
};

/// Rebuilds every logged tenant dispatch. Requests whose operands the
/// workload cannot see get seeded operands of the logged shape instead.
std::vector<Batch> logged_batches(const Capture& cap, const RequestIndex& index,
                                  const std::vector<Shape>& shapes) {
  apim::util::Xoshiro256 rng(0xBA7C4);
  std::vector<Batch> batches;
  const std::vector<Event>& events = cap.log.events();
  for (std::size_t k = 0; k < events.size(); ++k) {
    const Event& e = events[k];
    if (e.kind != EventKind::kDispatch || e.scrub || cluster_scope(e.kind))
      continue;
    Batch b;
    b.id = static_cast<std::int64_t>(k);
    b.key = serve::BatchKey{static_cast<OpKind>(e.op), e.width, e.relax,
                            static_cast<apim::reliability::ReliabilityPolicy>(
                                e.policy),
                            e.app};
    b.owned.reserve(e.members.size());
    for (const std::uint64_t m : e.members) {
      const std::size_t i = index.find(e, static_cast<std::int64_t>(m));
      b.members.push_back(i);
      const serve::Request* req = i == kNoRequest ? nullptr : cap.requests[i].request;
      if (req != nullptr) {
        b.member_ops.emplace_back(req->operands);
        continue;
      }
      const std::size_t n = i == kNoRequest ? 1 : std::max<std::size_t>(1, shapes[i].ops);
      std::vector<OpPair>& ops = b.owned.emplace_back();
      const std::uint64_t bound = apim::util::mask_n(e.width) + 1;
      for (std::size_t j = 0; j < n; ++j)
        ops.emplace_back(rng.next_below(bound), rng.next_below(bound));
      b.member_ops.emplace_back(ops);
    }
    const std::uint64_t cap_value = apim::util::mask_n(e.width);
    for (const std::span<const OpPair> ops : b.member_ops)
      for (const auto& [x, y] : ops)
        b.flat.emplace_back(std::min(x, cap_value), std::min(y, cap_value));
    batches.push_back(std::move(b));
  }
  return batches;
}

apim::core::ApimConfig shape_config(const serve::BatchKey& key,
                                    const apim::core::ApimConfig& base) {
  apim::core::ApimConfig cfg = base;
  cfg.word_bits = key.width;
  cfg.approx.relax_bits = key.relax_bits;
  cfg.reliability.policy = key.policy;
  return cfg;
}

void device_batch(apim::core::ApimDevice& dev, OpKind op,
                  std::span<const OpPair> ops, std::span<std::uint64_t> values,
                  std::span<Cycles> cycles) {
  switch (op) {
    case OpKind::kMultiply: dev.mul_magnitude_batch(ops, values, cycles); break;
    case OpKind::kVectorAdd: dev.add_magnitude_batch(ops, values, cycles); break;
    case OpKind::kCompare: dev.cmp_magnitude_batch(ops, values, cycles); break;
    case OpKind::kPopcount: dev.popcnt_magnitude_batch(ops, values, cycles); break;
  }
}

/// Host seconds and ops per op kind.
struct KindTimes {
  double seconds[4] = {0, 0, 0, 0};
  double ops[4] = {0, 0, 0, 0};
  void add(OpKind op, double s, std::size_t n) {
    seconds[kind_index(op)] += s;
    ops[kind_index(op)] += static_cast<double>(n);
  }
  [[nodiscard]] double ns_per_op(std::size_t k) const {
    return ops[k] > 0 ? 1e9 * seconds[k] / ops[k] : 0.0;
  }
  [[nodiscard]] double total_seconds() const {
    return seconds[0] + seconds[1] + seconds[2] + seconds[3];
  }
  [[nodiscard]] double total_ops() const { return ops[0] + ops[1] + ops[2] + ops[3]; }
};

/// Host time of the batch replays, per op kind.
struct BatchReplay {
  KindTimes executor;   ///< serve::execute_batch.
  KindTimes device;     ///< ApimDevice batch entry, as served.
  KindTimes off;        ///< The same, reliability policy kOff.
  KindTimes protect;    ///< The same, kDetectAndRepair.
};

/// Times the device batch entry point for `key` over `ops`, fresh device.
double time_device(const Capture& cap, const serve::BatchKey& key,
                   std::span<const OpPair> ops,
                   std::vector<std::uint64_t>& values,
                   std::vector<Cycles>& cycles) {
  apim::core::ApimDevice dev(shape_config(key, cap.server.device));
  values.assign(ops.size(), 0);
  cycles.assign(ops.size(), 0);
  const Clock::time_point t0 = Clock::now();
  device_batch(dev, key.op, ops, values, cycles);
  return seconds_since(t0);
}

/// Every logged dispatch through serve::execute_batch, then through the
/// device batch entry point directly, then with reliability off and on.
/// The four run back to back per batch so their differences (executor
/// overhead, protection cost) are not skewed by host drift. Checks each
/// member's final dispatch reproduces the values it was served.
BatchReplay replay_batches(const Capture& cap, const std::vector<Batch>& batches,
                           Result& r, Spans& spans, std::int64_t parent) {
  std::vector<std::int64_t> last_dispatch(cap.requests.size(), -1);
  for (const Batch& b : batches)
    for (const std::size_t i : b.members)
      if (i != kNoRequest) last_dispatch[i] = b.id;

  BatchReplay t;
  std::vector<std::uint64_t> values;
  std::vector<Cycles> cycles;
  std::uint64_t differ = 0;
  bool off_first = true;
  for (const Batch& b : batches) {
    const std::size_t n = b.flat.size();
    std::int64_t s = spans.begin("serve.executor.execute_batch", parent, b.id);
    const serve::BatchExecution exec = serve::execute_batch(
        b.member_ops, b.key, cap.server.lanes_per_stream, cap.server.device);
    t.executor.add(b.key.op, spans.end(s), n);

    apim::core::ApimDevice dev(shape_config(b.key, cap.server.device));
    values.assign(n, 0);
    cycles.assign(n, 0);
    s = spans.begin("core.device.magnitude_batch", parent, b.id);
    device_batch(dev, b.key.op, b.flat, values, cycles);
    t.device.add(b.key.op, spans.end(s), n);

    // Alternate which policy runs first so warm caches favour neither.
    serve::BatchKey off = b.key, on = b.key;
    off.policy = apim::reliability::ReliabilityPolicy::kOff;
    on.policy = apim::reliability::ReliabilityPolicy::kDetectAndRepair;
    off_first = !off_first;
    const serve::BatchKey& first = off_first ? off : on;
    const double first_s = time_device(cap, first, b.flat, values, cycles);
    const double second_s =
        time_device(cap, off_first ? on : off, b.flat, values, cycles);
    t.off.add(b.key.op, off_first ? first_s : second_s, n);
    t.protect.add(b.key.op, off_first ? second_s : first_s, n);

    for (std::size_t m = 0; m < b.members.size(); ++m) {
      const std::size_t i = b.members[m];
      if (i == kNoRequest || cap.requests[i].request == nullptr ||
          last_dispatch[i] != b.id ||
          cap.requests[i].response.status != serve::RequestStatus::kOk) {
        continue;
      }
      if (exec.values[m] != cap.requests[i].response.values) ++differ;
    }
  }
  r.check(differ == 0, "executor replay differs from " +
                           std::to_string(differ) + " served responses");
  return t;
}

/// Slice kernels and transpose64 over up to kMaxSlices 64-op slices of the
/// logged batches per op kind, at each batch's width and relax level.
void replay_arith(const Capture& cap, const std::vector<Batch>& batches,
                  Layer& layer, Spans& spans, std::int64_t parent) {
  struct Slice {
    const Batch* batch;
    std::span<const OpPair> ops;
  };
  std::vector<Slice> slices[4];
  for (const Batch& b : batches) {
    std::vector<Slice>& v = slices[kind_index(b.key.op)];
    const std::span<const OpPair> all(b.flat);
    for (std::size_t lo = 0; lo < all.size() && v.size() < kMaxSlices;
         lo += arith::kBitsliceLanes) {
      v.push_back(Slice{&b, all.subspan(lo, std::min(arith::kBitsliceLanes,
                                                     all.size() - lo))});
    }
  }

  const apim::device::EnergyModel& em = cap.server.device.energy;
  std::array<arith::MultiplyOutcome, arith::kBitsliceLanes> mul_out;
  std::array<arith::AddOutcome, arith::kBitsliceLanes> add_out;
  std::array<arith::CompareOutcome, arith::kBitsliceLanes> cmp_out;
  std::uint64_t sink = 0;
  static constexpr const char* kSpanNames[4] = {
      "arith.bitsliced_multiply_slice", "arith.bitsliced_add_slice",
      "arith.bitsliced_compare_slice", "arith.fast_popcount_x64"};
  for (std::size_t k = 0; k < 4; ++k) {
    const std::int64_t s = spans.begin(kSpanNames[k], parent);
    for (const Slice& sl : slices[k]) {
      const unsigned n = sl.batch->key.width;
      const std::size_t m = sl.ops.size();
      switch (static_cast<OpKind>(k)) {
        case OpKind::kMultiply: {
          arith::ApproxConfig approx = cap.server.device.approx;
          approx.relax_bits = sl.batch->key.relax_bits;
          arith::bitsliced_multiply_slice(sl.ops, n, approx, em,
                                          std::span(mul_out.data(), m));
          sink += mul_out[0].product;
          break;
        }
        case OpKind::kVectorAdd:
          // The device's adder relax: half the multiplier's, capped at n.
          arith::bitsliced_add_slice(sl.ops, n,
                                     std::min(sl.batch->key.relax_bits / 2, n),
                                     em, std::span(add_out.data(), m));
          sink += add_out[0].sum;
          break;
        case OpKind::kCompare:
          arith::bitsliced_compare_slice(sl.ops, n, em,
                                         std::span(cmp_out.data(), m));
          sink += cmp_out[0].code;
          break;
        case OpKind::kPopcount:
          // No bitsliced popcount exists: the device runs the word model
          // per op on every tier, so that is what a slice costs.
          for (const OpPair& op : sl.ops) sink += arith::fast_popcount(op.first, n, em).sum;
          break;
      }
    }
    const double secs = spans.end(s);
    layer[std::string("arith.slice_ns.") + kKindNames[k]] =
        slices[k].empty() ? 0.0
                          : 1e9 * secs / static_cast<double>(slices[k].size());
  }

  std::vector<std::array<std::uint64_t, 64>> planes;
  for (const std::vector<Slice>& v : slices)
    for (const Slice& sl : v) {
      if (planes.size() >= kMaxSlices) break;
      std::array<std::uint64_t, 64> in{};
      for (std::size_t l = 0; l < sl.ops.size(); ++l) in[l] = sl.ops[l].first;
      planes.push_back(in);
    }
  std::array<std::uint64_t, 64> out{};
  const std::int64_t s = spans.begin("arith.transpose64", parent);
  for (const auto& in : planes) {
    arith::transpose64(in.data(), out.data());
    sink += out[0];
  }
  const double secs = spans.end(s);
  layer["arith.transpose64_ns"] =
      planes.empty() ? 0.0 : 1e9 * secs / static_cast<double>(planes.size());
  g_sink = sink;
}

}  // namespace

Result run_traced(Workload& w, std::uint64_t seed, double seconds,
                  const std::string& out_dir) {
  Result r;
  Spans spans;
  const std::int64_t root = spans.begin("benchmark.traced_run", Spans::kNone);
  const std::int64_t setup = spans.begin("setup", root);
  w.setup(seed);
  spans.end(setup);
  const std::int64_t warm = spans.begin("warm_up", root);
  (void)w.run(nullptr);
  spans.end(warm);

  // Alternate untraced and traced runs for `seconds`; the last traced
  // run's log and outputs are what the rest of the analysis reads. Like
  // the fastest repeat of an untraced run, both run times are the fastest
  // of their kind: other load on the machine can only add time.
  Capture cap;
  std::vector<double> plain, traced;
  bool observational = true;
  const std::int64_t capture = spans.begin("capture", root);
  const Clock::time_point t0 = Clock::now();
  for (int i = 0; i < kMinRepeats || seconds_since(t0) < seconds; ++i) {
    std::int64_t s = spans.begin("run", capture, i);
    plain.push_back(w.run(nullptr));
    spans.end(s);
    const Modeled untraced = modeled(w);
    cap.log.clear();
    s = spans.begin("run.traced", capture, i);
    traced.push_back(w.run(&cap.log));
    spans.end(s);
    observational = observational && modeled(w) == untraced;
  }
  cap.untraced_s = *std::min_element(plain.begin(), plain.end());
  cap.traced_s = *std::min_element(traced.begin(), traced.end());
  w.capture(cap, spans, capture);
  spans.end(capture);

  w.check(r);
  const Modeled m = modeled(w);
  r.attempted = m.attempted;
  r.failed = m.failed;
  r.check(observational,
          "a traced run's modeled metrics differ from the untraced run");
  r.check(!cap.log.overflowed(), "the event log overflowed");

  Layer layer = cap.layer;
  layer["host_ops_per_s"] = static_cast<double>(m.ok_ops) / cap.untraced_s;
  const std::size_t events = cap.log.events().size();
  const double requests = static_cast<double>(std::max<std::size_t>(1, cap.requests.size()));

  const std::int64_t verify = spans.begin("analysis.verify_trace", root);
  const std::string violations = apim::analysis::verify_trace(cap.log);
  const double verify_s = spans.end(verify);
  r.check_empty(violations, "trace verifier");

  const RequestIndex index(cap);
  const std::vector<Shape> shapes = admitted_shapes(cap, index);
  latency_split(cap, index, r, layer);
  const double batcher_s = replay_batcher(cap, index, shapes, r, layer, spans, root);
  const double scheduler_s = replay_scheduler(cap, layer, spans, root);

  const std::vector<Batch> batches = logged_batches(cap, index, shapes);
  const std::int64_t batch_phase = spans.begin("replay.batches", root);
  const BatchReplay replay = replay_batches(cap, batches, r, spans, batch_phase);
  spans.end(batch_phase);
  const KindTimes& exec = replay.executor;
  const KindTimes& dev = replay.device;
  const std::int64_t arith_phase = spans.begin("arith.replay", root);
  replay_arith(cap, batches, layer, spans, arith_phase);
  spans.end(arith_phase);

  for (std::size_t k = 0; k < 4; ++k) {
    layer[std::string("serve.executor.host_ns_per_op.") + kKindNames[k]] =
        exec.ns_per_op(k);
    layer[std::string("core.device.host_ns_per_op.") + kKindNames[k]] =
        dev.ns_per_op(k);
  }
  const double ops = std::max(1.0, exec.total_ops());
  layer["serve.executor.overhead_ns_per_op"] =
      1e9 * (exec.total_seconds() - dev.total_seconds()) / ops;
  layer["reliability.protect_ns_per_op"] =
      1e9 * (replay.protect.total_seconds() - replay.off.total_seconds()) / ops;
  // Seeded stand-in operands (analytics) cost the kernels a different time
  // than the served ones, so subtracting their replay would not leave the
  // server's own time: the metric then reads 0.
  const bool operands_seen =
      std::all_of(cap.requests.begin(), cap.requests.end(),
                  [](const ServedRequest& sr) { return sr.request != nullptr; });
  layer["serve.server.self_ns_per_request"] =
      operands_seen ? 1e9 *
                          (cap.untraced_s - exec.total_seconds() - batcher_s -
                           scheduler_s) /
                          requests
                    : 0.0;
  layer["serve.server.host_ns_per_event"] =
      events == 0 ? 0.0 : 1e9 * cap.untraced_s / static_cast<double>(events);
  layer["serve.trace.overhead_share"] =
      cap.untraced_s > 0.0 ? cap.traced_s / cap.untraced_s - 1.0 : 0.0;
  layer["serve.trace.events_per_request"] = static_cast<double>(events) / requests;
  layer["serve.trace.verify_ns_per_event"] =
      events == 0 ? 0.0 : 1e9 * verify_s / static_cast<double>(events);
  spans.end(root);

  const std::string path = out_dir + "/" + w.name() + ".spans.jsonl";
  r.check(spans.write(path), "writing " + path);
  std::printf("# spans %zu written to %s\n", spans.size(), path.c_str());
  std::printf("# untraced run %.6f s, traced run %.6f s, %zu events\n",
              cap.untraced_s, cap.traced_s, events);

  for (const MetricSpec& spec : per_layer_catalog()) {
    const auto it = layer.find(spec.name);
    r.add(spec, it == layer.end() ? 0.0 : it->second);
  }
  return r;
}

}  // namespace apim_bench
