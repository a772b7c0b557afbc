#include "measure.hpp"

#include <sys/resource.h>

#include <cmath>
#include <cstdio>

namespace apim_bench {

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // Linux: KiB.
}

const std::vector<MetricSpec>& end_to_end_catalog() {
  static const std::vector<MetricSpec> kCatalog = {
      {"setup_s", "s"},
      {"peak_rss_mb", "MiB"},
      {"ops_per_kcycle", "ops/kcycle"},
      {"p50_latency_cycles", "cycles"},
      {"p99_latency_cycles", "cycles"},
      {"energy_pj_per_op", "pJ/op"},
      {"slo_rate_per_kcycle", "req/kcycle"},
  };
  return kCatalog;
}

const std::vector<MetricSpec>& per_layer_catalog() {
  static const std::vector<MetricSpec> kCatalog = {
      {"host_ops_per_s", "ops/s"},
      {"serve.batcher.wait_cycles_p50", "cycles"},
      {"serve.batcher.wait_cycles_p99", "cycles"},
      {"serve.batcher.requests_per_batch", "req/batch"},
      {"serve.batcher.lane_fill", "fraction"},
      {"serve.batcher.host_ns_per_admit", "ns"},
      {"serve.scheduler.wait_cycles_p50", "cycles"},
      {"serve.scheduler.wait_cycles_p99", "cycles"},
      {"serve.scheduler.host_ns_per_pick", "ns"},
      {"serve.scheduler.pick_agreement", "fraction"},
      {"serve.executor.exec_cycles_p50", "cycles"},
      {"serve.executor.exec_cycles_p99", "cycles"},
      {"serve.executor.stream_occupancy", "fraction"},
      {"serve.executor.lane_occupancy", "fraction"},
      {"serve.executor.host_ns_per_op.mul", "ns/op"},
      {"serve.executor.host_ns_per_op.add", "ns/op"},
      {"serve.executor.host_ns_per_op.cmp", "ns/op"},
      {"serve.executor.host_ns_per_op.popcnt", "ns/op"},
      {"serve.executor.overhead_ns_per_op", "ns/op"},
      {"core.device.host_ns_per_op.mul", "ns/op"},
      {"core.device.host_ns_per_op.add", "ns/op"},
      {"core.device.host_ns_per_op.cmp", "ns/op"},
      {"core.device.host_ns_per_op.popcnt", "ns/op"},
      {"arith.transpose64_ns", "ns"},
      {"arith.slice_ns.mul", "ns"},
      {"arith.slice_ns.add", "ns"},
      {"arith.slice_ns.cmp", "ns"},
      {"arith.slice_ns.popcnt", "ns"},
      {"reliability.protect_ns_per_op", "ns/op"},
      {"reliability.detections", "count"},
      {"reliability.retries", "count"},
      {"serve.health.scrub_stream_share", "fraction"},
      {"serve.health.relocated_requests", "count"},
      {"serve.health.quarantines", "count"},
      {"serve.health.min_serving_domains", "count"},
      {"serve.server.self_ns_per_request", "ns"},
      {"serve.server.host_ns_per_event", "ns"},
      {"serve.server.escalation_share", "fraction"},
      {"serve.server.rerun_cycles_p99", "cycles"},
      {"serve.trace.overhead_share", "fraction"},
      {"serve.trace.events_per_request", "count"},
      {"serve.trace.verify_ns_per_event", "ns"},
      {"cluster.forward_leg_cycles_p99", "cycles"},
      {"cluster.response_leg_cycles_p99", "cycles"},
      {"cluster.held_requests", "count"},
      {"cluster.migrations", "count"},
      {"cluster.chip_jain", "fraction"},
      {"cluster.cross_shard_traffic_share", "fraction"},
      {"cluster.interconnect_energy_share", "fraction"},
      {"cluster.coord_self_share", "fraction"},
      {"analytics.waves", "count"},
      {"analytics.ops_per_wave", "ops"},
      {"analytics.query_kcycles.q6", "kcycles"},
      {"analytics.query_kcycles.q1", "kcycles"},
      {"analytics.query_kcycles.q3", "kcycles"},
      {"analytics.query_host_ms.q6", "ms"},
      {"analytics.query_host_ms.q1", "ms"},
      {"analytics.query_host_ms.q3", "ms"},
  };
  return kCatalog;
}

void Result::check(bool ok, const std::string& what) {
  if (ok) return;
  correct = false;
  failures.push_back(what);
}

void Result::check_empty(const std::string& violation,
                         const std::string& what) {
  check(violation.empty(), what + (violation.empty() ? "" : ": " + violation));
}

void Result::add(const MetricSpec& spec, double value, std::uint64_t samples) {
  check(std::isfinite(value), std::string(spec.name) + " is not finite");
  metrics.push_back(
      Entry{spec.name, std::isfinite(value) ? value : 0.0, spec.unit, samples});
}

void print_result(const Result& r) {
  for (const Result::Entry& m : r.metrics) {
    if (m.samples > 0) {
      std::printf("%s %.17g %s samples=%llu\n", m.name.c_str(), m.value,
                  m.unit.c_str(), static_cast<unsigned long long>(m.samples));
    } else {
      std::printf("%s %.17g %s\n", m.name.c_str(), m.value, m.unit.c_str());
    }
  }
  std::printf("attempted %llu failed %llu failed_share %.17g\n",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed),
              r.attempted == 0 ? 0.0
                               : static_cast<double>(r.failed) /
                                     static_cast<double>(r.attempted));
  for (const std::string& f : r.failures)
    std::fprintf(stderr, "CHECK FAILED: %s\n", f.c_str());

  // Metric names and units are fixed identifiers ([A-Za-z0-9_./%-]), so
  // they need no JSON escaping.
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              r.correct ? "true" : "false",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed));
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    const Result::Entry& m = r.metrics[i];
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

std::int64_t Spans::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              origin_)
      .count();
}

std::int64_t Spans::begin(const char* name, std::int64_t parent,
                          std::int64_t id) {
  spans_.push_back(Span{name, now_ns(), -1, parent, id});
  return static_cast<std::int64_t>(spans_.size()) - 1;
}

double Spans::end(std::int64_t span) {
  Span& s = spans_[static_cast<std::size_t>(span)];
  s.end_ns = now_ns();
  return static_cast<double>(s.end_ns - s.start_ns) * 1e-9;
}

bool Spans::write(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "{\"span\": %zu, \"name\": \"%s\", \"start_ns\": %lld, "
                 "\"end_ns\": %lld, \"parent\": %lld, \"id\": %lld}\n",
                 i, s.name, static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns),
                 static_cast<long long>(s.parent),
                 static_cast<long long>(s.id));
  }
  return std::fclose(f) == 0;
}

}  // namespace apim_bench
