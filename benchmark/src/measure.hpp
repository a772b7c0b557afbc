// Measurement plumbing shared by apim_benchmark: host timing, the metric
// catalog, result printing and host spans.
//
// Every host number is taken here, outside the simulator, by timing calls
// into its public functions; src/ stays free of clocks (the determinism
// lint bans them there).
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace apim_bench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] double seconds_since(Clock::time_point t0);

/// Peak resident set of this process so far, MiB.
[[nodiscard]] double peak_rss_mib();

struct MetricSpec {
  const char* name;
  const char* unit;
};

/// End-to-end metrics, reported by every untraced run in this order.
[[nodiscard]] const std::vector<MetricSpec>& end_to_end_catalog();
/// Per-layer metrics, reported by every traced run in this order.
[[nodiscard]] const std::vector<MetricSpec>& per_layer_catalog();

/// One run's verdict and numbers, printed as `name value unit` lines and a
/// final one-line JSON object.
struct Result {
  bool correct = true;
  std::vector<std::string> failures;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  struct Entry {
    std::string name;
    double value = 0.0;
    std::string unit;
    std::uint64_t samples = 0;  ///< Latency sample count; 0 = not a sample.
  };
  std::vector<Entry> metrics;

  void check(bool ok, const std::string& what);
  void check_empty(const std::string& violation, const std::string& what);
  void add(const MetricSpec& spec, double value, std::uint64_t samples = 0);
};

/// Print every metric line, the failures (to stderr) and the JSON object
/// as the last line of stdout.
void print_result(const Result& r);

/// Host spans recorded around the benchmark's calls into each layer. Kept
/// in memory until the run ends, then written as JSON lines.
class Spans {
 public:
  static constexpr std::int64_t kNone = -1;

  /// Open a span; returns its index. `id` is the request or batch id the
  /// span belongs to (kNone for phase spans). `name` must be a literal.
  std::int64_t begin(const char* name, std::int64_t parent,
                     std::int64_t id = kNone);
  /// Close a span; returns its duration in seconds.
  double end(std::int64_t span);

  [[nodiscard]] std::size_t size() const { return spans_.size(); }
  [[nodiscard]] bool write(const std::string& path) const;

 private:
  struct Span {
    const char* name;
    std::int64_t start_ns;
    std::int64_t end_ns;
    std::int64_t parent;
    std::int64_t id;
  };
  [[nodiscard]] std::int64_t now_ns() const;

  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
};

}  // namespace apim_bench
